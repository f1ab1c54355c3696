// acquire: 2-pass RO acquisition through a spawned `ri_server --workers 2`.
//
// Two generator threads, each owning one pre-registered agent and one
// persistent SocketTransport under ReliableTransport. Generator threads
// plus server workers equal 4, so the load fits a 4-vCPU host.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>

#include "agent/drm_agent.h"
#include "net/realm.h"
#include "net/socket_transport.h"
#include "roap/retry.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace omadrm;  // NOLINT

constexpr std::size_t kGenerators = 2;
constexpr std::size_t kWarmupPerAgent = 100;

/// Counts the ROAP wire bytes each exchange carries, both directions.
class ByteCounter final : public roap::Transport {
 public:
  explicit ByteCounter(roap::Transport& inner) : inner_(inner) {}
  roap::Envelope request(const roap::Envelope& request) override {
    roap::Envelope reply = inner_.request(request);
    bytes_ += request.size() + reply.size();
    return reply;
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  roap::Transport& inner_;
  std::uint64_t bytes_ = 0;
};

/// The spawned daemon. The child dies with the benchmark (PDEATHSIG), so
/// no early exit can leave it running.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::uint64_t realm_seed) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) std::_Exit(127);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const std::string seed = std::to_string(realm_seed);
      const std::string workers = std::to_string(kAcquireServerWorkers);
      const char* argv[] = {binary.c_str(), "--port", "0", "--host",
                            "127.0.0.1", "--seed", seed.c_str(),
                            "--workers", workers.c_str(), nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "exec %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      std::_Exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    std::string line;
    char c;
    while (::read(out_fd_, &c, 1) == 1 && c != '\n') line.push_back(c);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0) {
      kill_now();
      throw std::runtime_error("ri_server did not report a port");
    }
    port_ = static_cast<std::uint16_t>(port);
  }

  ~ServerProcess() { kill_now(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM and wait: true when the server drained and exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    ::close(out_fd_);
    return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      ::close(out_fd_);
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// ri_server parses --seed as a signed 64-bit integer.
std::uint64_t realm_seed(const FixtureOptions& o) {
  return derive_seed(o.seed, o.rep, 1) >> 1;
}

class Acquire final : public Workload {
 public:
  explicit Acquire(const FixtureOptions& o)
      : server_(o.ri_server, realm_seed(o)), realm_(realm_seed(o)) {
    for (std::size_t i = 0; i < kGenerators; ++i) {
      Generator& g = generators_.emplace_back(derive_seed(o.seed, o.rep, 10 + i));
      provider::CryptoProvider& crypto =
          *provider_for(g.provider, o.traced, "agent");
      const std::string id = "dev:acquire-" + std::to_string(i);
      g.agent = std::make_unique<agent::DrmAgent>(
          id, realm_.ca().root_certificate(), crypto, g.rng, net::kRealmRsaBits);
      g.agent->provision(realm_.ca().issue(id, g.agent->public_key(),
                                           realm_.validity(), realm_.rng()));
      net::SocketTransport::Config tc;
      tc.port = server_.port();
      g.socket = std::make_unique<net::SocketTransport>(tc);
      roap::Transport* link = g.socket.get();
      if (o.traced) {
        g.traced = std::make_unique<trace::TracedTransport>(*link);
        link = g.traced.get();
      }
      g.counter = std::make_unique<ByteCounter>(*link);
      g.reliable = std::make_unique<roap::ReliableTransport>(
          *g.counter, policy_, g.retry_rng);
      if (!g.agent->register_with(*g.reliable, net::kRealmNow, policy_).ok()) {
        throw std::runtime_error("acquire: registration failed");
      }
    }
    for (std::size_t i = 0; i < kGenerators; ++i) {
      std::uint64_t bytes = 0;
      for (std::size_t k = 0; k < kWarmupPerAgent; ++k) {
        if (!op(i, bytes)) throw std::runtime_error("acquire: warm-up failed");
      }
    }
  }

  std::size_t threads() const override { return kGenerators; }
  pid_t server_pid() const override { return server_.pid(); }

  bool op(std::size_t thread, std::uint64_t& bytes) override {
    Generator& g = generators_[thread];
    const std::uint64_t before = g.counter->bytes();
    Result<roap::ProtectedRo> ro(StatusCode::kTransportFailure);
    {
      trace::Scope s(trace::kAgentAcquire);
      ro = g.agent->acquire_ro(*g.reliable, net::kRealmRiId, net::kRealmRoId,
                               net::kRealmNow, policy_);
    }
    if (!ro.ok() || ro->rights.ro_id != net::kRealmRoId) return false;
    agent::AgentStatus installed;
    {
      trace::Scope s(trace::kAgentInstall);
      installed = g.agent->install_ro(*ro, net::kRealmNow);
    }
    bytes += g.counter->bytes() - before;
    return installed == agent::AgentStatus::kOk &&
           g.agent->installed_ro(net::kRealmRoId) != nullptr;
  }

  void mark() override {
    for (Generator& g : generators_) {
      g.base_socket = g.socket->stats();
      g.base_reliable = g.reliable->stats();
    }
  }

  void layer_counters(std::map<std::string, double>& out,
                      double ops) const override {
    double attempts = 0, busy = 0, reconnects = 0, errors = 0;
    for (const Generator& g : generators_) {
      attempts += static_cast<double>(g.reliable->stats().attempts -
                                      g.base_reliable.attempts);
      busy += static_cast<double>(g.socket->stats().server_busy -
                                  g.base_socket.server_busy);
      reconnects += static_cast<double>(g.socket->stats().reconnects -
                                        g.base_socket.reconnects);
      errors += static_cast<double>(g.socket->stats().transport_errors -
                                    g.base_socket.transport_errors);
    }
    out["net.attempts_per_op"] = ops > 0 ? attempts / ops : 0;
    out["net.server_busy"] = busy;
    out["net.reconnects"] = reconnects;
    out["net.transport_errors"] = errors;
  }

  bool finish(std::string& why) override {
    bool ok = true;
    for (const Generator& g : generators_) {
      const net::SocketTransport::Stats& s = g.socket->stats();
      const roap::ReliableTransport::Stats& r = g.reliable->stats();
      if (s.transport_errors || s.server_refusals || s.server_busy ||
          s.reconnects || r.busy || r.retries || r.exhausted || r.timeouts) {
        why += "acquire: transport errors, refusals, busy frames, retries "
               "or reconnects on a quiet loopback; ";
        ok = false;
      }
    }
    for (Generator& g : generators_) g.socket->close();
    if (!server_.stop()) {
      why += "acquire: ri_server did not drain cleanly on SIGTERM; ";
      ok = false;
    }
    return ok;
  }

 private:
  struct Generator {
    explicit Generator(std::uint64_t seed) : rng(seed), retry_rng(seed ^ 1) {}
    DeterministicRng rng;
    DeterministicRng retry_rng;
    std::optional<trace::TracedProvider> provider;
    std::unique_ptr<agent::DrmAgent> agent;
    std::unique_ptr<net::SocketTransport> socket;
    std::unique_ptr<trace::TracedTransport> traced;
    std::unique_ptr<ByteCounter> counter;
    std::unique_ptr<roap::ReliableTransport> reliable;
    net::SocketTransport::Stats base_socket;
    roap::ReliableTransport::Stats base_reliable;
  };

  ServerProcess server_;
  net::Realm realm_;
  roap::RetryPolicy policy_;
  std::deque<Generator> generators_;  // stable addresses for the agents' rngs
};

}  // namespace

std::unique_ptr<Workload> make_acquire(const FixtureOptions& options) {
  return std::make_unique<Acquire>(options);
}

}  // namespace perfbench
