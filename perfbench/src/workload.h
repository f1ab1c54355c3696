// The four Table-1 use cases as closed-loop workloads.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <string>

#include "measure.h"
#include "roap/transport.h"
#include "store/file_store.h"
#include "store/group_commit_store.h"
#include "trace.h"

namespace omadrm::ri {
class RightsIssuer;
}

namespace perfbench {

/// ri_server worker threads in `acquire`: with its 2 generator threads
/// the load stays within a 4-vCPU host.
inline constexpr std::size_t kAcquireServerWorkers = 2;

struct FixtureOptions {
  std::uint64_t seed = 0;
  std::size_t rep = 0;        // set-up repetition; varies the derived inputs
  bool traced = false;        // build the traced decorators
  std::string state_dir;      // fresh per fixture; holds the sealed stores
  std::string ri_server;      // daemon binary (acquire only)
};

/// A set-up fixture: constructed (including its fixed-count warm-up) by
/// make_workload, then driven by run_window through op().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t threads() const { return 1; }
  /// One op, verified; see OpFn.
  virtual bool op(std::size_t thread, std::uint64_t& bytes) = 0;
  /// Starts the window whose layer counters layer_counters() reports.
  virtual void mark() {}
  /// Counters the workload keeps outside spans (net stats, burns),
  /// accumulated since mark().
  virtual void layer_counters(std::map<std::string, double>& out,
                              double ops) const {
    (void)out;
    (void)ops;
  }
  virtual pid_t server_pid() const { return -1; }
  /// End-of-run checks (transport counters, server drain). Returns false
  /// with a reason when one fails. Called once.
  virtual bool finish(std::string& why) {
    (void)why;
    return true;
  }
};

std::unique_ptr<Workload> make_acquire(const FixtureOptions& options);
std::unique_ptr<Workload> make_register(const FixtureOptions& options);
std::unique_ptr<Workload> make_music(const FixtureOptions& options);
std::unique_ptr<Workload> make_ringtone(const FixtureOptions& options);

/// Derives an independent 64-bit stream seed from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::size_t rep,
                          std::uint64_t stream);

/// The provider an entity is handed: the plain one, or in the traced run
/// a TracedProvider over it constructed in `slot`.
omadrm::provider::CryptoProvider* provider_for(
    std::optional<trace::TracedProvider>& slot, bool traced,
    std::string_view side);

/// The in-process ROAP link: the request's wire bytes are parsed into the
/// envelope the RI handles and the response's wire bytes into the
/// envelope the agent receives, as on either end of the socket path.
class WireTransport final : public omadrm::roap::Transport {
 public:
  WireTransport(omadrm::ri::RightsIssuer& ri, std::uint64_t now)
      : ri_(ri), now_(now) {}
  omadrm::roap::Envelope request(const omadrm::roap::Envelope& request) override;
  std::uint64_t wire_bytes() const { return wire_bytes_; }

 private:
  omadrm::ri::RightsIssuer& ri_;
  std::uint64_t now_;
  std::uint64_t wire_bytes_ = 0;
};

/// A sealed FileStore in the fixture's state directory, written without
/// fsync so the benchmark measures the store's own work and not the
/// host's disk. With `group_commit` the entity commits through a
/// GroupCommitStore, as ri_server binds its RI. In the traced run the
/// front (store.commit) and backing (store.backing) commits are spans.
class StoreChain {
 public:
  StoreChain(const std::string& directory, const omadrm::Bytes& storage_key,
             bool group_commit, bool traced);
  omadrm::store::StateStore& front() { return *front_; }

 private:
  omadrm::store::FileStore file_;
  std::unique_ptr<trace::TracedStore> backing_traced_;
  std::unique_ptr<omadrm::store::GroupCommitStore> group_;
  std::unique_ptr<trace::TracedStore> front_traced_;
  omadrm::store::StateStore* front_ = nullptr;
};

}  // namespace perfbench
