// Seeded chaos soak: a fleet of DRM Agents drives registrations, RO
// acquisitions, count-constrained consumption, and domain churn against
// one Rights Issuer through a FaultyTransport that drops, corrupts,
// replays, and reorders envelopes — while both ends' durable stores
// randomly refuse commits and agents are killed between handshake passes
// and rebuilt from their stores (DrmAgent::from_store).
//
// Every protocol operation runs under the fault-tolerant session driver
// (roap::RetryPolicy), and the soak asserts the driver's whole contract:
//
//   termination   every policy-driven session ends kOk or with a
//                 TERMINAL code (RetryPolicy::classify) — a retriable
//                 code leaking out of a driver is a violation;
//   no leaks      after a final TTL sweep the RI holds zero pending
//                 registration sessions, no matter how many handshakes
//                 were killed or lost mid-flight;
//   conservation  per agent, successful burns + remaining count equals
//                 the installed RO's initial count — replay-cache hits,
//                 resends, and store refusals never mint or lose grants;
//   reconcile     rebooting every agent via from_store reproduces the
//                 live agent's state, and a fresh RI bound to the same
//                 store agrees on the registered-device set.
//
// Determinism: the whole run is a pure function of the seed (one
// DeterministicRng drives key generation, fault draws, retry jitter and
// scheduling). On any violation the harness prints the seed and the
// exact command to replay it byte-for-byte, then exits 1.
//
// Usage: chaos_soak [--seed S | --seeds N] [--agents N] [--ops N]
//                   [--drop P] [--corrupt P] [--replay P] [--delay P]
//                   [--store-fail P] [--kill P] [--quick] [--socket]
//                   [--ri-store-dir DIR] [--failpoints SPEC]
//                   [--json <path>]
// Env:   CHAOS_SEED=S  equivalent to --seed S (CI replay hook).
//
// --socket swaps the in-process loopback for the real network stack: an
// in-process net::RiServer (ephemeral port, worker pool) wrapping the
// same RightsIssuer, with the FaultyTransport layered over a
// net::SocketTransport. Every drop/corrupt/replay/delay fault then
// happens against real framed-TCP exchanges — corrupted requests cross
// the wire and come back as server refusal frames — while the soak's
// invariants (termination, leaks, conservation, reconciliation) stay
// bit-for-bit the same contract. The server is drained before the final
// invariant sweep so the RI is quiescent when inspected.
//
// --ri-store-dir DIR swaps the RI's MemoryStore for a real sealed
// FileStore (one fresh subdirectory per seed) behind a GroupCommitStore,
// so every RI commit rides the journal + fsync path. --failpoints SPEC
// arms the deterministic failpoint registry (common/failpoint.h) with a
// "site=spec;site=spec" string before each seed — e.g.
// "store.journal.write=error-every-5:ENOSPC" makes every 5th journal
// append fail like a full disk. Injected store errors surface as refused
// commits, which the soak already treats as degraded-mode behavior; the
// failpoints are disarmed before the final invariant sweep (a healthy
// store is the precondition for the leak/reconcile checks, exactly as
// with fail_next_commits).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "dcf/dcf.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "store/file_store.h"
#include "store/group_commit_store.h"
#include "store/memory_store.h"
#include "store/state_store.h"

namespace {

using namespace omadrm;  // NOLINT
using agent::DrmAgent;

constexpr std::uint64_t kNow = 1100000000;

struct Options {
  std::uint64_t seed = 1;      // first (or only) seed
  std::size_t seeds = 5;       // how many consecutive seeds to run
  std::size_t agents = 64;
  std::size_t ops = 8;         // operations per agent per seed
  double drop = 0.05;
  double corrupt = 0.04;
  double replay = 0.03;
  double delay = 0.02;         // combined wire fault rate: 14%
  double store_fail = 0.05;    // per-op chance a store refuses its commit
  double kill = 0.05;          // per-op chance of a mid-handshake kill
  bool socket = false;         // faults over real framed TCP
  std::size_t workers = 2;     // server worker threads in --socket mode
  std::string ri_store_dir;    // non-empty: RI on a sealed FileStore
  std::string failpoints;      // non-empty: armed before every seed
  std::string json_path = "BENCH_chaos.json";
};

/// One uniform draw against probability `p` (seeded, 2^20 resolution).
bool chance(Rng& rng, double p) {
  if (p <= 0) return false;
  return static_cast<double>(rng.uniform(std::uint64_t{1} << 20)) /
             static_cast<double>(std::uint64_t{1} << 20) <
         p;
}

struct AgentSlot {
  std::string id;
  Bytes kdev;  // the hardware-held key, saved for from_store reboots
  std::unique_ptr<store::MemoryStore> store;
  std::unique_ptr<DrmAgent> dev;
  bool installed = false;
  std::uint32_t initial_count = 0;
  std::uint64_t burns = 0;
};

struct SeedTally {
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  std::uint64_t kills = 0;
  std::uint64_t reboots = 0;
  std::uint64_t store_faults_armed = 0;
  std::map<StatusCode, std::uint64_t> terminal;  // failures by code
};

class SeedRun {
 public:
  SeedRun(std::uint64_t seed, const Options& opt)
      : seed_(seed), opt_(opt), rng_(seed) {}

  /// Runs the soak for this seed; returns true when every invariant held.
  bool run();

  const SeedTally& tally() const { return tally_; }

 private:
  void violation(const char* what, const std::string& detail);
  /// Classifies a finished policy-driven session: kOk and terminal codes
  /// are legitimate ends; a retriable code means the driver gave up
  /// without converting it — the bug this soak exists to catch.
  void check_outcome(const char* op, const AgentSlot& slot, StatusCode code);
  void arm_store_faults(AgentSlot& slot);
  void kill_mid_handshake(AgentSlot& slot);
  void step(AgentSlot& slot);
  bool final_invariants(std::vector<AgentSlot>& fleet);

  std::uint64_t seed_;
  const Options& opt_;
  DeterministicRng rng_;
  SeedTally tally_;
  bool failed_ = false;

  pki::Validity validity_{kNow - 86400, kNow + 365 * 86400};
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ci::ContentIssuer> ci_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  // Exactly one of the two RI stores is live: the MemoryStore default,
  // or (--ri-store-dir) a sealed FileStore behind a GroupCommitStore.
  // ri_state_ points at whichever one the RI is bound to.
  std::unique_ptr<store::MemoryStore> ri_store_;
  std::unique_ptr<store::FileStore> ri_file_store_;
  std::unique_ptr<store::GroupCommitStore> ri_group_store_;
  store::StateStore* ri_state_ = nullptr;
  std::unique_ptr<roap::InProcessTransport> loopback_;
  // --socket mode: server + client transport, destroyed before the RI.
  std::unique_ptr<net::RiServer> server_;
  std::unique_ptr<net::SocketTransport> sock_;
  std::unique_ptr<roap::FaultyTransport> net_;
  dcf::Dcf dcf_;
  roap::RetryPolicy policy_;
};

void SeedRun::violation(const char* what, const std::string& detail) {
  failed_ = true;
  std::fprintf(stderr,
               "chaos_soak: INVARIANT VIOLATION [%s] %s\n"
               "  seed %" PRIu64
               " — replay this exact run with:\n"
               "    chaos_soak --seed %" PRIu64
               " --agents %zu --ops %zu --drop %g --corrupt %g --replay %g"
               " --delay %g --store-fail %g --kill %g\n"
               "  (or CHAOS_SEED=%" PRIu64 " with the same shape flags)\n",
               what, detail.c_str(), seed_, seed_, opt_.agents, opt_.ops,
               opt_.drop, opt_.corrupt, opt_.replay, opt_.delay,
               opt_.store_fail, opt_.kill, seed_);
  if (!opt_.ri_store_dir.empty() || !opt_.failpoints.empty()) {
    std::fprintf(stderr, "  plus:%s%s%s%s%s\n",
                 opt_.ri_store_dir.empty() ? "" : " --ri-store-dir ",
                 opt_.ri_store_dir.c_str(),
                 opt_.failpoints.empty() ? "" : " --failpoints \"",
                 opt_.failpoints.c_str(),
                 opt_.failpoints.empty() ? "" : "\"");
  }
}

void SeedRun::check_outcome(const char* op, const AgentSlot& slot,
                            StatusCode code) {
  ++tally_.ops;
  if (code == StatusCode::kOk) {
    ++tally_.ok;
    return;
  }
  ++tally_.terminal[code];
  if (roap::RetryPolicy::retriable(code)) {
    violation("termination", std::string(op) + " on " + slot.id +
                                 " ended with retriable code " +
                                 to_string(code) +
                                 " — the session driver leaked a transient");
  }
}

void SeedRun::arm_store_faults(AgentSlot& slot) {
  // File-backed RI stores fault through the failpoint registry instead
  // of fail_next_commits; the draw is still made so the rng stream (and
  // so every wire fault downstream) is identical across store backends.
  if (chance(rng_, opt_.store_fail) && ri_store_) {
    ri_store_->fail_next_commits(1);
    ++tally_.store_faults_armed;
  }
  if (chance(rng_, opt_.store_fail)) {
    slot.store->fail_next_commits(1);
    ++tally_.store_faults_armed;
  }
}

/// Kill-point between handshake passes: the agent sends its DeviceHello
/// (the RI now holds a pending session and a nonce for it), then dies
/// before the RegistrationRequest. The replacement process is rebuilt
/// from the durable store alone plus the hardware key.
void SeedRun::kill_mid_handshake(AgentSlot& slot) {
  ++tally_.kills;
  agent::RegistrationSession reg(*slot.dev, kNow);
  auto hello = reg.hello();
  if (hello.ok()) {
    try {
      (void)net_->request(*hello);
    } catch (const Error&) {
      // the hello itself may be lost; the kill happens either way
    }
  }
  auto rebooted = DrmAgent::from_store(*slot.store, slot.kdev,
                                       ca_->root_certificate(),
                                       provider::plain_provider(), rng_);
  if (!rebooted.ok()) {
    violation("reboot", slot.id + ": from_store failed after kill: " +
                            rebooted.describe());
    return;
  }
  slot.dev = std::make_unique<DrmAgent>(std::move(*rebooted));
  ++tally_.reboots;
}

void SeedRun::step(AgentSlot& slot) {
  arm_store_faults(slot);

  if (chance(rng_, opt_.kill)) {
    kill_mid_handshake(slot);
    return;
  }

  DrmAgent& dev = *slot.dev;
  if (!dev.has_ri_context(ri_->ri_id())) {
    check_outcome("register", slot,
                  dev.register_with(*net_, kNow, policy_).code());
    return;
  }

  const std::uint64_t pick = rng_.uniform(100);
  if (!slot.installed || pick < 15) {
    auto acq = dev.acquire_ro(*net_, ri_->ri_id(), "ro:soak", kNow, policy_);
    check_outcome("acquire", slot, acq.code());
    if (acq.ok() && !slot.installed) {
      // Install exactly once so the count budget is minted exactly once;
      // conservation is then: burns + remaining == initial, forever.
      const auto inst = dev.install_ro(*acq, kNow);
      if (inst == StatusCode::kOk) {
        slot.installed = true;
        auto rem = dev.remaining_count("ro:soak", rel::PermissionType::kPlay);
        if (!rem) {
          violation("conservation",
                    slot.id + ": installed count RO reports no count");
          return;
        }
        slot.initial_count = *rem;
      }
      // A refused install (agent store down) is fine: retried next round.
    }
  } else if (pick < 55) {
    if (slot.burns < slot.initial_count) {
      auto res = dev.consume(dcf_, rel::PermissionType::kPlay, kNow);
      if (res.status == StatusCode::kOk) ++slot.burns;
      // Refusals (store down) and denials (budget spent) are legitimate;
      // the final conservation check arbitrates.
    }
  } else if (pick < 75) {
    check_outcome(
        "join", slot,
        dev.join_domain(*net_, ri_->ri_id(), "domain:soak", kNow, policy_)
            .code());
  } else if (pick < 85 && dev.has_domain_key("domain:soak")) {
    check_outcome(
        "leave", slot,
        dev.leave_domain(*net_, ri_->ri_id(), "domain:soak", kNow, policy_)
            .code());
  } else {
    // Re-registration: a fresh handshake supersedes the old context and
    // exercises the RI's pending-session supersession sweep.
    check_outcome("re-register", slot,
                  dev.register_with(*net_, kNow, policy_).code());
  }

  // The network occasionally times out its reordering queue.
  if (chance(rng_, 0.2)) net_->discard_delayed();
}

bool SeedRun::final_invariants(std::vector<AgentSlot>& fleet) {
  // In socket mode, drain the server first: the invariant sweep below
  // inspects the RI directly and needs it quiescent.
  if (server_) server_->stop();

  // 1. No pending-session leaks: after the TTL passes, the sweep leaves
  // nothing behind — killed and abandoned handshakes all die. Heal the
  // store first: the fault injector arms "fail the NEXT commit" before
  // each op, and an op that never commits (RO issuing persists nothing,
  // a dropped request never reaches the RI) leaves it armed — a refused
  // sweep commit legitimately defers that shard's GC to a later sweep,
  // which is degraded-mode behavior, not a leak. Armed failpoints are
  // the file-backed equivalent and are disarmed for the same reason.
  if (ri_store_) ri_store_->fail_next_commits(0);
  failpoint::reset_all();
  net_->discard_delayed();
  (void)ri_->expire_pending_sessions(kNow + ri::kPendingSessionTtl + 1);
  if (ri_->pending_session_count() != 0) {
    violation("leak", std::to_string(ri_->pending_session_count()) +
                          " pending sessions survived the TTL sweep");
  }

  for (AgentSlot& slot : fleet) {
    // 2. Grant conservation: burns + remaining == initial.
    if (slot.installed) {
      auto rem =
          slot.dev->remaining_count("ro:soak", rel::PermissionType::kPlay);
      if (!rem) {
        violation("conservation", slot.id + ": installed RO vanished");
        continue;
      }
      if (slot.burns + *rem != slot.initial_count) {
        violation("conservation",
                  slot.id + ": burns " + std::to_string(slot.burns) +
                      " + remaining " + std::to_string(*rem) +
                      " != initial " + std::to_string(slot.initial_count));
      }
    }

    // 3. Store reconciliation: a reboot from the durable store alone
    // reproduces the live agent.
    auto rebooted = DrmAgent::from_store(*slot.store, slot.kdev,
                                         ca_->root_certificate(),
                                         provider::plain_provider(), rng_);
    if (!rebooted.ok()) {
      violation("reconcile",
                slot.id + ": from_store failed: " + rebooted.describe());
      continue;
    }
    if (rebooted->has_ri_context(ri_->ri_id()) !=
        slot.dev->has_ri_context(ri_->ri_id())) {
      violation("reconcile", slot.id + ": RI context differs after reboot");
    }
    if (slot.installed) {
      auto live =
          slot.dev->remaining_count("ro:soak", rel::PermissionType::kPlay);
      auto back =
          rebooted->remaining_count("ro:soak", rel::PermissionType::kPlay);
      if (!back || !live || *back != *live) {
        violation("reconcile", slot.id + ": burned count differs after reboot");
      }
    }
  }

  // 4. RI/agent agreement: a fresh RI process bound to the same store
  // sees the same registered-device set as the live instance.
  ri::RightsIssuer twin(ri_->ri_id(), ri_->url(), *ca_, validity_,
                        provider::plain_provider(), rng_);
  auto bound = twin.bind_store(*ri_state_);
  if (!bound.ok()) {
    violation("reconcile", "RI twin bind_store failed: " + bound.describe());
  } else {
    for (const AgentSlot& slot : fleet) {
      if (twin.is_registered(slot.id) != ri_->is_registered(slot.id)) {
        violation("reconcile",
                  slot.id + ": registration differs between live RI and "
                            "store-rebuilt twin");
      }
    }
  }
  return !failed_;
}

bool SeedRun::run() {
  ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                      validity_, rng_);
  ci_ = std::make_unique<ci::ContentIssuer>(
      "content.example", provider::plain_provider(), rng_);
  ri_ = std::make_unique<ri::RightsIssuer>("ri:soak", "http://ri/soak", *ca_,
                                           validity_,
                                           provider::plain_provider(), rng_);
  if (opt_.ri_store_dir.empty()) {
    ri_store_ = std::make_unique<store::MemoryStore>();
    ri_state_ = ri_store_.get();
  } else {
    // One fresh sealed FileStore per seed: a stale journal from an
    // earlier run would otherwise pre-register half the fleet.
    const std::string dir =
        opt_.ri_store_dir + "/seed-" + std::to_string(seed_);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    store::FileStore::Options fo;
    fo.recover_torn_tail = true;
    ri_file_store_ = std::make_unique<store::FileStore>(
        dir,
        store::derive_storage_key(
            to_bytes("chaos-ri:" + std::to_string(seed_))),
        fo);
    ri_group_store_ = std::make_unique<store::GroupCommitStore>(
        *ri_file_store_);
    ri_state_ = ri_group_store_.get();
  }
  if (auto bound = ri_->bind_store(*ri_state_); !bound.ok()) {
    violation("setup", "RI bind_store: " + bound.describe());
    return false;
  }
  if (!opt_.failpoints.empty()) {
    try {
      failpoint::arm_from_spec(opt_.failpoints);
    } catch (const Error& e) {
      violation("setup", std::string("bad --failpoints: ") + e.what());
      return false;
    }
  }
  ri_->create_domain("domain:soak", /*max_members=*/16);

  Bytes content = rng_.bytes(1500);
  dcf::Headers headers;
  headers.content_type = "audio/mpeg";
  headers.content_id = "cid:soak@content.example";
  headers.rights_issuer_url = ri_->url();
  dcf_ = ci_->package(headers, content);

  ri::LicenseOffer offer;
  offer.ro_id = "ro:soak";
  offer.content_id = headers.content_id;
  offer.dcf_hash = dcf_.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  play.constraint.count = 5;
  offer.permissions = {play};
  offer.kcek = *ci_->kcek_for(headers.content_id);
  ri_->add_offer(offer);

  if (opt_.socket) {
    // The real network stack wrapping the same RI: an in-process server
    // on an ephemeral port, and the fault injector over framed TCP.
    net::RiServer::Config sc;
    sc.now = kNow;
    sc.workers = opt_.workers;
    server_ = std::make_unique<net::RiServer>(*ri_, sc);
    try {
      server_->start();
    } catch (const Error& e) {
      violation("setup", std::string("RiServer start: ") + e.what());
      return false;
    }
    net::SocketTransport::Config tc;
    tc.port = server_->port();
    sock_ = std::make_unique<net::SocketTransport>(tc);
    net_ = std::make_unique<roap::FaultyTransport>(*sock_, rng_);
  } else {
    loopback_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
    net_ = std::make_unique<roap::FaultyTransport>(*loopback_, rng_);
  }
  net_->set_drop_rate(opt_.drop);
  net_->set_corrupt_rate(opt_.corrupt);
  net_->set_replay_rate(opt_.replay);
  net_->set_delay_rate(opt_.delay);

  // Enough budget to ride out the configured fault rates; virtual clock,
  // so the backoffs cost nothing real.
  policy_.max_attempts = 8;
  policy_.deadline_ms = 0;
  policy_.base_backoff_ms = 1;
  policy_.max_backoff_ms = 16;
  policy_.max_restarts = 2;

  std::vector<AgentSlot> fleet(opt_.agents);
  for (std::size_t i = 0; i < opt_.agents; ++i) {
    AgentSlot& slot = fleet[i];
    slot.id = "dev:soak-" + std::to_string(i);
    slot.store = std::make_unique<store::MemoryStore>();
    slot.dev = std::make_unique<DrmAgent>(slot.id, ca_->root_certificate(),
                                          provider::plain_provider(), rng_);
    slot.dev->provision(
        ca_->issue(slot.id, slot.dev->public_key(), validity_, rng_));
    if (auto bound = slot.dev->bind_store(*slot.store); !bound.ok()) {
      violation("setup", slot.id + " bind_store: " + bound.describe());
      return false;
    }
    slot.kdev = slot.dev->device_key();
  }

  for (std::size_t op = 0; op < opt_.ops && !failed_; ++op) {
    for (AgentSlot& slot : fleet) {
      step(slot);
      if (failed_) break;
    }
  }
  if (failed_) return false;
  return final_invariants(fleet);
}

void print_tally(std::uint64_t seed, const SeedTally& t, bool clean) {
  std::printf("seed %-12" PRIu64 " %s  ops %-5" PRIu64 " ok %-5" PRIu64
              " kills %-3" PRIu64 " reboots %-3" PRIu64
              " store-faults %-3" PRIu64 "\n",
              seed, clean ? "CLEAN  " : "FAILED ", t.ops, t.ok, t.kills,
              t.reboots, t.store_faults_armed);
  for (const auto& [code, n] : t.terminal) {
    std::printf("    terminal %-20s x%" PRIu64 "\n", to_string(code), n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool single_seed = false;
  if (const char* env = std::getenv("CHAOS_SEED")) {
    opt.seed = std::strtoull(env, nullptr, 10);
    single_seed = true;
  }
  for (int i = 1; i < argc; ++i) {
    auto num = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    auto rate = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::strtod(argv[++i], nullptr);
      return true;
    };
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--seed") == 0 && num(opt.seed)) {
      single_seed = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && num(v)) {
      opt.seeds = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--agents") == 0 && num(v)) {
      opt.agents = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--ops") == 0 && num(v)) {
      opt.ops = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--drop") == 0 && rate(opt.drop)) {
    } else if (std::strcmp(argv[i], "--corrupt") == 0 && rate(opt.corrupt)) {
    } else if (std::strcmp(argv[i], "--replay") == 0 && rate(opt.replay)) {
    } else if (std::strcmp(argv[i], "--delay") == 0 && rate(opt.delay)) {
    } else if (std::strcmp(argv[i], "--store-fail") == 0 &&
               rate(opt.store_fail)) {
    } else if (std::strcmp(argv[i], "--kill") == 0 && rate(opt.kill)) {
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      opt.socket = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && num(v)) {
      opt.workers = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.agents = 8;
      opt.seeds = 2;
      opt.ops = 5;
    } else if (std::strcmp(argv[i], "--ri-store-dir") == 0 && i + 1 < argc) {
      opt.ri_store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--failpoints") == 0 && i + 1 < argc) {
      opt.failpoints = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--seed S | --seeds N] [--agents N] [--ops N]\n"
          "          [--drop P] [--corrupt P] [--replay P] [--delay P]\n"
          "          [--store-fail P] [--kill P] [--quick] [--socket]\n"
          "          [--workers N] [--ri-store-dir DIR]\n"
          "          [--failpoints \"site=spec;site=spec\"] [--json <path>]\n",
          argv[0]);
      return 2;
    }
  }
  if (single_seed) opt.seeds = 1;

  std::printf("chaos soak: %zu seed(s) from %" PRIu64
              ", %zu agents x %zu ops, faults drop=%g corrupt=%g replay=%g "
              "delay=%g store-fail=%g kill=%g, transport=%s\n",
              opt.seeds, opt.seed, opt.agents, opt.ops, opt.drop, opt.corrupt,
              opt.replay, opt.delay, opt.store_fail, opt.kill,
              opt.socket ? "framed-tcp" : "in-process");
  if (!opt.ri_store_dir.empty()) {
    std::printf("RI store: sealed FileStore under %s (one dir per seed)\n",
                opt.ri_store_dir.c_str());
  }
  if (!opt.failpoints.empty()) {
    std::printf("failpoints: %s\n", opt.failpoints.c_str());
  }

  std::size_t clean = 0;
  std::uint64_t total_ops = 0, total_ok = 0, total_kills = 0;
  for (std::size_t i = 0; i < opt.seeds; ++i) {
    const std::uint64_t seed = opt.seed + i;
    SeedRun run(seed, opt);
    bool ok = false;
    try {
      ok = run.run();
    } catch (const std::exception& e) {
      // A store so broken that even fixture setup cannot commit (e.g.
      // --failpoints error-every-1) fails the seed instead of the
      // process.
      std::fprintf(stderr, "chaos_soak: seed %" PRIu64 " aborted: %s\n",
                   seed, e.what());
    }
    print_tally(seed, run.tally(), ok);
    if (ok) ++clean;
    total_ops += run.tally().ops;
    total_ok += run.tally().ok;
    total_kills += run.tally().kills;
  }

  std::ofstream json(opt.json_path);
  if (json) {
    json << "{\n  \"bench\": \"chaos_soak\",\n"
         << "  \"ri_store\": \""
         << (opt.ri_store_dir.empty() ? "memory" : "file") << "\",\n"
         << "  \"failpoints\": \"" << opt.failpoints << "\",\n"
         << "  \"seeds\": " << opt.seeds << ",\n  \"first_seed\": " << opt.seed
         << ",\n  \"agents\": " << opt.agents << ",\n  \"ops\": " << opt.ops
         << ",\n  \"total_ops\": " << total_ops
         << ",\n  \"ok_ops\": " << total_ok
         << ",\n  \"kills\": " << total_kills
         << ",\n  \"clean_seeds\": " << clean << "\n}\n";
  }

  if (clean != opt.seeds) {
    std::fprintf(stderr, "chaos soak: %zu/%zu seeds FAILED\n",
                 opt.seeds - clean, opt.seeds);
    return 1;
  }
  std::printf("chaos soak: all %zu seed(s) clean (%" PRIu64 "/%" PRIu64
              " ops ok)\n",
              clean, total_ok, total_ops);
  return 0;
}
