// ri_server: standalone Rights Issuer daemon speaking framed ROAP over
// TCP (src/net/frame.h layout).
//
// The PKI realm is regenerated from --seed (net::Realm), so any client
// process constructed from the same seed trusts this server's RI chain
// and can mint device certificates this server accepts — deterministic
// cross-process trust with zero key files.
//
// Prints exactly one line to stdout once ready:
//
//   LISTENING <port>
//
// (ephemeral --port 0 is resolved by then), which is what the fleet
// bench and the CI smoke step parse. SIGINT/SIGTERM trigger a graceful
// drain: stop accepting, answer everything already accepted, flush,
// exit 0. A second signal exits immediately.
//
// Overload/robustness knobs: --max-queue-depth / --max-inflight /
// --max-outbox-bytes / --read-progress-timeout-ms map straight onto
// RiServer::Config (0 disables each cap). --store-dir persists the RI's
// state in a FileStore under that directory (wrapped in a
// GroupCommitStore — the RI commits from every shard concurrently), so
// a kill -9 mid-burn restarts with grants intact. --failpoint SITE=SPEC
// (repeatable) arms deterministic fault injection (common/failpoint.h);
// the OMADRM_FAILPOINTS environment variable works too and composes.
//
// Usage:
//   ri_server [--port N] [--host A] [--workers N] [--max-connections N]
//             [--idle-timeout-ms N] [--drain-timeout-ms N] [--seed N]
//             [--max-queue-depth N] [--max-inflight N]
//             [--max-outbox-bytes N] [--read-progress-timeout-ms N]
//             [--store-dir DIR] [--failpoint SITE=SPEC]... [--stats]
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "net/realm.h"
#include "net/server.h"
#include "store/file_store.h"
#include "store/group_commit_store.h"
#include "store/state_store.h"

namespace {

volatile std::sig_atomic_t g_signals = 0;

void on_signal(int) { ++g_signals; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host A] [--workers N] "
               "[--max-connections N] [--idle-timeout-ms N] "
               "[--drain-timeout-ms N] [--seed N] [--max-queue-depth N] "
               "[--max-inflight N] [--max-outbox-bytes N] "
               "[--read-progress-timeout-ms N] [--store-dir DIR] "
               "[--failpoint SITE=SPEC]... [--stats]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omadrm;  // NOLINT

  net::RiServer::Config config;
  config.now = net::kRealmNow;
  std::uint64_t seed = net::kDefaultRealmSeed;
  bool print_stats = false;
  std::string store_dir;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      config.port = static_cast<std::uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      config.bind_address = next("--host");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      config.workers = static_cast<std::size_t>(std::atoi(next("--workers")));
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      config.max_connections =
          static_cast<std::size_t>(std::atoi(next("--max-connections")));
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      config.idle_timeout_ms =
          static_cast<std::uint64_t>(std::atoll(next("--idle-timeout-ms")));
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0) {
      config.drain_timeout_ms =
          static_cast<std::uint64_t>(std::atoll(next("--drain-timeout-ms")));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--max-queue-depth") == 0) {
      config.max_queue_depth =
          static_cast<std::size_t>(std::atoll(next("--max-queue-depth")));
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      config.max_inflight_per_conn =
          static_cast<std::size_t>(std::atoll(next("--max-inflight")));
    } else if (std::strcmp(argv[i], "--max-outbox-bytes") == 0) {
      config.max_outbox_bytes =
          static_cast<std::size_t>(std::atoll(next("--max-outbox-bytes")));
    } else if (std::strcmp(argv[i], "--read-progress-timeout-ms") == 0) {
      config.read_progress_timeout_ms = static_cast<std::uint64_t>(
          std::atoll(next("--read-progress-timeout-ms")));
    } else if (std::strcmp(argv[i], "--store-dir") == 0) {
      store_dir = next("--store-dir");
    } else if (std::strcmp(argv[i], "--failpoint") == 0) {
      try {
        failpoint::arm_from_spec(next("--failpoint"));
      } catch (const Error& e) {
        std::fprintf(stderr, "ri_server: bad --failpoint: %s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  net::Realm realm(seed);

  // Durable RI state (config-time: before start(), before any traffic).
  // The sealing key is derived from the realm seed so a restarted server
  // with the same seed can decrypt what its predecessor persisted; the
  // GroupCommitStore wrapper makes the FileStore safe for the RI's
  // from-every-shard concurrent commits. Binding replays any existing
  // journal — a post-crash restart resumes with grants intact.
  std::unique_ptr<store::FileStore> file_store;
  std::unique_ptr<store::GroupCommitStore> group_store;
  if (!store_dir.empty()) {
    const std::string key_seed = "ri-server:" + std::to_string(seed);
    store::FileStore::Options store_opts;
    // The daemon owns its store directory (not an attacker's splice), so
    // a torn trailing frame — the kill-mid-append artifact — is dropped
    // on reboot instead of refusing to start.
    store_opts.recover_torn_tail = true;
    file_store = std::make_unique<store::FileStore>(
        store_dir, store::derive_storage_key(to_bytes(key_seed)), store_opts);
    group_store = std::make_unique<store::GroupCommitStore>(*file_store);
    const Result<> bound = realm.issuer().bind_store(*group_store);
    if (!bound.ok()) {
      std::fprintf(stderr, "ri_server: bind_store(%s) failed: %s\n",
                   store_dir.c_str(), bound.context().c_str());
      return 1;
    }
  }

  net::RiServer server(realm.issuer(), config);
  try {
    server.start();
  } catch (const Error& e) {
    std::fprintf(stderr, "ri_server: start failed: %s\n", e.what());
    return 1;
  }

  std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (g_signals == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  if (print_stats) {
    const net::RiServer::Stats& st = server.stats();
    std::fprintf(stderr,
                 "ri_server: accepted=%llu rejected=%llu closed=%llu "
                 "idle_closed=%llu frames_in=%llu served=%llu refusals=%llu "
                 "desyncs=%llu shed=%llu slow_reader=%llu stalled=%llu\n",
                 static_cast<unsigned long long>(st.accepted.load()),
                 static_cast<unsigned long long>(st.rejected.load()),
                 static_cast<unsigned long long>(st.closed.load()),
                 static_cast<unsigned long long>(st.idle_closed.load()),
                 static_cast<unsigned long long>(st.frames_in.load()),
                 static_cast<unsigned long long>(st.served.load()),
                 static_cast<unsigned long long>(st.refusals.load()),
                 static_cast<unsigned long long>(st.frame_desyncs.load()),
                 static_cast<unsigned long long>(st.shed.load()),
                 static_cast<unsigned long long>(st.slow_reader_closed.load()),
                 static_cast<unsigned long long>(st.stalled_closed.load()));
    // Per-shard breakdown (exchanges, lock contention, replay hit rates)
    // so "which shard is hot" is observable, not inferred. Format owned
    // by net::format_issuer_stats and covered by test_net.
    std::fputs(net::format_issuer_stats(realm.issuer()).c_str(), stderr);
  }
  return 0;
}
