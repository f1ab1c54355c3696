// Session-level ROAP benchmark: one 4-pass registration followed by N
// 2-pass RO acquisitions against a 3-certificate chain
// (RI <- intermediate CA <- root), with and without a stored RI Context.
// Every exchange crosses the serialized transport boundary
// (roap::Envelope through roap::InProcessTransport), the same path
// production traffic takes.
//
// Reported:
//
//   registration cold (first) and warm (repeat) 4-pass registration.
//                registration.warm_ctx_builds counts the Montgomery
//                contexts the warm one built: both ends reuse the
//                certificates they hold, so it is 0, and
//                scripts/check_bench_regression.py fails otherwise.
//   modes        cached / uncached_no_context, the paper's §2.4.1
//                story: the RI Context, with the chain verdict held
//                beside it, amortizes certificate-chain verification.
//                uncached_no_context re-registers before every
//                acquisition (both ends revalidating the verdicts they
//                hold).
//   latency      p50/p95 over the per-exchange latencies of the cached
//                mode and of the multi_agent block, alongside the averages.
//   per-stage    microbenchmarks of each wire-path stage on captured
//                traffic — serialize / parse / base64 / sha1 / wrap /
//                from_wire — plus the RSA sign/verify legs (median
//                call of the fastest block), so the cost split between crypto and message
//                handling is explicit instead of inferred. chain_walk
//                is one ChainVerifier::verify of the 2-link RI chain:
//                what each held verdict saves per revalidation.
//   allocations  a global operator-new counter. The wire path
//                (streaming serialize into reused buffers, zero-copy
//                arena parse, pooled envelopes) must perform ZERO heap
//                allocations per operation at steady state, and the RSA
//                legs at most one (pss_sign's returned signature) — the
//                bench asserts both and exits nonzero on regression. The
//                full exchange count (message structs, sessions) is
//                reported, and scripts/check_bench_regression.py caps it
//                at the baseline's.
//   multi_agent  64 agents x 1 RI, driven round-robin from ONE thread
//                through the in-process envelope dispatch: the RI's
//                serial exchange rate over many device keys (the fastest
//                of 5 blocks of acquisitions). There is no concurrency
//                and no fan-in. ctx_builds counts the Montgomery
//                contexts its acquisitions built: every key keeps its
//                own, so it is 0 for any number of agents, and
//                scripts/check_bench_regression.py fails otherwise.
//
// Output: human-readable summary on stdout + JSON (default
// BENCH_roap.json) so the perf trajectory is tracked across PRs. The
// JSON records the host (nproc, CPU flags, build type) and whether the
// BMI2/ADX Montgomery kernels ran (config.mont_accel);
// scripts/check_bench_regression.py gates per_stage_us.pss_sign when the
// baseline ran the same back end. config.mont_backend names the path the
// private-key ops took ("portable", "adx", or "ifma_x2" for the AVX-512
// IFMA dual exponentiation) and config.mont_public_backend the one the
// 1024-bit public-key ops took ("portable" or "adx"); both are
// informational, not gated.
//
// Usage: bench_roap_session [--quick] [--json <path>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "bigint/mont_accel.h"
#include "bigint/montgomery.h"
#include "common/base64.h"
#include "common/random.h"
#include "crypto/sha1.h"
#include "pki/authority.h"
#include "pki/chain.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "rsa/pss.h"
#include "rsa/rsa.h"
#include "xml/node.h"
#include "host_facts.h"
#include "xml/writer.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new in the process bumps it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace omadrm;  // NOLINT

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t allocs_now() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

constexpr std::uint64_t kNow = 1100000000;
constexpr std::size_t kRsaBits = 1024;

struct Percentiles {
  double p50 = 0;
  double p95 = 0;
};

Percentiles percentiles(std::vector<double>& samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = samples[samples.size() / 2];
  out.p95 = samples[std::min(samples.size() - 1,
                             samples.size() * 95 / 100)];
  return out;
}

struct ModeResult {
  double full_ms_avg = 0;
  double verify_ms_avg = 0;
  Percentiles full_ms;
  double allocs_per_exchange = 0;
};

struct Session {
  DeterministicRng rng{0xBE7C4};
  pki::Validity validity{kNow - 86400, kNow + 365 * 86400};
  pki::CertificationAuthority ca{"CMLA Root", kRsaBits, validity, rng};
  pki::SubordinateAuthority ica{"CMLA Intermediate", kRsaBits, ca, validity,
                                rng};
  provider::PlainCryptoProvider provider;
  ri::RightsIssuer ri{"ri:bench", "http://ri.bench/roap", ca, validity,
                      provider, rng, &ica, kRsaBits};
  roap::InProcessTransport transport{ri, kNow};
  agent::DrmAgent device{"dev:bench", ca.root_certificate(), provider, rng,
                         kRsaBits};

  Session() {
    device.provision(
        ca.issue("dev:bench", device.public_key(), validity, rng));
    ri::LicenseOffer offer;
    offer.ro_id = "ro:bench";
    offer.content_id = "cid:bench@content";
    offer.dcf_hash = Bytes(20, 0xab);
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = rng.bytes(16);
    ri.add_offer(offer);
  }
};

/// One RO acquisition per iteration over the serialized transport, with
/// the agent-side verification hot path (context revalidation + response
/// verification, i.e. AcquisitionSession::conclude on the already-parsed
/// message) timed separately from the full exchange.
ModeResult run_acquisitions(Session& s, std::size_t iterations) {
  ModeResult out;
  out.full_ms.p50 = 0;
  std::vector<double> latencies;
  latencies.reserve(iterations);
  const std::uint64_t allocs_start = allocs_now();
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto full_start = Clock::now();

    // Request building (context check + device RSASSA-PSS sign), the wire
    // round trip, and the RI's server-side handling are part of the full
    // exchange.
    agent::AcquisitionSession session(s.device, "ri:bench", "ro:bench",
                                      kNow);
    auto request_env = session.request();
    if (!request_env.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i,
                   request_env.describe().c_str());
      std::exit(1);
    }
    roap::Envelope response_env = s.transport.request(*request_env);
    roap::RoResponse response = response_env.open<roap::RoResponse>();

    const auto verify_start = Clock::now();
    auto result = session.conclude(response);
    out.verify_ms_avg += ms_since(verify_start);

    const double full = ms_since(full_start);
    out.full_ms_avg += full;
    latencies.push_back(full);
    if (!result.ok()) {
      std::fprintf(stderr, "acquisition %zu failed: %s\n", i,
                   result.describe().c_str());
      std::exit(1);
    }
  }
  out.allocs_per_exchange =
      static_cast<double>(allocs_now() - allocs_start) /
      static_cast<double>(iterations);
  out.full_ms_avg /= static_cast<double>(iterations);
  out.verify_ms_avg /= static_cast<double>(iterations);
  out.full_ms = percentiles(latencies);
  return out;
}

/// The no-persistence baseline: every acquisition pays a full 4-pass
/// registration first, because without a stored (and still-valid) RI
/// Context the device may not start the 2-pass protocol.
double run_acquisitions_no_context(Session& s, std::size_t iterations) {
  double total_ms = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto start = Clock::now();
    if (!s.device.register_with(s.transport, kNow).ok()) {
      std::fprintf(stderr, "re-registration %zu failed\n", i);
      std::exit(1);
    }
    auto result = s.device.acquire_ro(s.transport, "ri:bench", "ro:bench",
                                      kNow);
    total_ms += ms_since(start);
    if (!result.ok()) {
      std::fprintf(stderr, "no-context acquisition %zu failed: %s\n", i,
                   result.describe().c_str());
      std::exit(1);
    }
  }
  return total_ms / static_cast<double>(iterations);
}

// ---------------------------------------------------------------------------
// Per-stage breakdown on captured traffic.
// ---------------------------------------------------------------------------

struct Stage {
  const char* name;
  double us_per_op = 0;
  double allocs_per_op = 0;
};

template <typename Fn>
Stage run_stage(const char* name, std::size_t iters, Fn&& fn) {
  // Warm-up pass so pools/arenas/buffer capacities settle before both
  // the timer and the allocation counter start.
  fn();
  fn();
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  Stage s;
  s.name = name;
  s.us_per_op = ms_since(t0) * 1000.0 / static_cast<double>(iters);
  s.allocs_per_op = static_cast<double>(allocs_now() - a0) /
                    static_cast<double>(iters);
  return s;
}

// A shared host has slow spells of up to a few hundred milliseconds that
// stretch everything inside them by a third. The two figures the
// regression gate reads (the RSA-sign median and the fleet rate) are
// therefore taken as the best of kBlocks blocks spaced kBlockGap apart:
// a spell moves some blocks, a code regression moves all of them.
constexpr int kBlocks = 5;

// Most heap allocations a pss_sign or pss_verify call may make: the
// signature buffer it returns.
constexpr double kRsaStageAllocs = 1.0;
constexpr auto kBlockGap = std::chrono::milliseconds(100);

// The RSA legs: each call is tens of microseconds, long enough to time
// alone, so a block reports its median call.
template <typename Fn>
Stage run_stage_best_median(const char* name, std::size_t calls_per_block,
                            Fn&& fn) {
  fn();
  fn();
  std::vector<double> us(calls_per_block);
  std::uint64_t allocs = 0;
  Stage s;
  s.name = name;
  for (int b = 0; b < kBlocks; ++b) {
    if (b > 0) std::this_thread::sleep_for(kBlockGap);
    const std::uint64_t a0 = allocs_now();
    for (double& u : us) {
      const auto t0 = Clock::now();
      fn();
      u = ms_since(t0) * 1000.0;
    }
    allocs += allocs_now() - a0;
    const double median = percentiles(us).p50;
    if (b == 0 || median < s.us_per_op) s.us_per_op = median;
  }
  s.allocs_per_op = static_cast<double>(allocs) /
                    static_cast<double>(kBlocks * calls_per_block);
  return s;
}

struct StageBreakdown {
  Stage serialize, parse, b64, sha1, wrap, from_wire, open, sign, verify,
      chain_walk;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// Captures one request/response exchange, then times each wire-path
/// stage in isolation on the captured documents. The wire stages
/// (serialize, parse, wrap, from_wire) must be allocation-free at steady
/// state; the caller asserts on the reported counts.
StageBreakdown run_stage_breakdown(Session& s, std::size_t iters) {
  StageBreakdown out;

  // Capture a live exchange.
  agent::AcquisitionSession session(s.device, "ri:bench", "ro:bench", kNow);
  auto request_env = session.request();
  if (!request_env.ok()) {
    std::fprintf(stderr, "stage capture failed\n");
    std::exit(1);
  }
  roap::Envelope response_env = s.transport.request(*request_env);
  const roap::RoRequest request = request_env->open<roap::RoRequest>();
  const roap::RoResponse response = response_env.open<roap::RoResponse>();
  const std::string request_wire = request_env->wire();
  const std::string response_wire = response_env.wire();
  out.request_bytes = request_wire.size();
  out.response_bytes = response_wire.size();

  // Wire stages on reused buffers — the steady state of the transport.
  std::string buf;
  out.serialize = run_stage("serialize", iters, [&] {
    xml::Writer w(buf);
    response.write(w);
  });
  xml::Arena arena;
  out.parse = run_stage("parse", iters, [&] {
    arena.reset();
    (void)xml::parse_in(arena, response_wire);
  });
  const Bytes blob = to_bytes(response_wire);
  std::string b64_buf;
  Bytes decode_buf;
  out.b64 = run_stage("base64", iters, [&] {
    b64_buf.clear();
    base64_encode_into(blob, b64_buf);
    decode_buf.clear();
    base64_decode_into(b64_buf, decode_buf);
  });
  const Bytes payload = response.payload();
  out.sha1 = run_stage("sha1", iters, [&] {
    (void)crypto::Sha1::hash(payload);
  });
  out.wrap = run_stage("wrap", iters, [&] {
    (void)roap::Envelope::wrap(response);
  });
  out.from_wire = run_stage("from_wire", iters, [&] {
    (void)roap::Envelope::from_wire(response_wire);
  });
  out.open = run_stage("open", iters, [&] {
    (void)response_env.open<roap::RoResponse>();
  });

  // The RSA legs, on a key of the deployed size.
  DeterministicRng rng{0x51A9E};
  rsa::PrivateKey key = rsa::generate_key(kRsaBits, rng);
  const rsa::PublicKey pub = key.public_key();
  // The same count in quick and full runs (the gate compares the two).
  const std::size_t rsa_calls = 401;
  out.sign = run_stage_best_median("pss_sign", rsa_calls, [&] {
    (void)rsa::pss_sign(key, payload, rng);
  });
  const Bytes sig = rsa::pss_sign(key, payload, rng);
  out.verify = run_stage_best_median("pss_verify", rsa_calls, [&] {
    (void)rsa::pss_verify(pub, payload, sig);
  });

  // One full walk of the RI chain the agent holds per call: verify()
  // keeps no verdict.
  const pki::ChainVerifier verifier(s.ca.root_certificate(), s.provider);
  const std::vector<pki::Certificate>& ri_chain =
      s.device.ri_context("ri:bench")->ri_chain;
  out.chain_walk = run_stage("chain_walk", iters, [&] {
    (void)verifier.verify(ri_chain, kNow);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Multi-agent scenario: one thread, agents taken round-robin.
// ---------------------------------------------------------------------------

struct MultiAgentResult {
  std::size_t agents = 0;
  std::size_t acquisitions_per_agent = 0;
  double registration_ms_avg = 0;   // per agent, cold caches
  double acquisition_ms_avg = 0;    // per exchange, warm contexts
  Percentiles acquisition_ms;
  double exchanges_per_s = 0;       // RI acquisition rate, fastest block
  double allocs_per_exchange = 0;
  std::uint64_t ctx_builds = 0;     // Montgomery contexts, acquisitions only
};

/// N devices share one Rights Issuer, driven one after another from the
/// calling thread (no concurrency). Each agent registers once (its own
/// chain walk on both ends), then the agents take turns acquiring, so
/// each exchange rides the recycled wire buffers only as far as N
/// devices' traffic fits in them. Each agent holds its RI chain verdict
/// and every key its Montgomery context, so neither is rebuilt.
MultiAgentResult run_multi_agent(Session& s, std::size_t n_agents,
                                 std::size_t acqs_per_agent) {
  MultiAgentResult out;
  out.agents = n_agents;
  out.acquisitions_per_agent = acqs_per_agent;

  std::vector<std::unique_ptr<agent::DrmAgent>> agents;
  agents.reserve(n_agents);
  for (std::size_t i = 0; i < n_agents; ++i) {
    auto dev = std::make_unique<agent::DrmAgent>(
        "dev:fleet-" + std::to_string(i), s.ca.root_certificate(),
        s.provider, s.rng, kRsaBits);
    dev->provision(
        s.ca.issue(dev->device_id(), dev->public_key(), s.validity, s.rng));
    agents.push_back(std::move(dev));
  }

  // The fleet runs the production stack: every envelope goes through the
  // ReliableTransport decorator and every session through the retry-policy
  // driver. On this fault-free loopback both layers must be pure overhead
  // accounting (no resends) — CI gates the throughput against the
  // pre-retry baseline.
  roap::RetryPolicy policy;
  roap::ReliableTransport reliable(s.transport, policy, s.rng);

  const auto reg_start = Clock::now();
  for (auto& dev : agents) {
    if (!dev->register_with(reliable, kNow, policy).ok()) {
      std::fprintf(stderr, "fleet registration failed\n");
      std::exit(1);
    }
  }
  out.registration_ms_avg =
      ms_since(reg_start) / static_cast<double>(n_agents);

  // kBlocks blocks of acqs_per_agent rounds over the fleet; the rate is
  // the fastest block's, the other figures cover every exchange.
  std::vector<double> latencies;
  latencies.reserve(kBlocks * n_agents * acqs_per_agent);
  const double block_exchanges =
      static_cast<double>(n_agents * acqs_per_agent);
  double acq_ms = 0;
  const std::uint64_t ctx0 = bigint::montgomery_ctx_builds();
  const std::uint64_t a0 = allocs_now();
  for (int b = 0; b < kBlocks; ++b) {
    if (b > 0) std::this_thread::sleep_for(kBlockGap);
    const auto block_start = Clock::now();
    for (std::size_t round = 0; round < acqs_per_agent; ++round) {
      for (auto& dev : agents) {
        const auto t0 = Clock::now();
        if (!dev->acquire_ro(reliable, "ri:bench", "ro:bench", kNow, policy)
                 .ok()) {
          std::fprintf(stderr, "fleet acquisition failed\n");
          std::exit(1);
        }
        latencies.push_back(ms_since(t0));
      }
    }
    const double block_ms = ms_since(block_start);
    acq_ms += block_ms;
    out.exchanges_per_s =
        std::max(out.exchanges_per_s, block_exchanges / (block_ms / 1000.0));
  }
  const double exchanges = kBlocks * block_exchanges;
  out.allocs_per_exchange =
      static_cast<double>(allocs_now() - a0) / exchanges;
  out.acquisition_ms_avg = acq_ms / exchanges;
  out.acquisition_ms = percentiles(latencies);
  out.ctx_builds = bigint::montgomery_ctx_builds() - ctx0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_roap.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  const std::size_t iterations = quick ? 10 : 50;
  const std::size_t stage_iters = quick ? 200 : 2000;
  const std::size_t fleet_agents = quick ? 8 : 64;
  const std::size_t fleet_acqs = quick ? 2 : 4;

  const char* mont_backend = bigint::accel::ifma_supported() ? "ifma_x2"
                             : bigint::accel::mont_supported() ? "adx"
                                                               : "portable";
  const char* mont_public_backend =
      bigint::accel::mont_supported() ? "adx" : "portable";
  std::printf(
      "=== ROAP session benchmark (RSA-%zu, 3-cert chain, Montgomery "
      "back end %s, public-key back end %s) ===\n\n",
      kRsaBits, mont_backend, mont_public_backend);
  Session s;

  // Registration, cold: both ends walk the peer chain, and the freshly
  // decoded certificates' keys build their Montgomery contexts as they
  // are decoded.
  auto reg_start = Clock::now();
  Result<> reg = s.device.register_with(s.transport, kNow);
  const double registration_first_ms = ms_since(reg_start);
  if (!reg.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 reg.describe().c_str());
    return 1;
  }

  // Registration, warm: both ends find the peer certificates they already
  // hold, byte for byte, so neither decodes one or builds a Montgomery
  // context (warm_ctx_builds, gated at 0 by
  // scripts/check_bench_regression.py). Each end revalidates the chain
  // verdict it holds instead of walking the chain; the revocation check,
  // the OCSP response (signed by the CA, verified by the agent) and both
  // message signatures are recomputed.
  const std::uint64_t warm_ctx0 = bigint::montgomery_ctx_builds();
  reg_start = Clock::now();
  reg = s.device.register_with(s.transport, kNow);
  const double registration_repeat_ms = ms_since(reg_start);
  const std::uint64_t warm_ctx_builds =
      bigint::montgomery_ctx_builds() - warm_ctx0;
  if (!reg.ok()) {
    std::fprintf(stderr, "re-registration failed\n");
    return 1;
  }

  const std::uint64_t ctx0 = bigint::montgomery_ctx_builds();
  ModeResult cached = run_acquisitions(s, iterations);
  const std::uint64_t ctx_builds = bigint::montgomery_ctx_builds() - ctx0;

  const double no_context_full_ms =
      run_acquisitions_no_context(s, iterations);

  const StageBreakdown stages = run_stage_breakdown(s, stage_iters);

  // Many agents, one thread, round-robin through the same dispatch path.
  const MultiAgentResult fleet = run_multi_agent(s, fleet_agents, fleet_acqs);

  const double speedup_full = no_context_full_ms / cached.full_ms_avg;

  std::printf("registration        cold %8.2f ms   warm %8.2f ms   "
              "warm mont contexts %llu built\n",
              registration_first_ms, registration_repeat_ms,
              static_cast<unsigned long long>(warm_ctx_builds));
  std::printf("acquisition         cached %6.3f ms   p50 %6.3f   p95 %6.3f\n",
              cached.full_ms_avg, cached.full_ms.p50, cached.full_ms.p95);
  std::printf("  no RI context            %6.3f ms   speedup %.2fx\n",
              no_context_full_ms, speedup_full);
  std::printf("agent verify path   cached %6.3f ms\n", cached.verify_ms_avg);
  std::printf("allocs/exchange     %.0f (full protocol, steady state)\n",
              cached.allocs_per_exchange);
  std::printf("mont contexts       %llu built (cached acquisitions)\n",
              static_cast<unsigned long long>(ctx_builds));

  std::printf("\nper-stage (request %zu B, response %zu B):\n",
              stages.request_bytes, stages.response_bytes);
  const Stage* all_stages[] = {&stages.serialize, &stages.parse, &stages.b64,
                               &stages.sha1,      &stages.wrap,  &stages.from_wire,
                               &stages.open,      &stages.sign,  &stages.verify,
                               &stages.chain_walk};
  for (const Stage* st : all_stages) {
    std::printf("  %-10s %9.2f us/op   %6.2f allocs/op\n", st->name,
                st->us_per_op, st->allocs_per_op);
  }

  std::printf("\nmulti-agent         %zu agents x %zu acq: reg %6.2f "
              "ms/agent,\n                    acq %6.3f ms (p50 %6.3f, p95 "
              "%6.3f), %.0f exch/s, %.0f allocs/exch\n"
              "                    %llu Montgomery contexts built (one "
              "thread, round-robin)\n",
              fleet.agents, fleet.acquisitions_per_agent,
              fleet.registration_ms_avg, fleet.acquisition_ms_avg,
              fleet.acquisition_ms.p50, fleet.acquisition_ms.p95,
              fleet.exchanges_per_s, fleet.allocs_per_exchange,
              static_cast<unsigned long long>(fleet.ctx_builds));
  std::printf(
      "\nThe no-RI-context row is the paper's point: without the stored,\n"
      "verified RI Context every license fetch pays a full 4-pass\n"
      "registration (OCSP + message signatures). The held context\n"
      "collapses that to one signed request/response pair; the arena DOM,\n"
      "streaming serializer, and pooled envelope buffers make the wire\n"
      "boundary itself allocation-free.\n");

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  char buf[4096];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"bench\": \"roap_session\",\n"
      "  \"config\": {\"rsa_bits\": %zu, \"chain_len\": 3, "
      "\"iterations\": %zu, \"quick\": %s, \"transport\": "
      "\"envelope_wire\", \"mont_accel\": %s, \"mont_backend\": \"%s\", "
      "\"mont_public_backend\": \"%s\"},\n"
      "  \"host\": %s,\n"
      "  \"registration_first_ms\": %.3f,\n"
      "  \"registration_repeat_ms\": %.3f,\n"
      "  \"registration\": {\"warm_ctx_builds\": %llu},\n"
      "  \"ro_acquisition\": {\n"
      "    \"cached\": {\"full_ms_avg\": %.4f, \"full_ms_p50\": %.4f, "
      "\"full_ms_p95\": %.4f, \"verify_path_ms_avg\": %.4f, "
      "\"allocs_per_exchange\": %.1f},\n"
      "    \"uncached_no_context\": {\"full_ms_avg\": %.4f},\n"
      "    \"speedup_vs_no_context\": %.2f\n"
      "  },\n"
      "  \"per_stage_us\": {\"serialize\": %.3f, \"parse\": %.3f, "
      "\"base64\": %.3f, \"sha1\": %.3f, \"wrap\": %.3f, \"from_wire\": "
      "%.3f, \"open\": %.3f, \"pss_sign\": %.3f, \"pss_verify\": %.3f, "
      "\"chain_walk\": %.3f},\n"
      "  \"wire_allocs_per_op\": {\"serialize\": %.2f, \"parse\": %.2f, "
      "\"wrap\": %.2f, \"from_wire\": %.2f},\n"
      "  \"multi_agent\": {\"agents\": %zu, \"acquisitions_per_agent\": "
      "%zu, \"registration_ms_avg\": %.3f, \"acquisition_ms_avg\": %.4f, "
      "\"acquisition_ms_p50\": %.4f, \"acquisition_ms_p95\": %.4f, "
      "\"exchanges_per_s\": %.1f, \"allocs_per_exchange\": %.1f, "
      "\"ctx_builds\": %llu},\n"
      "  \"cache_stats\": {\"ctx_builds\": %llu}\n"
      "}\n",
      kRsaBits, iterations, quick ? "true" : "false",
      bigint::accel::mont_supported() ? "true" : "false", mont_backend,
      mont_public_backend,
      bench::host_json().c_str(), registration_first_ms,
      registration_repeat_ms, static_cast<unsigned long long>(warm_ctx_builds),
      cached.full_ms_avg, cached.full_ms.p50, cached.full_ms.p95,
      cached.verify_ms_avg, cached.allocs_per_exchange,
      no_context_full_ms, speedup_full, stages.serialize.us_per_op,
      stages.parse.us_per_op, stages.b64.us_per_op, stages.sha1.us_per_op,
      stages.wrap.us_per_op, stages.from_wire.us_per_op,
      stages.open.us_per_op, stages.sign.us_per_op, stages.verify.us_per_op,
      stages.chain_walk.us_per_op,
      stages.serialize.allocs_per_op, stages.parse.allocs_per_op,
      stages.wrap.allocs_per_op, stages.from_wire.allocs_per_op,
      fleet.agents, fleet.acquisitions_per_agent, fleet.registration_ms_avg,
      fleet.acquisition_ms_avg, fleet.acquisition_ms.p50,
      fleet.acquisition_ms.p95, fleet.exchanges_per_s,
      fleet.allocs_per_exchange,
      static_cast<unsigned long long>(fleet.ctx_builds),
      static_cast<unsigned long long>(ctx_builds));
  json << buf;
  std::printf("\nwrote %s\n", json_path.c_str());

  // Hard invariant: the wire path — streaming serialize into a reused
  // buffer, zero-copy parse into a warm arena, pooled envelope wrap /
  // from_wire — performs zero steady-state heap allocations.
  bool wire_clean = true;
  for (const Stage* st : {&stages.serialize, &stages.parse, &stages.wrap,
                          &stages.from_wire}) {
    if (st->allocs_per_op != 0) {
      std::fprintf(stderr,
                   "FAIL: wire stage '%s' allocates (%.2f allocs/op); the "
                   "steady state must be allocation-free\n",
                   st->name, st->allocs_per_op);
      wire_clean = false;
    }
  }
  if (!wire_clean) return 1;

  // Hard invariant: the RSA legs run on fixed-width limbs. pss_sign
  // allocates only the signature it returns, pss_verify at most one
  // buffer.
  for (const Stage* st : {&stages.sign, &stages.verify}) {
    if (st->allocs_per_op > kRsaStageAllocs) {
      std::fprintf(stderr,
                   "FAIL: RSA stage '%s' allocates %.2f allocs/op; at most "
                   "%.0f (the returned buffer) is allowed\n",
                   st->name, st->allocs_per_op, kRsaStageAllocs);
      return 1;
    }
  }
  return 0;
}
