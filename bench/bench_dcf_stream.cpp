// Content-path benchmark: the steady-state cost of OMA DRM 2 once ROAP
// is amortized — per-access DCF integrity hashing and bulk AES-CBC
// decryption of the media payload (paper §2.4.4, Table 1's symmetric
// rows; the Music Player / Ringtone use cases are exactly this loop).
//
// Measured per payload size (4 KiB .. 16 MiB):
//
//   open        DrmAgent::open_content over a zero-copy DcfReader — the
//               one-time per-access work (C2dev unwrap, RO MAC, DCF-hash
//               binding, REL check, CEK unwrap, the session's AES key
//               schedule),
//               reported separately from the per-chunk cost.
//   stream      ContentSession::read draining the payload through a
//               reused chunk buffer: the fused CBC core on the session's
//               key schedule. MUST be allocation-free at steady state —
//               the bench asserts this with a global operator-new
//               counter and exits nonzero on regression.
//   one-shot    crypto::aes_cbc_decrypt: fresh key schedule + fresh
//               result buffer per call.
//   sha1        streaming SHA-1 over the serialized container (the
//               integrity-hash half of the content path; SHA-NI
//               compress on hosts with the SHA extensions).
//
// Output: human-readable summary + JSON (default BENCH_dcf.json) that
// records the host it ran on (nproc, CPU flags, build type), gated in CI
// by scripts/check_bench_regression.py.
//
// Usage: bench_dcf_stream [--quick] [--json <path>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"
#include "crypto/sha1_accel.h"
#include "dcf/dcf.h"
#include "dcf/dcf_reader.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"
#include "host_facts.h"

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
constexpr std::size_t kChunkBytes = 256 * 1024;

double mbps(std::size_t bytes, std::size_t iters, double total_ms) {
  return static_cast<double>(bytes) * static_cast<double>(iters) /
         (total_ms / 1000.0) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Fixture: one CA / RI / device, one installed RO per payload size.
// ---------------------------------------------------------------------------

struct Fixture {
  DeterministicRng rng{0xDCF5EED};
  pki::Validity validity{kNow - 86400, kNow + 365 * 86400};
  pki::CertificationAuthority ca{"CMLA Root", kRsaBits, validity, rng};
  provider::PlainCryptoProvider provider;
  ci::ContentIssuer issuer{"content.bench", provider, rng};
  ri::RightsIssuer ri{"ri:bench", "http://ri.bench/roap", ca, validity,
                      provider, rng, nullptr, kRsaBits};
  roap::InProcessTransport transport{ri, kNow};
  agent::DrmAgent device{"dev:bench", ca.root_certificate(), provider, rng,
                         kRsaBits};

  Fixture() {
    device.provision(
        ca.issue("dev:bench", device.public_key(), validity, rng));
    if (!device.register_with(transport, kNow).ok()) {
      std::fprintf(stderr, "registration failed\n");
      std::exit(1);
    }
  }

  struct Installed {
    dcf::Dcf dcf;
    Bytes wire;
    Bytes kcek;
    std::string ro_id;
  };

  Installed install_content(std::size_t payload_bytes) {
    Installed out;
    const std::string tag = std::to_string(payload_bytes);
    dcf::Headers headers;
    headers.content_type = "audio/mpeg";
    headers.content_id = "cid:bench-" + tag + "@content.bench";
    headers.rights_issuer_url = ri.url();
    headers.textual = {{"Title", "Bench " + tag}};
    Bytes content = rng.bytes(payload_bytes);
    out.dcf = issuer.package(headers, content);
    out.wire = out.dcf.serialize();
    out.kcek = *issuer.kcek_for(headers.content_id);
    out.ro_id = "ro:bench-" + tag;

    ri::LicenseOffer offer;
    offer.ro_id = out.ro_id;
    offer.content_id = headers.content_id;
    offer.dcf_hash = out.dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;  // unconstrained
    offer.permissions = {play};
    offer.kcek = out.kcek;
    ri.add_offer(offer);

    auto acquired = device.acquire_ro(transport, "ri:bench", out.ro_id, kNow);
    if (!acquired.ok() ||
        device.install_ro(*acquired, kNow) != agent::AgentStatus::kOk) {
      std::fprintf(stderr, "acquire/install failed for %s\n", tag.c_str());
      std::exit(1);
    }
    return out;
  }
};

struct SizeResult {
  std::size_t payload_bytes = 0;   // plaintext size
  std::size_t cipher_bytes = 0;    // payload_bytes rounded up one block
  double open_us = 0;
  double open_allocs = 0;
  double stream_mbps = 0;
  double oneshot_mbps = 0;
  double sha1_mbps = 0;
  double read_allocs_per_drain = 0;
};

SizeResult run_size(Fixture& fx, std::size_t payload_bytes,
                    std::size_t work_budget_bytes) {
  SizeResult out;
  out.payload_bytes = payload_bytes;
  Fixture::Installed c = fx.install_content(payload_bytes);
  dcf::DcfReader reader = dcf::DcfReader::parse(c.wire);
  out.cipher_bytes = reader.encrypted_payload().size();
  const std::size_t iters = std::clamp<std::size_t>(
      work_budget_bytes / std::max<std::size_t>(payload_bytes, 1), 3, 512);

  // Correctness anchor: the streamed plaintext equals the one-shot path.
  {
    agent::ContentSession s =
        fx.device.open_content(reader, rel::PermissionType::kPlay, kNow);
    if (!s.ok() || s.read_all() != dcf::decrypt_dcf(c.dcf, c.kcek)) {
      std::fprintf(stderr, "stream/one-shot mismatch at %zu bytes\n",
                   payload_bytes);
      std::exit(1);
    }
  }

  // Open latency: the one-time per-access half.
  {
    const std::size_t open_iters = 64;
    (void)fx.device.open_content(reader, rel::PermissionType::kPlay, kNow);
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < open_iters; ++i) {
      agent::ContentSession s =
          fx.device.open_content(reader, rel::PermissionType::kPlay, kNow);
      if (!s.ok()) std::exit(1);
    }
    out.open_us = ms_since(t0) * 1000.0 / static_cast<double>(open_iters);
    out.open_allocs = static_cast<double>(allocs_now() - a0) /
                      static_cast<double>(open_iters);
  }

  // Streaming drain through a reused chunk buffer: rewind() restarts the
  // same granted access, so the loop is pure decrypt work.
  {
    agent::ContentSession s =
        fx.device.open_content(reader, rel::PermissionType::kPlay, kNow);
    std::vector<std::uint8_t> chunk(kChunkBytes);
    auto drain = [&] {
      s.rewind();
      while (s.read(std::span<std::uint8_t>(chunk.data(), chunk.size())) >
             0) {
      }
    };
    drain();  // warm-up: buffer capacities and caches settle
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) drain();
    out.stream_mbps = mbps(payload_bytes, iters, ms_since(t0));
    out.read_allocs_per_drain = static_cast<double>(allocs_now() - a0) /
                                static_cast<double>(iters);
  }

  // One-shot tier: fresh key schedule + fresh buffer per call.
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      (void)crypto::aes_cbc_decrypt(c.kcek, reader.iv(),
                                    reader.encrypted_payload());
    }
    out.oneshot_mbps = mbps(payload_bytes, iters, ms_since(t0));
  }

  // Container integrity hashing (streaming SHA-1, no re-serialization).
  {
    const auto t0 = Clock::now();
    std::uint8_t digest[crypto::Sha1::kDigestSize];
    for (std::size_t i = 0; i < iters; ++i) {
      crypto::Sha1 h;
      h.update(c.wire);
      h.finish_into(digest);
    }
    out.sha1_mbps = mbps(c.wire.size(), iters, ms_since(t0));
  }

  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_dcf.json";
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

  std::vector<std::size_t> sizes = {4 * 1024, 64 * 1024, 1024 * 1024};
  if (!quick) sizes.push_back(16 * 1024 * 1024);
  const std::size_t work_budget = quick ? 16u * 1024 * 1024
                                        : 96u * 1024 * 1024;

  const bool aesni = crypto::Aes(Bytes(16, 0)).has_accel();
  // The path CBC decryption takes: T-tables, AES-NI x4 or VAES x16.
  const char* aes_backend = !aesni                           ? "portable"
                            : crypto::accel::vaes_supported() ? "vaes"
                                                              : "aesni";
  const bool shani = crypto::accel::sha1_supported();
  std::printf(
      "=== DCF content-path benchmark (AES backend %s, SHA-NI %s) ===\n\n",
      aes_backend, shani ? "on" : "off");

  Fixture fx;
  std::vector<SizeResult> results;
  for (std::size_t size : sizes) {
    results.push_back(run_size(fx, size, work_budget));
    const SizeResult& r = results.back();
    std::printf(
        "%8zu KiB  open %6.2f us (%2.0f allocs)   stream %8.1f MB/s   "
        "one-shot %8.1f MB/s   sha1 %7.1f MB/s\n",
        r.payload_bytes / 1024, r.open_us, r.open_allocs, r.stream_mbps,
        r.oneshot_mbps, r.sha1_mbps);
  }

  std::printf(
      "\nThe split is the paper's content-path story: open_content pays the\n"
      "per-access trust decisions once (RO MAC, DCF-hash binding, CEK\n"
      "unwrap, the session's AES schedule), then read() streams CBC block\n"
      "runs into a reused buffer with zero allocations.\n");

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"dcf_stream\",\n"
       << "  \"config\": {\"rsa_bits\": " << kRsaBits
       << ", \"chunk_bytes\": " << kChunkBytes
       << ", \"quick\": " << (quick ? "true" : "false")
       << ", \"aesni\": " << (aesni ? "true" : "false")
       << ", \"aes_backend\": \"" << aes_backend << "\""
       << ", \"shani\": " << (shani ? "true" : "false") << "},\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"payload_bytes\": %zu, \"cipher_bytes\": %zu, "
        "\"open_us\": %.2f, \"open_allocs\": %.1f, "
        "\"stream_decrypt_mbps\": %.1f, \"oneshot_decrypt_mbps\": %.1f, "
        "\"sha1_mbps\": %.1f, \"read_allocs_per_drain\": %.2f}%s\n",
        r.payload_bytes, r.cipher_bytes, r.open_us, r.open_allocs,
        r.stream_mbps, r.oneshot_mbps, r.sha1_mbps, r.read_allocs_per_drain,
        i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());

  // Hard invariant: steady-state read() performs zero heap allocations.
  bool clean = true;
  for (const SizeResult& r : results) {
    if (r.read_allocs_per_drain != 0) {
      std::fprintf(stderr,
                   "FAIL: steady-state read() allocates (%.2f allocs/drain "
                   "at %zu bytes)\n",
                   r.read_allocs_per_drain, r.payload_bytes);
      clean = false;
    }
  }
  return clean ? 0 : 1;
}
