// E1 — Table 1: per-algorithm execution costs in hardware and software.
//
// Prints the paper's cost table as embedded in the model (the model input),
// then uses google-benchmark to measure our *actual* software primitives on
// the host, reporting bytes/second and a derived cycles-per-128-bit-block
// figure for qualitative comparison with the ARM9 column. Host numbers are
// expected to differ from the paper's ARM9 figures (different ISA, cache,
// compiler) — the model always uses the published coefficients.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bigint/limbs.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"
#include "model/cost_table.h"
#include "rsa/rsa.h"

namespace {

using namespace omadrm;           // NOLINT
using namespace omadrm::model;    // NOLINT

void print_model_table() {
  std::printf("=== Table 1 — execution costs per algorithm (model input) ===\n");
  std::printf("%-28s %-26s %-26s\n", "Algorithm", "Software [cycles]",
              "Hardware [cycles]");
  CostTable t = CostTable::paper_table1();
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
    Algorithm a = static_cast<Algorithm>(i);
    const AlgoCost& sw = t.cost(a, Engine::kSoftware);
    const AlgoCost& hw = t.cost(a, Engine::kHardware);
    const char* unit = (a == Algorithm::kRsaPublic ||
                        a == Algorithm::kRsaPrivate)
                           ? "1024 bit"
                           : "128 bit";
    char swbuf[64], hwbuf[64];
    std::snprintf(swbuf, sizeof swbuf, "%.0f + %.0f/%s", sw.fixed_cycles,
                  sw.cycles_per_block, unit);
    std::snprintf(hwbuf, sizeof hwbuf, "%.0f + %.0f/%s", hw.fixed_cycles,
                  hw.cycles_per_block, unit);
    std::printf("%-28s %-26s %-26s\n", to_string(a), swbuf, hwbuf);
  }
  std::printf(
      "\n(Host measurements below are our real C++ primitives; the model\n"
      " charges the published ARM9/macro coefficients above, not these.)\n\n");
}

// --- host measurements of the real software primitives --------------------

void BM_AesEncryptBlock(benchmark::State& state) {
  DeterministicRng rng(1);
  Bytes key = rng.bytes(16);
  crypto::Aes aes(key);
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesDecryptBlock(benchmark::State& state) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(16);
  crypto::Aes aes(key);
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.decrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesDecryptBlock);

void BM_AesKeySchedule(benchmark::State& state) {
  DeterministicRng rng(3);
  Bytes key = rng.bytes(16);
  for (auto _ : state) {
    crypto::Aes aes(key);
    benchmark::DoNotOptimize(aes);
  }
}
BENCHMARK(BM_AesKeySchedule);

void BM_Sha1(benchmark::State& state) {
  DeterministicRng rng(4);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes digest = crypto::Sha1::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_HmacSha1(benchmark::State& state) {
  DeterministicRng rng(5);
  Bytes key = rng.bytes(16);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes tag = crypto::HmacSha1::mac(key, data);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(4096);

// A uniform input below the key's modulus, as key-length bytes.
Bytes below_n(const rsa::PublicKey& key, Rng& rng) {
  const bigint::Limbs n(key.n());
  bigint::Word w[bigint::kMaxWords];
  bigint::random_below(w, n.w.data(), n.n, rng);
  Bytes out(key.byte_length());
  bigint::to_be(w, n.n, out);
  return out;
}

void BM_Rsa1024PublicOp(benchmark::State& state) {
  DeterministicRng rng(6);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  const Bytes m = below_n(key.public_key(), rng);
  const rsa::PublicKey pub = key.public_key();  // one key, one context
  Bytes c(128);
  for (auto _ : state) {
    rsa::rsaep(pub, m, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Rsa1024PublicOp);

void run_private_op(benchmark::State& state, const rsa::PrivateKey& key,
                    Rng& rng) {
  const Bytes c = below_n(key.public_key(), rng);
  Bytes m(128);
  for (auto _ : state) {
    rsa::rsadp(key, c, m);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
}

void BM_Rsa1024PrivateOp(benchmark::State& state) {
  DeterministicRng rng(7);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  run_private_op(state, key, rng);
}
BENCHMARK(BM_Rsa1024PrivateOp);

void BM_Rsa1024PrivateOpNoCrt(benchmark::State& state) {
  DeterministicRng rng(8);
  const rsa::PrivateKey crt = rsa::generate_key(1024, rng);
  const rsa::PrivateKey key(crt.public_key(), crt.d());
  run_private_op(state, key, rng);
}
BENCHMARK(BM_Rsa1024PrivateOpNoCrt);

}  // namespace

int main(int argc, char** argv) {
  print_model_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
