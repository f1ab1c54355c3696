// E8 — microbenchmarks of the real software substrate on the host:
// the full primitive set OMA DRM 2 mandates (§2.4.5), protocol-level
// composites (KEM wrap/unwrap, full consumption path), and the BigInt
// kernels under RSA.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>

#include "bigint/mont_accel.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/aes_wrap.h"
#include "crypto/hmac.h"
#include "crypto/kdf2.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"
#include "rsa/kem.h"
#include "rsa/pss.h"

namespace {

using namespace omadrm;  // NOLINT

void BM_AesCbcEncrypt(benchmark::State& state) {
  DeterministicRng rng(1);
  Bytes key = rng.bytes(16), iv = rng.bytes(16);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes ct = crypto::aes_cbc_encrypt(key, iv, data);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(1 << 10)->Arg(30 << 10)->Arg(1 << 20);

void BM_AesCbcDecrypt(benchmark::State& state) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(16), iv = rng.bytes(16);
  Bytes ct = crypto::aes_cbc_encrypt(
      key, iv, rng.bytes(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    Bytes pt = crypto::aes_cbc_decrypt(key, iv, ct);
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCbcDecrypt)->Arg(1 << 10)->Arg(30 << 10)->Arg(1 << 20);

void BM_AesKeyWrap(benchmark::State& state) {
  DeterministicRng rng(3);
  Bytes kek = rng.bytes(16);
  Bytes data = rng.bytes(32);  // K_MAC || K_REK
  for (auto _ : state) {
    Bytes wrapped = crypto::aes_wrap(kek, data);
    benchmark::DoNotOptimize(wrapped);
  }
}
BENCHMARK(BM_AesKeyWrap);

void BM_AesKeyUnwrap(benchmark::State& state) {
  DeterministicRng rng(4);
  Bytes kek = rng.bytes(16);
  Bytes wrapped = crypto::aes_wrap(kek, rng.bytes(32));
  for (auto _ : state) {
    auto out = crypto::aes_unwrap(kek, wrapped);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AesKeyUnwrap);

void BM_Sha1Throughput(benchmark::State& state) {
  DeterministicRng rng(5);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes d = crypto::Sha1::hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(30 << 10)->Arg(3670016);

void BM_HmacRoPayload(benchmark::State& state) {
  // HMAC over a typical Rights Object MAC payload (~1 KB).
  DeterministicRng rng(6);
  Bytes key = rng.bytes(16);
  Bytes payload = rng.bytes(1100);
  for (auto _ : state) {
    Bytes tag = crypto::HmacSha1::mac(key, payload);
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacRoPayload);

void BM_Kdf2(benchmark::State& state) {
  DeterministicRng rng(7);
  Bytes z = rng.bytes(128);
  for (auto _ : state) {
    Bytes kek = crypto::kdf2_sha1(z, 16);
    benchmark::DoNotOptimize(kek);
  }
}
BENCHMARK(BM_Kdf2);

void BM_PssSign1024(benchmark::State& state) {
  DeterministicRng rng(8);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  Bytes msg = rng.bytes(1500);
  for (auto _ : state) {
    Bytes sig = rsa::pss_sign(key, msg, rng);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_PssSign1024);

void BM_PssVerify1024(benchmark::State& state) {
  DeterministicRng rng(9);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  Bytes msg = rng.bytes(1500);
  Bytes sig = rsa::pss_sign(key, msg, rng);
  const rsa::PublicKey pub = key.public_key();  // one key, one context
  for (auto _ : state) {
    bool ok = rsa::pss_verify(pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_PssVerify1024);

void BM_KemWrapKeys(benchmark::State& state) {
  DeterministicRng rng(10);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  Bytes material = rng.bytes(32);
  const rsa::PublicKey pub = key.public_key();
  for (auto _ : state) {
    Bytes c = rsa::kem_wrap_keys(pub, material, rng);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_KemWrapKeys);

void BM_KemUnwrapKeys(benchmark::State& state) {
  DeterministicRng rng(11);
  rsa::PrivateKey key = rsa::generate_key(1024, rng);
  Bytes c = rsa::kem_wrap_keys(key.public_key(), rng.bytes(32), rng);
  for (auto _ : state) {
    auto out = rsa::kem_unwrap_keys(key, c);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_KemUnwrapKeys);

void BM_MontgomeryMul1024(benchmark::State& state) {
  DeterministicRng rng(12);
  bigint::BigInt m = bigint::BigInt::random_bits(1024, rng);
  if (m.is_even()) m = m + bigint::BigInt(1);
  bigint::MontgomeryCtx ctx(m);
  bigint::BigInt a = ctx.to_mont(bigint::BigInt::random_below(m, rng));
  bigint::BigInt b = ctx.to_mont(bigint::BigInt::random_below(m, rng));
  for (auto _ : state) {
    bigint::BigInt c = ctx.mont_mul(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MontgomeryMul1024);

// What a certificate freshly decoded from the wire pays once, on its
// key's first RSA operation.
void BM_MontgomeryCtxBuild1024(benchmark::State& state) {
  DeterministicRng rng(14);
  bigint::BigInt m = bigint::BigInt::random_bits(1024, rng);
  if (m.is_even()) m = m + bigint::BigInt(1);
  for (auto _ : state) {
    bigint::MontgomeryCtx ctx(m);
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_MontgomeryCtxBuild1024);

// The hot operation of an RSA-1024 private-key op: one CRT half, a
// 512-bit exponent under a 512-bit prime on the cached context.
void BM_CrtHalfModExp512(benchmark::State& state) {
  DeterministicRng rng(13);
  const bigint::BigInt p = bigint::generate_prime(512, rng);
  const bigint::MontgomeryCtx ctx(p);
  const bigint::BigInt base = bigint::BigInt::random_below(p, rng);
  const bigint::BigInt exp = bigint::BigInt::random_bits(512, rng);
  for (auto _ : state) {
    bigint::BigInt c = ctx.mod_exp(base, exp);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CrtHalfModExp512);

// One 8-word (512-bit) Montgomery multiply on packed words, chained as in
// an exponentiation: the SW and HW rows of a host-calibrated Table 1.
using MontMulFn = void (*)(std::uint64_t*, const std::uint64_t*,
                           const std::uint64_t*, const std::uint64_t*,
                           std::uint64_t, std::size_t);

void run_mont_mul8(benchmark::State& state, MontMulFn mul) {
  DeterministicRng rng(14);
  std::uint64_t m[8], a[8], b[8], r[8];
  for (int i = 0; i < 8; ++i) {
    m[i] = rng.next_u64();
    a[i] = rng.next_u64();
    b[i] = rng.next_u64();
  }
  m[0] |= 1;
  m[7] |= std::uint64_t{1} << 63;  // operands below m
  a[7] >>= 1;
  b[7] >>= 1;
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
  const std::uint64_t k = 0 - inv;
  std::uint64_t* x = a;
  std::uint64_t* y = r;
  for (auto _ : state) {
    mul(y, x, b, m, k, 8);
    std::swap(x, y);
    benchmark::ClobberMemory();
  }
}

void BM_MontMul8Portable(benchmark::State& state) {
  run_mont_mul8(state, &bigint::mont_mul_portable);
}
BENCHMARK(BM_MontMul8Portable);

void BM_MontMul8Accel(benchmark::State& state) {
  if (!bigint::accel::mont_supported()) {
    state.SkipWithError("host lacks BMI2+ADX");
    return;
  }
  run_mont_mul8(state, &bigint::accel::mont_mul8);
}
BENCHMARK(BM_MontMul8Accel);

void BM_RsaKeygen1024(benchmark::State& state) {
  std::uint64_t seed = 100;
  for (auto _ : state) {
    DeterministicRng rng(seed++);
    rsa::PrivateKey key = rsa::generate_key(1024, rng);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_RsaKeygen1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
