// E8 — microbenchmarks of the real software substrate on the host:
// the full primitive set OMA DRM 2 mandates (§2.4.5), protocol-level
// composites (KEM wrap/unwrap, full consumption path), and the
// fixed-width Montgomery kernels under RSA.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bigint/limbs.h"
#include "bigint/mont_accel.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"
#include "crypto/aes_wrap.h"
#include "crypto/hmac.h"
#include "crypto/kdf2.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"
#include "rsa/kem.h"
#include "rsa/pss.h"
#include "rsa/rsa.h"

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

// The CBC decryption path ladder on whole blocks and one prebuilt
// schedule, each path forced whatever the host would pick: the T-table
// rounds, AES-NI 4 blocks per iteration and VAES 16.
using CbcKernel = void (*)(const std::uint8_t*, int, std::uint8_t*,
                           const std::uint8_t*, std::uint8_t*, std::size_t);

void run_cbc_decrypt(benchmark::State& state, CbcKernel kernel) {
  DeterministicRng rng(2);
  const Bytes key = rng.bytes(16);
  const Bytes ct = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Bytes pt(ct.size());
  std::uint8_t chain[16] = {};
  if (kernel == nullptr) {
    const crypto::Aes aes = crypto::Aes::portable(key);
    for (auto _ : state) {
      crypto::cbc_decrypt_blocks(aes, chain, ct.data(), pt.data(),
                                 ct.size() / 16);
      benchmark::ClobberMemory();
    }
  } else {
    const crypto::Aes aes(key);
    for (auto _ : state) {
      kernel(aes.accel_dec_keys(), aes.rounds(), chain, ct.data(), pt.data(),
             ct.size() / 16);
      benchmark::ClobberMemory();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_AesCbcDecryptTable(benchmark::State& state) {
  run_cbc_decrypt(state, nullptr);
}
BENCHMARK(BM_AesCbcDecryptTable)->Arg(30 << 10)->Arg(1 << 20);

void BM_AesCbcDecryptNiX4(benchmark::State& state) {
  if (!crypto::accel::cpu_supported()) {
    state.SkipWithError("host lacks AES-NI");
    return;
  }
  run_cbc_decrypt(state, &crypto::accel::cbc_decrypt_blocks);
}
BENCHMARK(BM_AesCbcDecryptNiX4)->Arg(30 << 10)->Arg(1 << 20);

void BM_AesCbcDecryptVaesX16(benchmark::State& state) {
  if (!crypto::accel::vaes_supported()) {
    state.SkipWithError("host lacks VAES or AVX-512F");
    return;
  }
  run_cbc_decrypt(state, &crypto::accel::cbc_decrypt_blocks_vaes);
}
BENCHMARK(BM_AesCbcDecryptVaesX16)->Arg(30 << 10)->Arg(1 << 20);

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

// A random number of exactly `bits` bits (a multiple of 8), made odd
// when `odd` is set: a modulus, or an exponent.
bigint::Limbs random_number(std::size_t bits, Rng& rng, bool odd) {
  Bytes raw = rng.bytes(bits / 8);
  raw.front() |= 0x80;
  if (odd) raw.back() |= 1;
  return bigint::Limbs(raw);
}

// A uniform draw below `bound`, in bound.n words.
std::vector<bigint::Word> below(const bigint::Limbs& bound, Rng& rng) {
  std::vector<bigint::Word> w(bound.n);
  bigint::random_below(w.data(), bound.w.data(), bound.n, rng);
  return w;
}

// A ciphertext below the key's modulus, as key-length bytes.
Bytes below(const rsa::PublicKey& key, Rng& rng) {
  const std::vector<bigint::Word> w = below(bigint::Limbs(key.n()), rng);
  Bytes out(key.byte_length());
  bigint::to_be(w.data(), w.size(), out);
  return out;
}

void BM_MontgomeryMul1024(benchmark::State& state) {
  DeterministicRng rng(12);
  const bigint::Limbs m = random_number(1024, rng, true);
  const bigint::MontgomeryCtx ctx(m.span());
  const auto a = below(m, rng);
  const auto b = below(m, rng);
  bigint::Word c[16];
  for (auto _ : state) {
    ctx.mul(c, a.data(), b.data());
    benchmark::DoNotOptimize(c);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontgomeryMul1024);

// What a key freshly decoded from the wire pays once, when it is
// constructed.
void BM_MontgomeryCtxBuild1024(benchmark::State& state) {
  DeterministicRng rng(14);
  const bigint::Limbs m = random_number(1024, rng, true);
  for (auto _ : state) {
    bigint::MontgomeryCtx ctx(m.span());
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_MontgomeryCtxBuild1024);

// The hot operation of an RSA-1024 private-key op: one CRT half, a
// 512-bit exponent under a 512-bit prime on the cached context.
void BM_CrtHalfModExp512(benchmark::State& state) {
  DeterministicRng rng(13);
  const bigint::Limbs p = bigint::generate_prime(512, rng);
  const bigint::MontgomeryCtx ctx(p.span());
  const auto base = below(p, rng);
  const auto exp = random_number(512, rng, false);
  bigint::Word r[8];
  for (auto _ : state) {
    ctx.mod_exp(r, base.data(), exp.span());
    benchmark::DoNotOptimize(r);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CrtHalfModExp512);

// Both halves of an RSA-1024 private-key op: two 512-bit primes, 512-bit
// exponents, on cached contexts.
struct CrtPair {
  CrtPair() : rng(15), p(bigint::generate_prime(512, rng)),
              q(bigint::generate_prime(512, rng)), cp(p.span()),
              cq(q.span()), bp(below(p, rng)), bq(below(q, rng)),
              ep(random_number(512, rng, false)),
              eq(random_number(512, rng, false)) {}
  DeterministicRng rng;
  bigint::Limbs p, q;
  bigint::MontgomeryCtx cp, cq;
  std::vector<bigint::Word> bp, bq;
  bigint::Limbs ep, eq;
};

// Through MontgomeryCtx::mod_exp_pair, the entry point rsa::rsadp uses:
// one IFMA dual exponentiation where the host has it, two calls
// otherwise.
void BM_CrtPair512(benchmark::State& state) {
  const CrtPair c;
  bigint::Word rp[8], rq[8];
  for (auto _ : state) {
    bigint::MontgomeryCtx::mod_exp_pair(c.cp, rp, c.bp.data(), c.ep.span(),
                                        c.cq, rq, c.bq.data(), c.eq.span());
    benchmark::DoNotOptimize(rp);
    benchmark::DoNotOptimize(rq);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CrtPair512);

// A whole RSA-1024 private-key op from bytes to bytes: BM_CrtPair512 plus
// the glue around it (the CRT reductions, Garner's recombination and the
// byte conversions), which is this row minus that one.
void BM_Rsadp1024(benchmark::State& state) {
  DeterministicRng rng(17);
  const rsa::PrivateKey key = rsa::generate_key(1024, rng);
  const Bytes c = below(key.public_key(), rng);
  Bytes m(128);
  for (auto _ : state) {
    rsa::rsadp(key, c, m);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Rsadp1024);

// The same two halves forced onto two mod_exp calls (the ADX kernels).
void BM_CrtPair512TwoCallAdx(benchmark::State& state) {
  if (!bigint::accel::mont_supported()) {
    state.SkipWithError("host lacks BMI2+ADX");
    return;
  }
  const CrtPair c;
  bigint::Word rp[8], rq[8];
  for (auto _ : state) {
    c.cp.mod_exp(rp, c.bp.data(), c.ep.span());
    c.cq.mod_exp(rq, c.bq.data(), c.eq.span());
    benchmark::DoNotOptimize(rp);
    benchmark::DoNotOptimize(rq);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CrtPair512TwoCallAdx);

// One n-word Montgomery multiply on packed words, chained as in an
// exponentiation: the SW and HW rows of a host-calibrated Table 1, for
// the 512-bit CRT halves (8 words) and the 1024-bit public-key ops (16).
using MontMulFn = void (*)(std::uint64_t*, const std::uint64_t*,
                           const std::uint64_t*, const std::uint64_t*,
                           std::uint64_t, std::size_t);

template <std::size_t N>
void run_mont_mul(benchmark::State& state, MontMulFn mul) {
  DeterministicRng rng(14);
  std::uint64_t m[N], a[N], b[N], r[N];
  for (std::size_t i = 0; i < N; ++i) {
    m[i] = rng.next_u64();
    a[i] = rng.next_u64();
    b[i] = rng.next_u64();
  }
  m[0] |= 1;
  m[N - 1] |= std::uint64_t{1} << 63;  // operands below m
  a[N - 1] >>= 1;
  b[N - 1] >>= 1;
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
  const std::uint64_t k = 0 - inv;
  std::uint64_t* x = a;
  std::uint64_t* y = r;
  for (auto _ : state) {
    mul(y, x, b, m, k, N);
    std::swap(x, y);
    benchmark::ClobberMemory();
  }
}

template <std::size_t N>
void run_mont_mul_accel(benchmark::State& state, MontMulFn mul) {
  if (!bigint::accel::mont_supported()) {
    state.SkipWithError("host lacks BMI2+ADX");
    return;
  }
  run_mont_mul<N>(state, mul);
}

void BM_MontMul8Portable(benchmark::State& state) {
  run_mont_mul<8>(state, &bigint::mont_mul_portable);
}
BENCHMARK(BM_MontMul8Portable);

void BM_MontMul8Accel(benchmark::State& state) {
  run_mont_mul_accel<8>(state, &bigint::accel::mont_mul8);
}
BENCHMARK(BM_MontMul8Accel);

void BM_MontMul16Portable(benchmark::State& state) {
  run_mont_mul<16>(state, &bigint::mont_mul_portable);
}
BENCHMARK(BM_MontMul16Portable);

void BM_MontMul16Accel(benchmark::State& state) {
  run_mont_mul_accel<16>(state, &bigint::accel::mont_mul16);
}
BENCHMARK(BM_MontMul16Accel);

// One dual product on the IFMA kernel: two 512-bit almost-Montgomery
// multiplies (both CRT halves), chained as in an exponentiation — the
// HW-x2 row next to the SW and HW rows above. Each call also stages its
// operands (about 0.8 KB of copies).
void BM_AmmX2Ifma(benchmark::State& state) {
  if (!bigint::accel::ifma_supported()) {
    state.SkipWithError("host lacks AVX-512 IFMA");
    return;
  }
  DeterministicRng rng(16);
  bigint::accel::IfmaModulus mod[2];
  bigint::accel::Ifma52 x[2] = {}, y[2] = {};
  for (int h = 0; h < 2; ++h) {
    std::uint64_t m[8], r2[8];
    for (int i = 0; i < 8; ++i) {
      m[i] = rng.next_u64();
      r2[i] = rng.next_u64() >> 1;
    }
    m[0] |= 1;
    m[7] |= std::uint64_t{1} << 63;
    std::uint64_t inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
    bigint::accel::ifma_modulus(mod[h], m, 0 - inv, r2);
    for (std::size_t j = 0; j < bigint::accel::kIfmaLimbs; ++j) {
      x[h].w[8 + j] = rng.next_u64() >> 12;  // below 2^52
      y[h].w[8 + j] = rng.next_u64() >> 12;
    }
    x[h].w[8 + 9] >>= 8;  // operands below m
    y[h].w[8 + 9] >>= 8;
  }
  bigint::accel::Ifma52* const r[2] = {&x[0], &x[1]};
  const bigint::accel::Ifma52* const a[2] = {&x[0], &x[1]};
  const bigint::accel::Ifma52* const b[2] = {&y[0], &y[1]};
  const bigint::accel::IfmaModulus* const m[2] = {&mod[0], &mod[1]};
  for (auto _ : state) {
    bigint::accel::amm52_x2(r, a, b, m);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AmmX2Ifma);

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
