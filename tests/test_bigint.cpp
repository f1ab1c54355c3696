// Unit + property tests for the multiprecision integer substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bigint/mont_accel.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "oracle/bigint.h"
#include "oracle/mont_bigint.h"

namespace omadrm::bigint {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;
using namespace mont_test;  // NOLINT(google-build-using-namespace)

TEST(BigIntBasics, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigInt(123), z);
}

TEST(BigIntBasics, FromU64) {
  BigInt v(std::uint64_t{0x1122334455667788ull});
  EXPECT_EQ(v.to_hex(), "1122334455667788");
  EXPECT_EQ(v.to_u64(), 0x1122334455667788ull);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigIntBasics, DecimalParseAndPrint) {
  BigInt v(std::string_view("123456789012345678901234567890"));
  EXPECT_EQ(v.to_dec(), "123456789012345678901234567890");
  BigInt neg(std::string_view("-42"));
  EXPECT_TRUE(neg.is_negative());
  EXPECT_EQ(neg.to_dec(), "-42");
}

TEST(BigIntBasics, HexParse) {
  BigInt v(std::string_view("0xDeadBeefCafeBabe"));
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe");
  EXPECT_THROW(BigInt(std::string_view("0x")), Error);
  EXPECT_THROW(BigInt(std::string_view("12a")), Error);
  EXPECT_THROW(BigInt(std::string_view("")), Error);
}

TEST(BigIntBasics, ByteRoundTrip) {
  Bytes raw = from_hex("00ff10203040506070");
  BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_hex(), "ff10203040506070");
  EXPECT_EQ(v.to_bytes_be(9), raw);
  EXPECT_EQ(BigInt::from_bytes_be({}).to_hex(), "0");
}

TEST(BigIntBasics, ToBytesPadsToMinLen) {
  BigInt v(std::uint64_t{0xabcd});
  Bytes b = v.to_bytes_be(4);
  EXPECT_EQ(to_hex(b), "0000abcd");
  EXPECT_EQ(to_hex(BigInt{}.to_bytes_be(2)), "0000");
}

TEST(BigIntCompare, Ordering) {
  BigInt a(5), b(7), c(-3);
  EXPECT_LT(a, b);
  EXPECT_GT(a, c);
  EXPECT_LT(c, BigInt{});
  EXPECT_EQ(BigInt(7), b);
  EXPECT_LT(BigInt(-9), c);
}

TEST(BigIntArith, SignedAddSub) {
  BigInt a(100), b(-30);
  EXPECT_EQ((a + b).to_dec(), "70");
  EXPECT_EQ((b + a).to_dec(), "70");
  EXPECT_EQ((b - a).to_dec(), "-130");
  EXPECT_EQ((a - a).to_dec(), "0");
  EXPECT_EQ((-a).to_dec(), "-100");
}

TEST(BigIntArith, CarriesPropagate) {
  BigInt a(std::string_view("0xffffffffffffffffffffffffffffffff"));
  BigInt one(1);
  EXPECT_EQ((a + one).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + one - one).to_hex(), a.to_hex());
}

TEST(BigIntArith, MultiplySmall) {
  EXPECT_EQ((BigInt(12) * BigInt(10)).to_dec(), "120");
  EXPECT_EQ((BigInt(-12) * BigInt(10)).to_dec(), "-120");
  EXPECT_EQ((BigInt(-12) * BigInt(-10)).to_dec(), "120");
}

TEST(BigIntArith, KnownBigProduct) {
  // 2^128 - 1 squared = 2^256 - 2^129 + 1.
  BigInt a(std::string_view("0xffffffffffffffffffffffffffffffff"));
  BigInt expected =
      (BigInt(1) << 256) - (BigInt(1) << 129) + BigInt(1);
  EXPECT_EQ(a * a, expected);
}

TEST(BigIntArith, DivModInvariantRandom) {
  DeterministicRng rng(1234);
  for (int i = 0; i < 200; ++i) {
    std::size_t abits = 1 + rng.uniform(512);
    std::size_t bbits = 1 + rng.uniform(256);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a)
        << "a=" << a.to_hex() << " b=" << b.to_hex();
    EXPECT_LT(dm.remainder, b);
    EXPECT_FALSE(dm.remainder.is_negative());
  }
}

TEST(BigIntArith, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5).divmod(BigInt{}), Error);
}

TEST(BigIntArith, SignOfQuotientAndRemainder) {
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_dec(), "-3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_dec(), "-1");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_dec(), "-3");
  EXPECT_EQ(BigInt(-7).mod(BigInt(3)).to_dec(), "2");
}

TEST(BigIntArith, AlgorithmDAddBackCase) {
  // Divisor chosen so qhat overestimates and the rare add-back path runs:
  // classic Knuth exercise values.
  BigInt a(std::string_view("0x7fffffff800000010000000000000000"));
  BigInt b(std::string_view("0x800000008000000200000005"));
  auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST(BigIntArith, RingAxiomsAcrossKaratsubaThreshold) {
  // Operand sizes straddle the Karatsuba cutoff (24 limbs = 768 bits), so
  // these identities exercise both multiplication paths and their seam.
  DeterministicRng rng(808);
  for (std::size_t bits : {64u, 512u, 768u, 800u, 1600u, 4096u}) {
    BigInt a = BigInt::random_bits(bits, rng);
    BigInt b = BigInt::random_bits(bits / 2 + 1, rng);
    BigInt c = BigInt::random_bits(bits / 3 + 1, rng);
    EXPECT_EQ(a * b, b * a) << bits;
    EXPECT_EQ((a + b) * c, a * c + b * c) << bits;
    EXPECT_EQ((a * b) * c, a * (b * c)) << bits;
    EXPECT_EQ((a * b) / b, a) << bits;
    EXPECT_EQ((a * b) % b, BigInt{}) << bits;
  }
}

TEST(BigIntArith, SquareViaBinomial) {
  // (a+1)^2 == a^2 + 2a + 1 across widths.
  DeterministicRng rng(809);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(2000), rng);
    EXPECT_EQ((a + BigInt(1)) * (a + BigInt(1)),
              a * a + (a << 1) + BigInt(1));
  }
}

TEST(BigIntConvert, DecimalRoundTripRandom) {
  DeterministicRng rng(810);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(700), rng);
    EXPECT_EQ(BigInt(std::string_view(a.to_dec())), a);
    EXPECT_EQ(BigInt(std::string_view("0x" + a.to_hex())), a);
  }
}

TEST(BigIntConvert, BytesRoundTripRandom) {
  DeterministicRng rng(811);
  for (int i = 0; i < 30; ++i) {
    std::size_t len = 1 + rng.uniform(200);
    Bytes raw = rng.bytes(len);
    BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be(len)), v);
  }
}

TEST(BigIntShift, LeftRightInverse) {
  DeterministicRng rng(5);
  BigInt v = BigInt::random_bits(300, rng);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((v << s) >> s, v) << "shift=" << s;
  }
  EXPECT_EQ((v >> 301).to_hex(), "0");
}

TEST(BigIntShift, ShiftMatchesMultiplication) {
  BigInt v(std::string_view("0x123456789abcdef"));
  EXPECT_EQ(v << 5, v * BigInt(32));
  EXPECT_EQ(v >> 4, v / BigInt(16));
}

TEST(BigIntBits, BitAccess) {
  BigInt v(std::uint64_t{0b1010});
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
}

TEST(BigIntNumberTheory, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_dec(), "12");
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(5)).to_dec(), "1");
  EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt(9)).to_dec(), "9");
}

TEST(BigIntNumberTheory, ExtGcdBezout) {
  DeterministicRng rng(77);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(128), rng);
    BigInt b = BigInt::random_bits(1 + rng.uniform(128), rng);
    auto e = BigInt::ext_gcd(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, BigInt::gcd(a, b));
  }
}

TEST(BigIntNumberTheory, ModInverse) {
  BigInt m(std::string_view("1000000007"));
  DeterministicRng rng(99);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    if (a.is_zero()) continue;
    BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv).mod(m).to_dec(), "1");
  }
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), Error);
}

TEST(BigIntNumberTheory, ModExpSmallKnown) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(4), BigInt(13), BigInt(497)).to_dec(),
            "445");
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(10), BigInt(1000)).to_dec(),
            "24");
  EXPECT_EQ(BigInt::mod_exp(BigInt(7), BigInt{}, BigInt(13)).to_dec(), "1");
}

TEST(BigIntNumberTheory, ModExpMatchesNaive) {
  DeterministicRng rng(4242);
  for (int i = 0; i < 20; ++i) {
    BigInt m = BigInt::random_bits(64, rng);
    if (m.is_even()) m = m + BigInt(1);
    BigInt base = BigInt::random_below(m, rng);
    std::uint64_t e = rng.uniform(50);
    BigInt naive(1);
    for (std::uint64_t j = 0; j < e; ++j) naive = (naive * base).mod(m);
    EXPECT_EQ(BigInt::mod_exp(base, BigInt(e), m), naive);
  }
}

TEST(BigIntNumberTheory, ModExpEvenModulus) {
  // Even moduli exercise the non-Montgomery fallback.
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), BigInt(4), BigInt(100)).to_dec(),
            "81");
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(3), BigInt(16)).to_dec(),
            "13");
}

TEST(BigIntNumberTheory, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigInt p(std::string_view("0xfffffffb"));  // 4294967291, prime
  DeterministicRng rng(31);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(BigInt::mod_exp(a, p - BigInt(1), p).to_dec(), "1");
  }
}

TEST(Montgomery, MatchesPlainModMul) {
  DeterministicRng rng(2024);
  for (int i = 0; i < 30; ++i) {
    BigInt m = BigInt::random_bits(256, rng);
    if (m.is_even()) m = m + BigInt(1);
    MontgomeryCtx ctx(words_of(m));
    BigInt a = BigInt::random_below(m, rng);
    BigInt b = BigInt::random_below(m, rng);
    EXPECT_EQ(from_mont(ctx, mont_mul(ctx, to_mont(ctx, a), to_mont(ctx, b))),
              (a * b).mod(m));
  }
}

TEST(Montgomery, ToFromMontRoundTrip) {
  DeterministicRng rng(11);
  BigInt m = BigInt::random_bits(512, rng);
  if (m.is_even()) m = m + BigInt(1);
  MontgomeryCtx ctx(words_of(m));
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    EXPECT_EQ(from_mont(ctx, to_mont(ctx, a)), a);
  }
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(words_of(BigInt(100))), Error);
  EXPECT_THROW(MontgomeryCtx(words_of(BigInt{})), Error);
}

TEST(Montgomery, ModExpMatchesGeneric) {
  DeterministicRng rng(314);
  BigInt m = BigInt::random_bits(192, rng);
  if (m.is_even()) m = m + BigInt(1);
  MontgomeryCtx ctx(words_of(m));
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::random_below(m, rng);
    BigInt exp = BigInt::random_bits(1 + rng.uniform(192), rng);
    // Generic square-and-multiply reference.
    BigInt ref(1);
    for (std::size_t b = exp.bit_length(); b-- > 0;) {
      ref = (ref * ref).mod(m);
      if (exp.bit(b)) ref = (ref * base).mod(m);
    }
    EXPECT_EQ(mod_exp(ctx, base, exp), ref);
  }
}

// Square-and-multiply on plain BigInt arithmetic: the generic path
// BigInt::mod_exp takes for even moduli, used here as the reference.
BigInt generic_mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  BigInt ref(1);
  for (std::size_t b = exp.bit_length(); b-- > 0;) {
    ref = (ref * ref).mod(m);
    if (exp.bit(b)) ref = (ref * base).mod(m);
  }
  return ref;
}

TEST(Montgomery, ModExpZeroWindowsMatchGeneric) {
  // Exponents made of zero windows exercise the always-multiply,
  // masked-select window scan: every zero window multiplies by table
  // entry 0 (R mod m) instead of skipping.
  DeterministicRng rng(0x2E80);
  const BigInt one(1);
  for (std::size_t bits : {512u, 1024u}) {
    BigInt m = BigInt::random_bits(bits, rng);
    if (m.is_even()) m = m + one;
    MontgomeryCtx ctx(words_of(m));
    const BigInt base = BigInt::random_below(m, rng);
    std::vector<BigInt> exps;
    for (std::size_t k : {25u, 64u, 255u, 256u, 511u}) exps.push_back(one << k);
    exps.push_back((one << (bits - 4)) + one);  // 0x1000...0001
    exps.push_back((one << bits) - one);        // all ones
    exps.push_back((one << 300) + (one << 40) + BigInt(0xF0F));
    for (const BigInt& e : exps) {
      const BigInt want = generic_mod_exp(base, e, m);
      EXPECT_EQ(mod_exp(ctx, base, e), want) << bits << " bits, e=" << e.to_hex();
      EXPECT_EQ(BigInt::mod_exp(base, e, m), want) << bits << " bits";
    }
  }
}

// --- Montgomery kernels against the exported portable CIOS -------------

using Words = std::vector<std::uint64_t>;

Words to_words(const BigInt& v, std::size_t n) {
  Words w(n, 0);
  const auto& limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    w[i / 2] |= static_cast<std::uint64_t>(limbs[i]) << (32 * (i % 2));
  }
  return w;
}

BigInt from_words(const Words& w) {
  std::vector<std::uint32_t> limbs(2 * w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    limbs[2 * i] = static_cast<std::uint32_t>(w[i]);
    limbs[2 * i + 1] = static_cast<std::uint32_t>(w[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

// One modulus in packed form, with mont_mul_portable as the reference.
struct PortableRef {
  PortableRef(const BigInt& modulus, std::size_t words)
      : m(modulus), n(words), mw(to_words(modulus, words)) {
    std::uint64_t inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2 - mw[0] * inv;
    k = 0 - inv;
  }
  Words mul(const Words& a, const Words& b) const {
    Words r(n);
    mont_mul_portable(r.data(), a.data(), b.data(), mw.data(), k, n);
    return r;
  }
  BigInt mul(const BigInt& a, const BigInt& b) const {
    return from_words(mul(to_words(a, n), to_words(b, n)));
  }
  BigInt m;
  std::size_t n;
  Words mw;
  std::uint64_t k;
};

// n-word odd moduli: top bit set, all ones (2^(64n) - 1, maximal
// carries), and a short top word.
std::vector<BigInt> kernel_moduli(std::size_t n, Rng& rng) {
  const BigInt one(1);
  BigInt full = BigInt::random_bits(64 * n, rng);
  BigInt low_top = BigInt::random_bits(64 * n - 60, rng);
  if (full.is_even()) full = full + one;
  if (low_top.is_even()) low_top = low_top + one;
  return {full, (one << (64 * n)) - one, low_top};
}

// 0, 1, m - 1, R mod m, and random residues.
std::vector<BigInt> kernel_operands(const MontgomeryCtx& ctx, Rng& rng) {
  const BigInt& m = modulus(ctx);
  std::vector<BigInt> ops = {BigInt{}, BigInt(1), m - BigInt(1),
                             mont_one(ctx)};
  for (int i = 0; i < 6; ++i) ops.push_back(BigInt::random_below(m, rng));
  return ops;
}

TEST(MontKernel, PortableIsMontgomeryProduct) {
  DeterministicRng rng(0x9017);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const PortableRef ref(m, n);
      const BigInt r = (BigInt(1) << (64 * n)).mod(m);
      for (int i = 0; i < 6; ++i) {
        const BigInt a = BigInt::random_below(m, rng);
        const BigInt b = BigInt::random_below(m, rng);
        const BigInt p = ref.mul(a, b);
        EXPECT_LT(p, m) << n << " words";
        EXPECT_EQ((p * r).mod(m), (a * b).mod(m)) << n << " words";
      }
    }
  }
}

TEST(MontKernel, DispatchedMatchesPortableEverySize) {
  DeterministicRng rng(0x4D4B);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const MontgomeryCtx ctx(words_of(m));
      const PortableRef ref(m, n);
      const std::vector<BigInt> ops = kernel_operands(ctx, rng);
      for (const BigInt& a : ops) {
        EXPECT_EQ(mont_sqr(ctx, a), ref.mul(a, a)) << n << " words";
        for (const BigInt& b : ops) {
          EXPECT_EQ(mont_mul(ctx, a, b), ref.mul(a, b)) << n << " words";
        }
      }
    }
  }
}

TEST(MontKernel, ChainedSquaringsMatchPortable) {
  DeterministicRng rng(0xC4A1);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const MontgomeryCtx ctx(words_of(m));
      const PortableRef ref(m, n);
      BigInt x = BigInt::random_below(m, rng);
      Words y = to_words(x, n);
      for (int step = 0; step < 1000; ++step) {
        x = mont_sqr(ctx, x);
        y = ref.mul(y, y);
      }
      EXPECT_EQ(x, from_words(y)) << n << " words";
    }
  }
}

// The ADX kernels of one size: 8 words (the CRT halves of RSA-1024) and
// 16 words (its public-key ops).
struct AdxKernel {
  std::size_t n;
  void (*mul)(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
              const std::uint64_t*, std::uint64_t, std::size_t);
  void (*sqr)(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
              std::uint64_t, std::size_t);
};

const AdxKernel kAdxKernels[] = {{8, &accel::mont_mul8, &accel::mont_sqr8},
                                 {16, &accel::mont_mul16, &accel::mont_sqr16}};

// The hardware kernels called directly on 0, 1, m - 1, R mod m and random
// residues, including in place (r == a).
TEST(MontAccel, KernelsMatchPortable) {
  if (!accel::mont_supported()) GTEST_SKIP() << "host lacks BMI2+ADX";
  DeterministicRng rng(0xADC5);
  for (const AdxKernel& kernel : kAdxKernels) {
    const std::size_t n = kernel.n;
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const MontgomeryCtx ctx(words_of(m));
      const PortableRef ref(m, n);
      const std::vector<BigInt> ops = kernel_operands(ctx, rng);
      for (const BigInt& a : ops) {
        const Words aw = to_words(a, n);
        Words r(n);
        kernel.sqr(r.data(), aw.data(), ref.mw.data(), ref.k, n);
        EXPECT_EQ(r, ref.mul(aw, aw)) << n << " words";
        Words sq_in_place = aw;
        kernel.sqr(sq_in_place.data(), sq_in_place.data(), ref.mw.data(),
                   ref.k, n);
        EXPECT_EQ(sq_in_place, r) << n << " words";
        for (const BigInt& b : ops) {
          const Words bw = to_words(b, n);
          kernel.mul(r.data(), aw.data(), bw.data(), ref.mw.data(), ref.k, n);
          EXPECT_EQ(r, ref.mul(aw, bw)) << n << " words";
          Words in_place = aw;
          kernel.mul(in_place.data(), in_place.data(), bw.data(),
                     ref.mw.data(), ref.k, n);
          EXPECT_EQ(in_place, r) << n << " words";
        }
      }
    }
  }
}

TEST(MontAccel, ChainedSquaringsMatchPortable) {
  if (!accel::mont_supported()) GTEST_SKIP() << "host lacks BMI2+ADX";
  DeterministicRng rng(0xADC6);
  for (const AdxKernel& kernel : kAdxKernels) {
    const std::size_t n = kernel.n;
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const PortableRef ref(m, n);
      Words x = to_words(BigInt::random_below(m, rng), n);
      Words y = x;
      Words z = x;
      for (int step = 0; step < 1000; ++step) {
        kernel.sqr(x.data(), x.data(), ref.mw.data(), ref.k, n);
        kernel.mul(z.data(), z.data(), z.data(), ref.mw.data(), ref.k, n);
        y = ref.mul(y, y);
      }
      EXPECT_EQ(x, y) << n << " words";
      EXPECT_EQ(z, y) << n << " words";
    }
  }
}

// reduce() against BigInt's mod for inputs of every width up to three
// times the modulus's, at the edges (0, m - 1, m, multiples of m, all
// ones) and at random.
TEST(Montgomery, ReduceMatchesBigIntMod) {
  DeterministicRng rng(0x5ED0);
  const BigInt one(1);
  for (std::size_t n : {1u, 4u, 7u, 8u, 16u}) {
    for (const BigInt& m : kernel_moduli(n, rng)) {
      const MontgomeryCtx ctx(words_of(m));
      for (std::size_t xw = 1; xw <= 3 * n; ++xw) {
        const BigInt top = one << (64 * xw);
        std::vector<BigInt> xs = {BigInt{}, top - one};
        if (m < top) xs.push_back(m - one), xs.push_back(m);
        if (m * BigInt(3) < top) xs.push_back(m * BigInt(3));
        for (int i = 0; i < 4; ++i) {
          xs.push_back(BigInt::random_below(top, rng));
        }
        for (const BigInt& x : xs) {
          const Words xw_words = to_words(x, xw);
          Words r(n);
          ctx.reduce(r.data(), xw_words.data(), xw);
          EXPECT_EQ(from_words(r), x.mod(m)) << n << " words, x of " << xw;
        }
      }
    }
  }
}

// --- The IFMA dual exponentiation ---------------------------------------

// The first thing accel::ifma_supported() needs that this host lacks, or
// "" when the dual kernel runs here.
std::string missing_ifma() {
  if (!__builtin_cpu_supports("avx512f")) return "flag avx512f";
  if (!__builtin_cpu_supports("avx512vl")) return "flag avx512vl";
  if (!__builtin_cpu_supports("avx512ifma")) return "flag avx512ifma";
  if (!__builtin_cpu_supports("bmi2")) return "flag bmi2";
  if (!accel::ifma_supported()) return "the x2 kernel (not compiled in)";
  return "";
}

#define SKIP_WITHOUT_IFMA()                                 \
  if (const std::string lack = missing_ifma(); !lack.empty()) \
  GTEST_SKIP() << "host lacks " << lack

// v (below 2^520) as a padded radix-2^52 multiplicand.
accel::Ifma52 to_ifma52(const BigInt& v) {
  accel::Ifma52 out{};
  for (std::size_t j = 0; j < accel::kIfmaLimbs; ++j) {
    const BigInt limb = (v >> (52 * j)) % (BigInt(1) << 52);
    out.w[8 + j] = limb.is_zero() ? 0 : limb.to_u64();
  }
  return out;
}

BigInt from_ifma52(const accel::Ifma52& x) {
  BigInt v;
  for (std::size_t j = accel::kIfmaLimbs; j-- > 0;) {
    v = (v << 52) + BigInt(x.w[8 + j]);
  }
  return v;
}

accel::IfmaModulus ifma_modulus_of(const BigInt& m) {
  const PortableRef ref(m, 8);
  const Words r2 = to_words((BigInt(1) << 1040).mod(m), 8);
  accel::IfmaModulus mod;
  accel::ifma_modulus(mod, ref.mw.data(), ref.k, r2.data());
  return mod;
}

// One dual product is a * b * 2^-520 mod m and stays below 2m, for
// inputs up to 2m - 1, on both halves at once.
TEST(MontIfma, AmmIsAlmostMontgomeryProduct) {
  SKIP_WITHOUT_IFMA();
  DeterministicRng rng(0x1F3A);
  const std::vector<BigInt> moduli = kernel_moduli(8, rng);
  const BigInt r = BigInt(1) << 520;
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    const BigInt& m0 = moduli[i];
    const BigInt& m1 = moduli[(i + 1) % moduli.size()];
    const accel::IfmaModulus mod[2] = {ifma_modulus_of(m0),
                                       ifma_modulus_of(m1)};
    auto operands = [&rng](const BigInt& m) {
      std::vector<BigInt> ops = {BigInt{}, BigInt(1), m - BigInt(1),
                                 m + m - BigInt(1)};
      for (int k = 0; k < 4; ++k) {
        ops.push_back(BigInt::random_below(m + m, rng));
      }
      return ops;
    };
    const std::vector<BigInt> ops0 = operands(m0), ops1 = operands(m1);
    for (std::size_t x = 0; x < ops0.size(); ++x) {
      for (std::size_t y = 0; y < ops0.size(); ++y) {
        const BigInt a[2] = {ops0[x], ops1[y]};
        const BigInt b[2] = {ops0[y], ops1[x]};
        accel::Ifma52 ia[2] = {to_ifma52(a[0]), to_ifma52(a[1])};
        const accel::Ifma52 ib[2] = {to_ifma52(b[0]), to_ifma52(b[1])};
        accel::Ifma52* const out[2] = {&ia[0], &ia[1]};  // in place
        const accel::Ifma52* const pa[2] = {&ia[0], &ia[1]};
        const accel::Ifma52* const pb[2] = {&ib[0], &ib[1]};
        const accel::IfmaModulus* const pm[2] = {&mod[0], &mod[1]};
        accel::amm52_x2(out, pa, pb, pm);
        const BigInt m[2] = {m0, m1};
        for (int h = 0; h < 2; ++h) {
          const BigInt got = from_ifma52(ia[h]);
          EXPECT_LT(got, m[h] + m[h]);
          EXPECT_EQ((got * r).mod(m[h]), (a[h] * b[h]).mod(m[h]))
              << "half " << h;
        }
      }
    }
  }
}

// mod_exp_pair on the dual kernel against two mod_exp calls on the
// per-modulus kernels: 12 prime pairs of 8-word primes (512 down to 449
// bits) x 86 cases. Each pair runs the edge bases 0, 1 and p - 1 against
// exponents whose windows are all zero (2^511) or all ones (2^512 - 1),
// and 0 and 1; then random bases against random exponents of independent
// random lengths, so the halves' exponents differ in bit length.
TEST(MontIfma, PairMatchesTwoModExp) {
  SKIP_WITHOUT_IFMA();
  DeterministicRng rng(0x1F3B);
  const BigInt one(1);
  const std::vector<BigInt> edge_exps = {
      BigInt{}, one, one << 511, (one << 512) - one};
  const std::size_t bits[] = {512, 512, 511, 500, 480, 449};
  std::size_t cases = 0;
  for (std::size_t pair = 0; pair < 12; ++pair) {
    const BigInt p = random_prime(bits[pair % 6], rng);
    const BigInt q = random_prime(bits[(pair + 1 + pair / 6) % 6], rng);
    const MontgomeryCtx cp(words_of(p)), cq(words_of(q));
    auto check = [&](const BigInt& b1, const BigInt& e1, const BigInt& b2,
                     const BigInt& e2) {
      const auto [r1, r2] = mod_exp_pair(cp, b1, e1, cq, b2, e2);
      EXPECT_EQ(r1, mod_exp(cp, b1, e1))
          << "pair " << pair << " e1 bits " << e1.bit_length();
      EXPECT_EQ(r2, mod_exp(cq, b2, e2))
          << "pair " << pair << " e2 bits " << e2.bit_length();
      ++cases;
    };
    const BigInt edge_p[] = {BigInt{}, one, p - one};
    const BigInt edge_q[] = {BigInt{}, one, q - one};
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t e = 0; e < edge_exps.size(); ++e) {
        check(edge_p[i], edge_exps[e], edge_q[(i + e) % 3],
              edge_exps[(e + 1) % edge_exps.size()]);
      }
    }
    for (int k = 0; k < 74; ++k) {
      const BigInt e1 = BigInt::random_bits(1 + rng.next_u64() % 512, rng);
      const BigInt e2 = BigInt::random_bits(1 + rng.next_u64() % 512, rng);
      check(BigInt::random_below(p, rng), e1, BigInt::random_below(q, rng),
            e2);
    }
  }
  EXPECT_GE(cases, 1000u);
}

// Exponents wider than the kernel's 512 bits take the two-call path.
TEST(MontIfma, PairWithWideExponentMatchesTwoModExp) {
  DeterministicRng rng(0x1F3C);
  const BigInt p = random_prime(512, rng), q = random_prime(512, rng);
  const MontgomeryCtx cp(words_of(p)), cq(words_of(q));
  const BigInt b1 = BigInt::random_below(p, rng);
  const BigInt b2 = BigInt::random_below(q, rng);
  const BigInt e1 = BigInt::random_bits(600, rng);
  const BigInt e2 = BigInt::random_bits(512, rng);
  const auto [r1, r2] = mod_exp_pair(cp, b1, e1, cq, b2, e2);
  EXPECT_EQ(r1, BigInt::mod_exp(b1, e1, p));
  EXPECT_EQ(r2, BigInt::mod_exp(b2, e2, q));
}

// --- Key-generation steps on limbs against the oracle -------------------

TEST(LimbSteps, SingleWordRemaindersMatchOracle) {
  DeterministicRng rng(0x5EED);
  for (std::size_t words : {1u, 2u, 8u, 17u, 64u}) {
    for (std::uint64_t d : {1ull, 2ull, 3ull, 251ull, 65537ull, 111546435ull,
                            4294967291ull, 4294967295ull}) {
      const BigInt a = BigInt::random_bits(64 * words - rng.uniform(63), rng);
      std::vector<Word> w(words), q(words);
      from_bigint(w.data(), words, a);
      EXPECT_EQ(BigInt(mod_word(w.data(), words, d)), a % BigInt(d))
          << words << " words mod " << d;
      const Word r = div_word(q.data(), w.data(), words, d);
      EXPECT_EQ(BigInt(r), a % BigInt(d));
      EXPECT_EQ(to_bigint(q.data(), words), a / BigInt(d));
      div_word(w.data(), w.data(), words, d);  // in place
      EXPECT_EQ(w, q);
    }
  }
}

TEST(LimbSteps, SmallInverseMatchesModInverse) {
  DeterministicRng rng(0x1F5);
  const BigInt one(1);
  for (std::size_t bits : {40u, 256u, 511u, 1024u, 2048u, 4096u}) {
    for (std::uint64_t e : {3ull, 17ull, 65537ull, 4294967291ull}) {
      // Even moduli, as p - 1 and (p - 1)(q - 1) are, and odd ones.
      const BigInt m = BigInt::random_bits(bits, rng) + BigInt(rng.uniform(2));
      const std::size_t n = words_for_bits(m.bit_length());
      std::vector<Word> mw(n), out(n, 0);
      from_bigint(mw.data(), n, m);
      if (BigInt::gcd(m, BigInt(e)) == one) {
        ASSERT_TRUE(inverse_of_small(out.data(), mw.data(), n, e)) << bits;
        EXPECT_EQ(to_bigint(out.data(), n), BigInt::mod_inverse(BigInt(e), m))
            << bits << " bits, e = " << e;
      } else {
        EXPECT_FALSE(inverse_of_small(out.data(), mw.data(), n, e));
      }
    }
  }
  // A modulus divisible by e has no inverse of e: refused, out untouched.
  const BigInt m = BigInt::random_bits(1024, rng) * BigInt(65537);
  const std::size_t n = words_for_bits(m.bit_length());
  std::vector<Word> mw(n), out(n, 7);
  from_bigint(mw.data(), n, m);
  EXPECT_FALSE(inverse_of_small(out.data(), mw.data(), n, 65537));
  EXPECT_EQ(out, std::vector<Word>(n, 7));
  EXPECT_THROW(BigInt::mod_inverse(BigInt(65537), m), Error);
}

TEST(LimbSteps, RandomBelowDrawsAsTheOracleDoes) {
  for (const char* hex : {"0x10000000000000000000001", "0xff", "0x100",
                          "0x1ffffffffffffffffffffffffffffffff"}) {
    const BigInt bound{std::string_view(hex)};
    const std::size_t n = words_for_bits(bound.bit_length());
    std::vector<Word> bw(n), w(n);
    from_bigint(bw.data(), n, bound);
    DeterministicRng limb_rng(77), oracle_rng(77);
    for (int i = 0; i < 50; ++i) {
      random_below(w.data(), bw.data(), n, limb_rng);
      EXPECT_EQ(to_bigint(w.data(), n),
                BigInt::random_below(bound, oracle_rng)) << hex;
    }
    EXPECT_EQ(limb_rng.next_u64(), oracle_rng.next_u64()) << hex;
  }
  const Word zero = 0;
  Word out;
  DeterministicRng rng(1);
  EXPECT_THROW(random_below(&out, &zero, 1, rng), Error);
}

// The constructor's R mod m and R^2 mod m, built by doublings and
// Montgomery squarings, at every word count: for each n, moduli with the
// top bit set (no doubling), with only the lowest bit of the top word
// set (63 doublings) and at random lengths.
TEST(LimbSteps, MontgomeryR2MatchesOracleAtEveryWidth) {
  DeterministicRng rng(0x22);
  const BigInt one(1);
  for (std::size_t n = 1; n <= kMaxWords; ++n) {
    const BigInt r = one << (64 * n);
    for (std::size_t bits : {64 * n, 64 * n - 63,
                             64 * n - 1 - rng.uniform(63)}) {
      BigInt m = BigInt::random_bits(bits, rng);
      if (m.is_even()) m = m + one;
      const MontgomeryCtx ctx(words_of(m));
      ASSERT_EQ(ctx.words(), n);
      EXPECT_EQ(mont_one(ctx), r.mod(m)) << n << " words, " << bits;
      const BigInt a = BigInt::random_below(m, rng);
      EXPECT_EQ(to_mont(ctx, a), (a * r).mod(m)) << n << " words, " << bits;
    }
  }
  // The smallest moduli.
  for (std::uint64_t m : {1ull, 3ull, 5ull, 0xffffffffffffffffull}) {
    const MontgomeryCtx ctx(words_of(BigInt(m)));
    EXPECT_EQ(mont_one(ctx), (one << 64).mod(BigInt(m))) << m;
  }
}

// The IFMA kernel's own R^2 (R = 2^520) comes from one short
// exponentiation on the context; a wrong one shows in every dual result.
TEST(MontIfma, KernelR2AtEveryEightWordLength) {
  if (!accel::ifma_supported()) GTEST_SKIP() << "host lacks AVX-512 IFMA";
  DeterministicRng rng(0x1FA);
  for (std::size_t bits : {449u, 450u, 463u, 480u, 500u, 511u, 512u}) {
    BigInt p = BigInt::random_bits(bits, rng);
    BigInt q = BigInt::random_bits(bits, rng);
    if (p.is_even()) p = p + BigInt(1);
    if (q.is_even()) q = q + BigInt(1);
    const MontgomeryCtx cp(words_of(p)), cq(words_of(q));
    const BigInt b1 = BigInt::random_below(p, rng);
    const BigInt b2 = BigInt::random_below(q, rng);
    const BigInt e1 = BigInt::random_bits(bits, rng);
    const BigInt e2 = BigInt::random_bits(bits - 1, rng);
    const auto [r1, r2] = mod_exp_pair(cp, b1, e1, cq, b2, e2);
    EXPECT_EQ(r1, BigInt::mod_exp(b1, e1, p)) << bits;
    EXPECT_EQ(r2, BigInt::mod_exp(b2, e2, q)) << bits;
  }
}

TEST(Prime, KnownPrimesAndComposites) {
  DeterministicRng rng(55);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 65537ull, 4294967291ull}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 4294967295ull}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  DeterministicRng rng(56);
  // Fermat pseudoprimes that Miller-Rabin must still reject.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 6601ull}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, MersennePrime) {
  DeterministicRng rng(57);
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 + BigInt(2), rng));
}

class PrimeGeneration : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimeGeneration, GeneratesExactWidthOddPrimes) {
  std::size_t bits = GetParam();
  DeterministicRng rng(bits);
  BigInt p = random_prime(bits, rng);
  EXPECT_EQ(p.bit_length(), bits);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.bit(bits - 2)) << "second-highest bit must be set for RSA";
  DeterministicRng check(999);
  EXPECT_TRUE(is_probable_prime(p, check));
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeGeneration,
                         ::testing::Values(16, 32, 64, 128, 256));

// An Rng that draws only zeros: generate_prime's only candidate is then
// 3 * 2^(bits-2) + 1, composite at each width below. The search must
// give up with kCrypto after 64 * bits candidates, not loop forever.
class ZeroRng final : public Rng {
 public:
  void fill(std::uint8_t* out, std::size_t len) override {
    std::fill_n(out, len, std::uint8_t{0});
  }
  std::uint64_t next_u64() override { return 0; }
};

TEST(PrimeGenerationBound, AllZeroRngThrowsInsteadOfSearchingForever) {
  for (std::size_t bits : {16u, 64u, 256u, 512u, 1024u}) {
    ZeroRng zero;
    try {
      (void)generate_prime(bits, zero);
      ADD_FAILURE() << bits << " bits: a composite passed";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), omadrm::ErrorKind::kCrypto) << bits << " bits";
    }
  }
}

TEST(RandomBelow, StaysInRangeAndVaries) {
  DeterministicRng rng(123);
  BigInt bound(std::string_view("0x10000000000000000000001"));
  BigInt prev;
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::random_below(bound, rng);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
    if (i > 0 && !(v == prev)) varied = true;
    prev = v;
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace omadrm::bigint
