#include "bigint/prime.h"

#include <array>

#include "bigint/montgomery.h"
#include "common/error.h"

namespace omadrm::bigint {

namespace {

// Primes below 256 for cheap trial division.
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// One witness round against the candidate behind `ctx`. Squarings run in
// the Montgomery domain (one square each) instead of multiply + divide;
// `mont_one` / `mont_n_minus_1` are the comparison targets in that domain.
bool miller_rabin_witness(const bigint::MontgomeryCtx& ctx,
                          const BigInt& mont_one,
                          const BigInt& mont_n_minus_1, const BigInt& d,
                          std::size_t r, const BigInt& a) {
  BigInt x = ctx.to_mont(ctx.mod_exp(a, d));
  if (x == mont_one || x == mont_n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = ctx.mont_sqr(x);
    if (x == mont_n_minus_1) return true;
  }
  return false;  // composite witness found
}

}  // namespace

bool is_probable_prime(const BigInt& n, Rng& rng, std::size_t rounds) {
  const BigInt one(std::uint64_t{1});
  const BigInt two(std::uint64_t{2});
  if (n.is_negative() || n.is_zero() || n == one) return false;

  for (std::uint32_t p : kSmallPrimes) {
    BigInt bp(static_cast<std::uint64_t>(p));
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^r with d odd.
  BigInt n_minus_1 = n - one;
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  // One context per candidate, built directly: candidate moduli are
  // throwaway, so going through the shared cache would only churn its LRU.
  MontgomeryCtx ctx(n);
  const BigInt& mont_one = ctx.mont_one();
  BigInt mont_n_minus_1 = ctx.to_mont(n_minus_1);

  // Base 2 first (cheap and catches most composites), then random bases.
  if (!miller_rabin_witness(ctx, mont_one, mont_n_minus_1, d, r, two)) {
    return false;
  }
  for (std::size_t i = 0; i < rounds; ++i) {
    BigInt a = BigInt::random_below(n - BigInt(std::uint64_t{3}), rng) + two;
    if (!miller_rabin_witness(ctx, mont_one, mont_n_minus_1, d, r, a)) {
      return false;
    }
  }
  return true;
}

BigInt generate_prime(std::size_t bits, Rng& rng) {
  if (bits < 8) {
    throw omadrm::Error(omadrm::ErrorKind::kRange,
                        "generate_prime: need at least 8 bits");
  }
  for (;;) {
    BigInt candidate = BigInt::random_bits(bits, rng);
    // Force the second-highest bit so p*q has exactly 2*bits bits, and make
    // the candidate odd.
    candidate = candidate + (BigInt(std::uint64_t{1}) << (bits - 2));
    if (candidate.bit_length() > bits) {
      continue;  // carry overflowed the width; redraw
    }
    if (candidate.is_even()) candidate = candidate + BigInt(std::uint64_t{1});
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace omadrm::bigint
