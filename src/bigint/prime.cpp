#include "bigint/prime.h"

#include <algorithm>
#include <array>
#include <span>

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
// ctx.one() and `mont_n_minus_1` are the comparison targets in that
// domain.
bool miller_rabin_witness(const MontgomeryCtx& ctx,
                          const Word* mont_n_minus_1,
                          std::span<const Word> d, std::size_t r,
                          const BigInt& a) {
  const std::size_t nw = ctx.words();
  auto equal = [nw](const Word* u, const Word* v) {
    return std::equal(u, u + nw, v);
  };
  Word x[kMaxWords], t[kMaxWords];
  from_bigint(t, nw, a);
  ctx.mod_exp(x, t, d);
  ctx.to_mont(t, x);
  if (equal(t, ctx.one()) || equal(t, mont_n_minus_1)) return true;
  for (std::size_t i = 1; i < r; ++i) {
    ctx.sqr(x, t);
    std::copy_n(x, nw, t);
    if (equal(t, mont_n_minus_1)) return true;
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

  // One context per candidate: candidate moduli are throwaway.
  const MontgomeryCtx ctx(n);
  const std::size_t nw = ctx.words();
  Word dw[kMaxWords], t[kMaxWords], mont_n_minus_1[kMaxWords];
  from_bigint(dw, nw, d);
  from_bigint(t, nw, n_minus_1);
  ctx.to_mont(mont_n_minus_1, t);
  const std::span<const Word> dspan(dw, nw);

  // Base 2 first (cheap and catches most composites), then random bases.
  if (!miller_rabin_witness(ctx, mont_n_minus_1, dspan, r, two)) {
    return false;
  }
  for (std::size_t i = 0; i < rounds; ++i) {
    BigInt a = BigInt::random_below(n - BigInt(std::uint64_t{3}), rng) + two;
    if (!miller_rabin_witness(ctx, mont_n_minus_1, dspan, r, a)) {
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
