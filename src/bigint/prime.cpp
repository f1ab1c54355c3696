#include "bigint/prime.h"

#include <algorithm>
#include <array>
#include <utility>

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
                          const Word* a) {
  const std::size_t nw = ctx.words();
  auto equal = [nw](const Word* u, const Word* v) {
    return std::equal(u, u + nw, v);
  };
  Word x[kMaxWords], t[kMaxWords];
  ctx.mod_exp(x, a, d);
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

bool is_probable_prime(std::span<const Word> n_in, Rng& rng,
                       std::size_t rounds) {
  const Word* n = n_in.data();
  const std::size_t nw = words_for_bits(bit_length_n(n, n_in.size()));
  if (nw == 0 || (nw == 1 && n[0] == 1)) return false;

  // Trial division: one single-word remainder per run of small primes
  // whose product stays below 2^32, then each prime divides that.
  for (std::size_t i = 0; i < kSmallPrimes.size();) {
    Word product = 1;
    std::size_t end = i;
    while (end < kSmallPrimes.size() &&
           product * kSmallPrimes[end] < (Word{1} << 32)) {
      product *= kSmallPrimes[end++];
    }
    const Word rem = mod_word(n, nw, product);
    for (; i < end; ++i) {
      if (nw == 1 && n[0] == kSmallPrimes[i]) return true;
      if (rem % kSmallPrimes[i] == 0) return false;
    }
  }

  // Write n-1 = d * 2^r with d odd. n is odd here, so n-1 only clears
  // bit 0.
  Word n_minus_1[kMaxWords], d[kMaxWords];
  if (nw > kMaxWords) {
    throw Error(ErrorKind::kCrypto, "is_probable_prime: modulus too wide");
  }
  std::copy_n(n, nw, n_minus_1);
  n_minus_1[0] ^= 1;
  std::size_t r = 0;
  while (((n_minus_1[r / 64] >> (r % 64)) & 1) == 0) ++r;
  std::fill_n(d, nw, 0);
  for (std::size_t j = r / 64; j < nw; ++j) {
    const std::size_t s = r % 64;
    d[j - r / 64] = n_minus_1[j] >> s;
    if (s != 0 && j + 1 < nw) d[j - r / 64] |= n_minus_1[j + 1] << (64 - s);
  }

  // One context per candidate: candidate moduli are throwaway.
  const MontgomeryCtx ctx(std::span<const Word>(n, nw));
  Word mont_n_minus_1[kMaxWords];
  ctx.to_mont(mont_n_minus_1, n_minus_1);
  const std::span<const Word> dspan(d, nw);

  // Base 2 first (cheap and catches most composites), then random bases
  // in [2, n-2].
  Word a[kMaxWords] = {2};
  if (!miller_rabin_witness(ctx, mont_n_minus_1, dspan, r, a)) {
    return false;
  }
  const Word three[kMaxWords] = {3}, two[kMaxWords] = {2};
  Word n_minus_3[kMaxWords];
  sub_n(n_minus_3, n, three, nw);
  for (std::size_t i = 0; i < rounds; ++i) {
    random_below(a, n_minus_3, nw, rng);
    add_n(a, a, two, nw);
    if (!miller_rabin_witness(ctx, mont_n_minus_1, dspan, r, a)) {
      return false;
    }
  }
  return true;
}

Limbs generate_prime(std::size_t bits, Rng& rng) {
  if (bits < 8 || bits > 64 * kMaxWords) {
    throw omadrm::Error(omadrm::ErrorKind::kRange,
                        "generate_prime: need 8 to 4096 bits");
  }
  const std::size_t len = (bits + 7) / 8, excess = 8 * len - bits;
  const std::size_t nw = words_for_bits(bits);
  std::array<std::uint8_t, kMaxBytes> raw;
  Limbs c;
  c.n = nw;
  // About 0.35 * bits odd candidates are expected before a prime, so an
  // honest search exhausts 64 * bits with probability about e^-185; a
  // search that does is a broken Rng or primality test, not bad luck.
  for (std::size_t tries = 64 * bits; tries > 0; --tries) {
    rng.fill(raw.data(), len);
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // top bit
    from_be(c.w.data(), nw, ByteView(raw.data(), len));
    // Add 2^(bits-2) so p*q has exactly 2*bits bits; a carry past the
    // width redraws.
    Word carry = Word{1} << ((bits - 2) % 64);
    for (std::size_t j = (bits - 2) / 64; j < nw; ++j) {
      c.w[j] += carry;
      carry = c.w[j] < carry;
    }
    if (carry != 0 || bit_length_n(c.w.data(), nw) > bits) continue;
    c.w[0] |= 1;
    if (is_probable_prime(c.span(), rng)) return c;
  }
  throw omadrm::Error(omadrm::ErrorKind::kCrypto,
                      "generate_prime: no prime in 64 * bits candidates");
}

bool inverse_of_small(Word* out, const Word* m, std::size_t n, Word e) {
  // k = -m^-1 mod e by the extended Euclidean algorithm on words.
  const auto e_signed = static_cast<std::int64_t>(e);
  std::int64_t r0 = e_signed;
  std::int64_t r1 = static_cast<std::int64_t>(mod_word(m, n, e));
  std::int64_t s0 = 0, s1 = 1;  // r_i = s_i * (m mod e) mod e
  while (r1 != 0) {
    const std::int64_t q = r0 / r1;
    r0 = std::exchange(r1, r0 - q * r1);
    s0 = std::exchange(s1, s0 - q * s1);
  }
  if (r0 != 1) return false;
  const Word k = e - static_cast<Word>(s0 < 0 ? s0 + e_signed : s0);

  // 1 + k m is a multiple of e by the choice of k; the quotient is below
  // m, so it fits n words.
  Word t[kMaxWords + 1];
  mul_n(t, m, n, &k, 1);
  const Word one[kMaxWords + 1] = {1};
  add_n(t, t, one, n + 1);
  if (div_word(t, t, n + 1, e) != 0) {
    throw Error(ErrorKind::kCrypto, "inverse_of_small: inexact division");
  }
  std::copy_n(t, n, out);
  return true;
}

}  // namespace omadrm::bigint
