// BigInt adapters over the fixed-width MontgomeryCtx API and the prime
// routines of prime.h, so tests can state their identities in BigInt
// arithmetic. Each call converts its operands to words and back.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "bigint/limbs.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "oracle/bigint.h"

namespace omadrm::bigint::mont_test {

inline std::vector<Word> words(const MontgomeryCtx& ctx, const BigInt& v) {
  std::vector<Word> w(ctx.words());
  from_bigint(w.data(), w.size(), v);
  return w;
}

/// The significant words of v: a modulus for the MontgomeryCtx
/// constructor, or an exponent. A negative v throws kRange.
inline std::vector<Word> words_of(const BigInt& v) {
  std::vector<Word> w(words_for_bits(v.bit_length()));
  from_bigint(w.data(), w.size(), v);
  return w;
}

inline BigInt modulus(const MontgomeryCtx& ctx) {
  return to_bigint(ctx.modulus(), ctx.words());
}

inline BigInt mont_one(const MontgomeryCtx& ctx) {
  return to_bigint(ctx.one(), ctx.words());
}

inline BigInt mont_mul(const MontgomeryCtx& ctx, const BigInt& a,
                       const BigInt& b) {
  std::vector<Word> r(ctx.words());
  ctx.mul(r.data(), words(ctx, a).data(), words(ctx, b).data());
  return to_bigint(r.data(), r.size());
}

inline BigInt mont_sqr(const MontgomeryCtx& ctx, const BigInt& a) {
  std::vector<Word> r(ctx.words());
  ctx.sqr(r.data(), words(ctx, a).data());
  return to_bigint(r.data(), r.size());
}

inline BigInt to_mont(const MontgomeryCtx& ctx, const BigInt& a) {
  std::vector<Word> r(ctx.words());
  ctx.to_mont(r.data(), words(ctx, a).data());
  return to_bigint(r.data(), r.size());
}

inline BigInt from_mont(const MontgomeryCtx& ctx, const BigInt& a) {
  std::vector<Word> r(ctx.words());
  ctx.from_mont(r.data(), words(ctx, a).data());
  return to_bigint(r.data(), r.size());
}

inline BigInt mod_exp(const MontgomeryCtx& ctx, const BigInt& base,
                      const BigInt& exp) {
  std::vector<Word> r(ctx.words());
  ctx.mod_exp(r.data(), words(ctx, base).data(), words_of(exp));
  return to_bigint(r.data(), r.size());
}

inline std::pair<BigInt, BigInt> mod_exp_pair(const MontgomeryCtx& c1,
                                              const BigInt& b1,
                                              const BigInt& e1,
                                              const MontgomeryCtx& c2,
                                              const BigInt& b2,
                                              const BigInt& e2) {
  std::vector<Word> r1(c1.words()), r2(c2.words());
  MontgomeryCtx::mod_exp_pair(c1, r1.data(), words(c1, b1).data(),
                              words_of(e1), c2, r2.data(),
                              words(c2, b2).data(), words_of(e2));
  return {to_bigint(r1.data(), r1.size()), to_bigint(r2.data(), r2.size())};
}

/// generate_prime's prime as a BigInt.
inline BigInt random_prime(std::size_t bits, Rng& rng) {
  const Limbs p = generate_prime(bits, rng);
  return to_bigint(p.w.data(), p.n);
}

inline bool is_probable_prime(const BigInt& n, Rng& rng,
                              std::size_t rounds = 20) {
  return bigint::is_probable_prime(words_of(n), rng, rounds);
}

}  // namespace omadrm::bigint::mont_test
