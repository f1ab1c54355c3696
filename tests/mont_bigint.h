// BigInt adapters over the fixed-width MontgomeryCtx API, so tests can
// state Montgomery identities in BigInt arithmetic. Each call converts
// its operands to the context's word count and back.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limbs.h"
#include "bigint/montgomery.h"

namespace omadrm::bigint::mont_test {

inline std::vector<Word> words(const MontgomeryCtx& ctx, const BigInt& v) {
  std::vector<Word> w(ctx.words());
  from_bigint(w.data(), w.size(), v);
  return w;
}

inline std::vector<Word> exponent(const BigInt& e) {
  std::vector<Word> w(words_for_bits(e.bit_length()));
  from_bigint(w.data(), w.size(), e);
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
  ctx.mod_exp(r.data(), words(ctx, base).data(), exponent(exp));
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
                              exponent(e1), c2, r2.data(),
                              words(c2, b2).data(), exponent(e2));
  return {to_bigint(r1.data(), r1.size()), to_bigint(r2.data(), r2.size())};
}

}  // namespace omadrm::bigint::mont_test
