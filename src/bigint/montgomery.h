// Montgomery modular arithmetic for odd moduli.
//
// The paper's hardware RSA numbers come from a Montgomery-multiplier design
// (McIvor et al., Asilomar 2003); the software path here uses the same
// mathematics: CIOS (coarsely integrated operand scanning) multiplication
// and a fixed 4-bit-window exponentiation. This is what makes real
// RSA-1024 operations cheap enough to run thousands of times in the test
// suite and benchmarks.
//
// Internally the context computes on 64-bit words (128-bit products), a
// 4x multiply-count reduction over the BigInt library's 32-bit limbs, and
// every exponentiation runs on a fixed set of scratch buffers — after the
// initial conversion no Montgomery multiply touches the heap. The BigInt
// public surface is unchanged; pack/unpack at the call boundary is O(n).
//
// Dispatch: the constructor picks the multiply and square routines once,
// from the word count and the host. 8-word moduli (the 512-bit CRT halves
// of RSA-1024) run the BMI2/ADX kernels of mont_accel.h when the CPU has
// them — the repo's counterpart of the paper's RSA hardware macro. Every
// other size (1024-bit public keys included), and every host without
// ADX, runs mont_mul_portable. Both give identical results; contexts are
// safe to share.
//
// The two CRT halves of a private-key op go through mod_exp_pair. When
// both contexts are 8 words and the host has AVX-512 IFMA
// (accel::ifma_supported()), it runs them as one dual exponentiation in
// radix 2^52 (accel::mod_exp_x2_ifma), each half hiding the other's
// latency; otherwise it makes the two mod_exp calls. The kernel's form of
// the modulus (its 52-bit views, k0 and R^2 for R = 2^520) is built once
// per context, on its first dual exponentiation, so contexts that never
// serve one (Miller-Rabin builds one per candidate) never pay for it.
// Every path gives the same result.
//
// Squarings go through the square routine — on the kernel path a
// dedicated square (about 36 instead of 64 word products), on the
// portable path a multiply — so exponentiation costs roughly one
// squaring per exponent bit plus one multiply per 4-bit window.
//
// The windowed exponentiations are constant-time in the exponent bits: every
// window multiplies (entry 0 of the table is 1 in Montgomery form) and the
// entry is read with a masked scan over the whole table, so neither a
// branch nor a load address depends on the private CRT exponents. Only
// the exponent's bit length is visible. The short-exponent path, used for
// public exponents, branches on the bits.
//
// Contexts are expensive to build (R^2 mod m needs a full division) and
// cheap to reuse, so each RSA key keeps its own in an rsa::CtxSlot
// (rsa/rsa.h) and builds it once. montgomery_ctx_builds() counts the
// constructions, so tests and benchmarks can see a workload's setup cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "bigint/bigint.h"

namespace omadrm::bigint {

namespace accel {
struct IfmaModulus;
}

/// Generic CIOS Montgomery product over n 64-bit words:
/// r = a * b * R^-1 mod m with R = 2^(64 n), fully reduced, for an odd
/// modulus m, operands a, b < m and m_prime = -m^-1 mod 2^64. `r` must not
/// overlap `a` or `b`. The path for every size without a hardware kernel
/// and for hosts without BMI2+ADX; exported so tests and benchmarks can
/// force it, as crypto::sha1_compress_portable is.
void mont_mul_portable(std::uint64_t* r, const std::uint64_t* a,
                       const std::uint64_t* b, const std::uint64_t* m,
                       std::uint64_t m_prime, std::size_t n);

/// Number of MontgomeryCtx objects constructed in this process so far.
/// Read-only; diff it around a workload to count the contexts it built.
std::uint64_t montgomery_ctx_builds();

class MontgomeryCtx {
 public:
  /// Window width of the fixed-window exponentiation.
  static constexpr std::size_t kWindowBits = 4;

  /// Exponents at or below this bit length skip the window table and use
  /// plain left-to-right square-and-multiply: for the ubiquitous RSA
  /// public exponent 65537 (17 bits) that is 16 squarings + 1 multiply
  /// instead of 14 table multiplies + 20 squarings.
  static constexpr std::size_t kPlainExpBits = 24;

  /// Prepares a context for the odd modulus `m` (throws kCrypto otherwise).
  explicit MontgomeryCtx(const BigInt& m);
  ~MontgomeryCtx();

  /// base^exp mod m. `base` must already be reduced mod m.
  BigInt mod_exp(const BigInt& base, const BigInt& exp) const;

  /// {b1^e1 mod c1.modulus(), b2^e2 mod c2.modulus()}: the two CRT
  /// halves of an RSA private-key op, bases reduced. When both moduli are
  /// 8 words, both exponents fit 512 bits and the host has AVX-512 IFMA,
  /// the halves run together in accel::mod_exp_x2_ifma; otherwise this is
  /// c1.mod_exp(b1, e1) and c2.mod_exp(b2, e2).
  static std::pair<BigInt, BigInt> mod_exp_pair(const MontgomeryCtx& c1,
                                                const BigInt& b1,
                                                const BigInt& e1,
                                                const MontgomeryCtx& c2,
                                                const BigInt& b2,
                                                const BigInt& e2);

  /// Montgomery product: a * b * R^-1 mod m, on reduced operands.
  BigInt mont_mul(const BigInt& a, const BigInt& b) const;

  /// Montgomery square: a * a * R^-1 mod m, on a reduced operand.
  BigInt mont_sqr(const BigInt& a) const;

  /// Conversion into / out of Montgomery form.
  BigInt to_mont(const BigInt& a) const;
  BigInt from_mont(const BigInt& a) const;

  const BigInt& modulus() const { return m_; }

  /// 1 in Montgomery form (R mod m) — the exponentiation identity.
  const BigInt& mont_one() const { return one_mont_; }

 private:
  using Words = std::vector<std::uint64_t>;
  using MulFn = void (*)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, const std::uint64_t*,
                         std::uint64_t, std::size_t);
  using SqrFn = void (*)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, std::uint64_t, std::size_t);

  // r <- a * b * R^-1 and r <- a * a * R^-1 on nw_-word operands through
  // the routines chosen at construction. `r` must not overlap the inputs.
  void mul(std::uint64_t* r, const std::uint64_t* a,
           const std::uint64_t* b) const {
    mul_(r, a, b, mw_.data(), m_prime64_, nw_);
  }
  void sqr(std::uint64_t* r, const std::uint64_t* a) const {
    sqr_(r, a, mw_.data(), m_prime64_, nw_);
  }

  // 64-bit word packing of a (non-negative, reduced) BigInt.
  Words pack(const BigInt& v) const;
  BigInt unpack(const Words& w) const;

  // The modulus in the IFMA kernel's form, built on first use.
  const accel::IfmaModulus& ifma_modulus() const;

  BigInt m_;
  std::size_t n_;             // 32-bit limb count of the modulus
  std::size_t nw_;            // 64-bit word count of the modulus
  Words mw_;                  // modulus, packed
  std::uint64_t m_prime64_;   // -m^-1 mod 2^64
  MulFn mul_;                 // accel kernel or mont_mul_portable
  SqrFn sqr_;
  Words r2w_;                 // R^2 mod m, for to_mont
  Words onew_;                // R mod m (1 in Montgomery form)
  Words one_plain_;           // plain 1, the from-Montgomery multiplier
  BigInt one_mont_;           // R mod m as a BigInt, for mont_one()
  mutable std::once_flag ifma_once_;
  mutable std::unique_ptr<const accel::IfmaModulus> ifma_;
};

}  // namespace omadrm::bigint
