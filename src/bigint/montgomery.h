// Montgomery modular arithmetic for odd moduli.
//
// The paper's hardware RSA numbers come from a Montgomery-multiplier design
// (McIvor et al., Asilomar 2003); the software path here uses the same
// mathematics: CIOS (coarsely integrated operand scanning) multiplication
// and a fixed 4-bit-window exponentiation. This is what makes real
// RSA-1024 operations cheap enough to run thousands of times in the test
// suite and benchmarks.
//
// The context works on the fixed-width limbs of limbs.h: it takes and
// returns caller-owned arrays of words() 64-bit words, keeps its own
// constants in fixed arrays, and runs every operation on stack scratch,
// so no call touches the heap. Only construction uses BigInt (R^2 mod m
// needs one division), once per modulus.
//
// Dispatch: the constructor picks the multiply and square routines once,
// from the word count and the host. On a CPU with BMI2 and ADX, 8-word
// moduli (the 512-bit CRT halves of RSA-1024) and 16-word moduli (the
// 1024-bit public-key operations) run the kernels of mont_accel.h, the
// repo's counterpart of the paper's RSA hardware macro. Every other size,
// and every host without ADX, runs mont_mul_portable. Both give identical
// results; contexts are safe to share.
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
// dedicated square, on the portable path a multiply — so exponentiation
// costs roughly one squaring per exponent bit plus one multiply per 4-bit
// window.
//
// The windowed exponentiations are constant-time in the exponent bits: every
// window multiplies (entry 0 of the table is 1 in Montgomery form) and the
// entry is read with a masked scan over the whole table, so neither a
// branch nor a load address depends on the private CRT exponents. Only
// the exponent's bit length is visible. The short-exponent path, used for
// public exponents, branches on the bits. reduce() is a fixed sequence of
// products and masked additions for a given input width.
//
// Contexts are expensive to build (R^2 mod m needs a full division) and
// cheap to reuse, so each RSA key keeps its own in an rsa::CtxSlot
// (rsa/rsa.h) and builds it once. montgomery_ctx_builds() counts the
// constructions, so tests and benchmarks can see a workload's setup cost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "bigint/bigint.h"
#include "bigint/limbs.h"

namespace omadrm::bigint {

namespace accel {
struct IfmaModulus;
}

/// Generic CIOS Montgomery product over n 64-bit words:
/// r = a * b * R^-1 mod m with R = 2^(64 n), fully reduced, for an odd
/// modulus m, operands a < R and b < m, and m_prime = -m^-1 mod 2^64.
/// `r` must not overlap `a` or `b`. The path for every size without a
/// hardware kernel and for hosts without BMI2+ADX; exported so tests and
/// benchmarks can force it, as crypto::sha1_compress_portable is.
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

  /// Prepares a context for the odd modulus `m` of at most kMaxWords
  /// words (throws kCrypto otherwise).
  explicit MontgomeryCtx(const BigInt& m);
  ~MontgomeryCtx();

  /// Word count n of the modulus; every operand and result has n words.
  std::size_t words() const { return nw_; }
  const Word* modulus() const { return m_.data(); }

  /// r = a * b * R^-1 mod m, R = 2^(64 n), fully reduced, for a < R and
  /// b < m. `r` must not overlap `a` or `b`.
  void mul(Word* r, const Word* a, const Word* b) const {
    mul_(r, a, b, m_.data(), m_prime_, nw_);
  }

  /// r = a * a * R^-1 mod m for a < m. `r` must not overlap `a`.
  void sqr(Word* r, const Word* a) const {
    sqr_(r, a, m_.data(), m_prime_, nw_);
  }

  /// Into Montgomery form (a R mod m, for any a < R) and out of it.
  void to_mont(Word* r, const Word* a) const { mul(r, a, r2_.data()); }
  void from_mont(Word* r, const Word* a) const {
    mul(r, a, one_plain_.data());
  }

  /// 1 in Montgomery form: R mod m.
  const Word* one() const { return one_.data(); }

  /// r = x mod m for an xw-word x of any width, by Montgomery products
  /// and masked additions; the sequence depends on xw alone.
  void reduce(Word* r, const Word* x, std::size_t xw) const;

  /// r = base^exp mod m, for base < m.
  void mod_exp(Word* r, const Word* base, std::span<const Word> exp) const;

  /// r1 = b1^e1 mod c1's modulus and r2 = b2^e2 mod c2's: the two CRT
  /// halves of an RSA private-key op, bases reduced. When both moduli are
  /// 8 words, both exponents fit 512 bits and the host has AVX-512 IFMA,
  /// the halves run together in accel::mod_exp_x2_ifma; otherwise this is
  /// c1.mod_exp(r1, b1, e1) and c2.mod_exp(r2, b2, e2).
  static void mod_exp_pair(const MontgomeryCtx& c1, Word* r1, const Word* b1,
                           std::span<const Word> e1, const MontgomeryCtx& c2,
                           Word* r2, const Word* b2,
                           std::span<const Word> e2);

 private:
  using Limbs = std::array<Word, kMaxWords>;
  using MulFn = void (*)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, const std::uint64_t*,
                         std::uint64_t, std::size_t);
  using SqrFn = void (*)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, std::uint64_t, std::size_t);

  // The modulus in the IFMA kernel's form, built on first use.
  const accel::IfmaModulus& ifma_modulus() const;

  std::size_t nw_;            // 64-bit word count of the modulus
  Limbs m_{};                 // modulus
  std::uint64_t m_prime_;     // -m^-1 mod 2^64
  MulFn mul_;                 // accel kernel or mont_mul_portable
  SqrFn sqr_;
  Limbs r2_{};                // R^2 mod m, for to_mont
  Limbs one_{};               // R mod m (1 in Montgomery form)
  Limbs one_plain_{};         // plain 1, the from-Montgomery multiplier
  mutable std::once_flag ifma_once_;
  mutable std::unique_ptr<const accel::IfmaModulus> ifma_;
};

}  // namespace omadrm::bigint
