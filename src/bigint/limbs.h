// Fixed-width unsigned arithmetic on 64-bit limbs: the one number type of
// every per-operation RSA path (bigint::MontgomeryCtx, rsa::rsaep,
// rsa::rsadp and the PSS and KEM schemes above them).
//
// A number is a caller-owned array of `n` Word limbs, least significant
// first, in the style of GMP's mpn layer: no heap, no sign, no
// normalisation, and an explicit word count on every call. Each routine's
// running time and memory access pattern depend on the word counts only,
// never on the values, so secret operands take the same path whatever
// they hold. kMaxWords bounds the arrays callers keep on the stack.
//
// BigInt (bigint.h) stays where sizes really vary: ASN.1, key generation
// and Miller-Rabin. from_bigint / to_bigint cross between the two there,
// once per key or per candidate, never per RSA operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "bigint/bigint.h"
#include "common/bytes.h"

namespace omadrm::bigint {

using Word = std::uint64_t;

/// Widest number the fixed-width path holds: 4096 bits.
inline constexpr std::size_t kMaxWords = 64;
inline constexpr std::size_t kMaxBytes = 8 * kMaxWords;

/// Words needed for a `bits`-bit number.
constexpr std::size_t words_for_bits(std::size_t bits) {
  return (bits + 63) / 64;
}

/// r = a + b over n words; returns the carry out. r may alias a or b.
Word add_n(Word* r, const Word* a, const Word* b, std::size_t n);

/// r = a - b over n words; returns the borrow out. r may alias a or b.
Word sub_n(Word* r, const Word* a, const Word* b, std::size_t n);

/// r = a + (b & mask) over n words, for a mask of all zeros or all ones:
/// a conditional addition with no branch on the condition.
Word add_masked_n(Word* r, const Word* a, const Word* b, Word mask,
                  std::size_t n);

/// r = mask ? a : b over n words, mask all ones or all zeros.
void select_n(Word* r, Word mask, const Word* a, const Word* b,
              std::size_t n);

/// r = a * b, schoolbook: an + bn words. r must not overlap a or b.
void mul_n(Word* r, const Word* a, std::size_t an, const Word* b,
           std::size_t bn);

/// True when a < b over n words. Runs in time independent of the values.
bool less_n(const Word* a, const Word* b, std::size_t n);

/// Significant bits of the n-word number w (0 for zero). Scans from the
/// top word down: for exponent lengths, which are public.
std::size_t bit_length_n(const Word* w, std::size_t n);

/// Big-endian bytes into n words; false when the value needs more.
bool from_be(Word* out, std::size_t n, ByteView in);

/// The n-word number as exactly out.size() big-endian bytes; false when
/// it does not fit (out then holds its low bytes).
bool to_be(const Word* w, std::size_t n, std::span<std::uint8_t> out);

/// A non-negative BigInt into n words; it must fit (throws kRange).
void from_bigint(Word* out, std::size_t n, const BigInt& v);

/// The n-word number as a BigInt.
BigInt to_bigint(const Word* w, std::size_t n);

/// True when the n-word number equals v.
bool equals_bigint(const Word* w, std::size_t n, const BigInt& v);

}  // namespace omadrm::bigint
