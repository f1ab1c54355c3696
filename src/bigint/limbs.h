// Fixed-width unsigned arithmetic on 64-bit limbs: the library's one
// number type. Every RSA path runs on it: key generation and
// Miller-Rabin (prime.h), bigint::MontgomeryCtx, rsa::rsaep, rsa::rsadp
// and the PSS and KEM schemes above them.
//
// A number is a caller-owned array of `n` Word limbs, least significant
// first, in the style of GMP's mpn layer: no heap, no sign, no
// normalisation, and an explicit word count on every call. Each routine's
// running time and memory access pattern depend on the word counts only,
// never on the values, so secret operands take the same path whatever
// they hold; the exceptions (bit_length_n, the single-word divisions and
// random_below) say so. kMaxWords bounds the arrays callers keep on the
// stack. Outside this layer numbers travel as minimal big-endian
// magnitudes (common/bytes.h), as ASN.1 and the key records hold them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/random.h"

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
/// top word down: for lengths, which are public.
std::size_t bit_length_n(const Word* w, std::size_t n);

/// q = a / d over n words (q may alias a); returns a mod d. For a
/// divisor 0 < d < 2^32, in 32-bit steps. Public values only: the
/// hardware divide's latency may depend on its operands.
Word div_word(Word* q, const Word* a, std::size_t n, Word d);

/// a mod d for 0 < d < 2^32, as div_word without the quotient.
Word mod_word(const Word* a, std::size_t n, Word d);

/// Big-endian bytes into n words; false when the value needs more.
bool from_be(Word* out, std::size_t n, ByteView in);

/// The n-word number as exactly out.size() big-endian bytes; false when
/// it does not fit (out then holds its low bytes).
bool to_be(const Word* w, std::size_t n, std::span<std::uint8_t> out);

/// out = a uniform draw below `bound` (n words, non-zero; kRange
/// otherwise), by rejection: each try takes the bound's byte length from
/// `rng` and clears the bits above its bit length. The number of tries
/// shows through timing; the rejected draws are discarded.
void random_below(Word* out, const Word* bound, std::size_t n, Rng& rng);

/// A number held by value: its limbs and their significant word count n
/// (0 for zero). Words at and above n are zero.
struct Limbs {
  Limbs() = default;
  /// From a big-endian magnitude (leading zeros allowed); kCrypto when
  /// it needs more than kMaxWords words.
  explicit Limbs(ByteView be);

  std::span<const Word> span() const { return {w.data(), n}; }
  std::size_t bit_length() const { return bit_length_n(w.data(), n); }
  /// The minimal big-endian magnitude (empty for zero).
  Bytes to_be() const;
  /// Recomputes n after the words were written.
  void trim();

  std::array<Word, kMaxWords> w{};
  std::size_t n = 0;
};

}  // namespace omadrm::bigint
