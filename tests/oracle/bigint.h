// Arbitrary-precision integers: the test oracle.
//
// The library computes on the fixed-width limbs of bigint/limbs.h; this
// independent sign-magnitude type is what the tests check it against.
// It is built into the test executables only, never into the library.
//
// Sign-magnitude representation over 32-bit limbs (little-endian limb
// order). The class is value-semantic and keeps the invariant that the
// magnitude has no leading zero limbs; zero is the empty limb vector with
// non-negative sign.
//
// Feature set: comparison, ring arithmetic (Karatsuba above a size
// threshold), Knuth Algorithm-D division, shifts and bit access, gcd /
// extended gcd / modular inverse, and modular exponentiation by plain
// square-and-multiply with a division per step, so no result depends on
// the Montgomery code it is compared with.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/limbs.h"
#include "common/bytes.h"
#include "common/random.h"

namespace omadrm::bigint {

using omadrm::Rng;

struct DivMod;
struct ExtGcd;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine integer.
  BigInt(std::uint64_t v);           // NOLINT(google-explicit-constructor)
  BigInt(int v);                     // NOLINT(google-explicit-constructor)

  /// Parses decimal ("12345", "-7") or hex with 0x prefix ("0xdeadbeef").
  explicit BigInt(std::string_view text);

  /// Big-endian byte import (always non-negative).
  static BigInt from_bytes_be(ByteView bytes);

  /// Big-endian byte export of the magnitude, left-padded with zeros to at
  /// least `min_len` bytes. Throws if the value needs more than `min_len`
  /// bytes and `exact` is true.
  Bytes to_bytes_be(std::size_t min_len = 0) const;

  /// Lowercase hex of the magnitude, no 0x prefix, "-" prefix if negative.
  std::string to_hex() const;

  /// Decimal rendering.
  std::string to_dec() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits of the magnitude (0 for zero).
  std::size_t bit_length() const;

  /// Value of magnitude bit `i` (false beyond bit_length).
  bool bit(std::size_t i) const;

  /// Low 64 bits of the magnitude.
  std::uint64_t to_u64() const;

  // -- comparison --------------------------------------------------------
  std::strong_ordering operator<=>(const BigInt& rhs) const;
  bool operator==(const BigInt& rhs) const;

  // -- arithmetic ---------------------------------------------------------
  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator/(const BigInt& rhs) const;   // truncated toward zero
  BigInt operator%(const BigInt& rhs) const;   // sign follows dividend
  BigInt operator-() const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass; remainder has the dividend's sign.
  DivMod divmod(const BigInt& divisor) const;

  /// Mathematical modulus: result always in [0, m).
  BigInt mod(const BigInt& m) const;

  // -- number theory -------------------------------------------------------
  static BigInt gcd(BigInt a, BigInt b);

  /// Extended gcd: returns g and coefficients with a*x + b*y == g.
  static ExtGcd ext_gcd(const BigInt& a, const BigInt& b);

  /// Modular inverse; throws omadrm::Error(kCrypto) if gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// base^exp mod m, square-and-multiply with a division per step.
  static BigInt mod_exp(const BigInt& base, const BigInt& exp,
                        const BigInt& m);

  /// Uniform draw in [0, bound) using rejection sampling.
  static BigInt random_below(const BigInt& bound, Rng& rng);

  /// Random integer with exactly `bits` bits (top bit set).
  static BigInt random_bits(std::size_t bits, Rng& rng);

  // Limb access, for the word conversions below.
  const std::vector<std::uint32_t>& limbs() const { return limbs_; }
  static BigInt from_limbs(std::vector<std::uint32_t> limbs);

 private:
  static int cmp_mag(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> add_mag(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> sub_mag(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_mag(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_school(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_karatsuba(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  static void trim(std::vector<std::uint32_t>& v);

  void normalize();

  std::vector<std::uint32_t> limbs_;
  bool negative_ = false;
};

/// Result of BigInt::divmod.
struct DivMod {
  BigInt quotient;
  BigInt remainder;
};

/// Result of BigInt::ext_gcd: g = gcd(a, b) with a*x + b*y == g.
struct ExtGcd {
  BigInt g;
  BigInt x;
  BigInt y;
};

/// A non-negative BigInt into n words; it must fit (throws kRange).
void from_bigint(Word* out, std::size_t n, const BigInt& v);

/// The n-word number as a BigInt.
BigInt to_bigint(const Word* w, std::size_t n);

/// I2OSP: integer to big-endian octet string of exactly `len` bytes.
/// Throws kRange if the integer is negative or does not fit.
Bytes i2osp(const BigInt& x, std::size_t len);

/// OS2IP: octet string to integer.
BigInt os2ip(ByteView data);

}  // namespace omadrm::bigint
