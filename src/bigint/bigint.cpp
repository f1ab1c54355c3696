#include "bigint/bigint.h"

#include <algorithm>
#include <cstdlib>

#include "bigint/montgomery.h"
#include "common/error.h"
#include "common/random.h"

namespace omadrm::bigint {

using omadrm::Error;
using omadrm::ErrorKind;

namespace {
// Below this limb count Karatsuba's bookkeeping costs more than it saves.
constexpr std::size_t kKaratsubaThreshold = 24;
}  // namespace

// ---------------------------------------------------------------------------
// construction / conversion
// ---------------------------------------------------------------------------

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(v));
    std::uint32_t hi = static_cast<std::uint32_t>(v >> 32);
    if (hi != 0) limbs_.push_back(hi);
  }
}

BigInt::BigInt(int v) : BigInt(static_cast<std::uint64_t>(std::abs(static_cast<long long>(v)))) {
  negative_ = v < 0;
}

BigInt::BigInt(std::string_view text) {
  bool neg = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    neg = text[0] == '-';
    text.remove_prefix(1);
  }
  if (text.empty()) throw Error(ErrorKind::kFormat, "empty integer literal");
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    BigInt acc;
    for (char c : text) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else throw Error(ErrorKind::kFormat, "invalid hex digit in literal");
      acc = (acc << 4) + BigInt(static_cast<std::uint64_t>(digit));
    }
    *this = acc;
  } else {
    BigInt acc;
    const BigInt ten(std::uint64_t{10});
    for (char c : text) {
      if (c < '0' || c > '9') {
        throw Error(ErrorKind::kFormat, "invalid decimal digit in literal");
      }
      acc = acc * ten + BigInt(static_cast<std::uint64_t>(c - '0'));
    }
    *this = acc;
  }
  negative_ = neg && !is_zero();
}

BigInt BigInt::from_bytes_be(ByteView bytes) {
  BigInt out;
  // Consume 4 bytes per limb from the tail (least significant side).
  std::size_t n = bytes.size();
  out.limbs_.reserve((n + 3) / 4);
  std::size_t i = n;
  while (i > 0) {
    std::uint32_t limb = 0;
    int shift = 0;
    for (int b = 0; b < 4 && i > 0; ++b) {
      limb |= static_cast<std::uint32_t>(bytes[--i]) << shift;
      shift += 8;
    }
    out.limbs_.push_back(limb);
  }
  out.normalize();
  return out;
}

Bytes BigInt::to_bytes_be(std::size_t min_len) const {
  // Exact-size single allocation: the output is written back-to-front,
  // least-significant limb first, into a zero-filled buffer.
  const std::size_t significant = is_zero() ? 1 : (bit_length() + 7) / 8;
  const std::size_t len = std::max(significant, min_len);
  Bytes out(len, 0);
  std::size_t pos = len;
  for (std::size_t i = 0; i < limbs_.size() && pos > 0; ++i) {
    std::uint32_t limb = limbs_[i];
    for (int b = 0; b < 4 && pos > 0; ++b) {
      out[--pos] = static_cast<std::uint8_t>(limb);
      limb >>= 8;
    }
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  if (negative_) out.push_back('-');
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      int nib = (limbs_[i] >> shift) & 0xf;
      if (leading && nib == 0) continue;
      leading = false;
      out.push_back(kDigits[nib]);
    }
  }
  return out;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  BigInt v = *this;
  v.negative_ = false;
  const BigInt billion(std::uint64_t{1000000000});
  std::vector<std::uint32_t> groups;
  while (!v.is_zero()) {
    DivMod dm = v.divmod(billion);
    groups.push_back(static_cast<std::uint32_t>(dm.remainder.to_u64()));
    v = dm.quotient;
  }
  std::string out;
  if (negative_) out.push_back('-');
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u", groups.back());
  out += buf;
  for (std::size_t i = groups.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%09u", groups[i]);
    out += buf;
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::uint64_t BigInt::to_u64() const {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

BigInt BigInt::from_limbs(std::vector<std::uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

void BigInt::trim(std::vector<std::uint32_t>& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

void BigInt::normalize() {
  trim(limbs_);
  if (limbs_.empty()) negative_ = false;
}

// ---------------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------------

int BigInt::cmp_mag(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering BigInt::operator<=>(const BigInt& rhs) const {
  if (negative_ != rhs.negative_) {
    return negative_ ? std::strong_ordering::less
                     : std::strong_ordering::greater;
  }
  int mag = cmp_mag(limbs_, rhs.limbs_);
  if (negative_) mag = -mag;
  if (mag < 0) return std::strong_ordering::less;
  if (mag > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

bool BigInt::operator==(const BigInt& rhs) const {
  return negative_ == rhs.negative_ && limbs_ == rhs.limbs_;
}

// ---------------------------------------------------------------------------
// magnitude helpers
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> BigInt::add_mag(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<std::uint32_t> out;
  out.reserve(big.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    std::uint64_t sum = carry + big[i] + (i < small.size() ? small[i] : 0u);
    out.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::sub_mag(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  trim(out);
  return out;
}

std::vector<std::uint32_t> BigInt::mul_school(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  trim(out);
  return out;
}

std::vector<std::uint32_t> BigInt::mul_karatsuba(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return mul_school(a, b);
  }
  std::size_t half = std::max(a.size(), b.size()) / 2;
  auto split = [half](const std::vector<std::uint32_t>& v) {
    std::vector<std::uint32_t> lo(v.begin(),
                                  v.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(half, v.size())));
    std::vector<std::uint32_t> hi;
    if (v.size() > half) {
      hi.assign(v.begin() + static_cast<std::ptrdiff_t>(half), v.end());
    }
    trim(lo);
    trim(hi);
    return std::pair{lo, hi};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);

  auto z0 = mul_karatsuba(a0, b0);
  auto z2 = mul_karatsuba(a1, b1);
  auto sa = add_mag(a0, a1);
  auto sb = add_mag(b0, b1);
  auto z1 = mul_karatsuba(sa, sb);
  // z1 -= z0 + z2 (never negative by construction).
  z1 = sub_mag(z1, add_mag(z0, z2));

  std::vector<std::uint32_t> out(a.size() + b.size() + 1, 0);
  auto accumulate = [&out](const std::vector<std::uint32_t>& v,
                           std::size_t shift) {
    std::uint64_t carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      // The uint64 cast is load-bearing: uint32 + uint32 wraps before the
      // carry join otherwise.
      std::uint64_t cur =
          static_cast<std::uint64_t>(out[shift + i]) + v[i] + carry;
      out[shift + i] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    while (carry) {
      std::uint64_t cur = static_cast<std::uint64_t>(out[shift + i]) + carry;
      out[shift + i] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++i;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  trim(out);
  return out;
}

std::vector<std::uint32_t> BigInt::mul_mag(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  return mul_karatsuba(a, b);
}

// ---------------------------------------------------------------------------
// arithmetic operators
// ---------------------------------------------------------------------------

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  if (negative_ == rhs.negative_) {
    out.limbs_ = add_mag(limbs_, rhs.limbs_);
    out.negative_ = negative_;
  } else {
    int c = cmp_mag(limbs_, rhs.limbs_);
    if (c == 0) return BigInt{};
    if (c > 0) {
      out.limbs_ = sub_mag(limbs_, rhs.limbs_);
      out.negative_ = negative_;
    } else {
      out.limbs_ = sub_mag(rhs.limbs_, limbs_);
      out.negative_ = rhs.negative_;
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const { return *this + (-rhs); }

BigInt BigInt::operator*(const BigInt& rhs) const {
  BigInt out;
  out.limbs_ = mul_mag(limbs_, rhs.limbs_);
  out.negative_ = negative_ != rhs.negative_ && !out.limbs_.empty();
  out.normalize();
  return out;
}

DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw Error(ErrorKind::kRange, "division by zero");
  int c = cmp_mag(limbs_, divisor.limbs_);
  if (c < 0) return {BigInt{}, *this};

  std::vector<std::uint32_t> q;
  std::vector<std::uint32_t> r;

  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    std::uint64_t d = divisor.limbs_[0];
    q.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | limbs_[i];
      q[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    if (rem) r.push_back(static_cast<std::uint32_t>(rem));
  } else {
    // Knuth TAOCP vol.2 Algorithm D.
    // Normalize so the divisor's top limb has its high bit set.
    int shift = 0;
    std::uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
    BigInt u = BigInt::from_limbs(limbs_) << static_cast<std::size_t>(shift);
    BigInt v =
        BigInt::from_limbs(divisor.limbs_) << static_cast<std::size_t>(shift);
    const auto& vn = v.limbs_;
    std::vector<std::uint32_t> un = std::move(u.limbs_);
    const std::size_t n = vn.size();
    const std::size_t m = un.size() - n;
    un.push_back(0);  // u has m+n+1 limbs.
    q.assign(m + 1, 0);

    const std::uint64_t base = std::uint64_t{1} << 32;
    for (std::size_t j = m + 1; j-- > 0;) {
      std::uint64_t num =
          (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
      std::uint64_t qhat = num / vn[n - 1];
      std::uint64_t rhat = num % vn[n - 1];
      while (qhat >= base ||
             qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
        --qhat;
        rhat += vn[n - 1];
        if (rhat >= base) break;
      }
      // Multiply-subtract qhat * v from u[j .. j+n].
      std::int64_t borrow = 0;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t p = qhat * vn[i] + carry;
        carry = p >> 32;
        std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                         static_cast<std::int64_t>(p & 0xffffffffu) - borrow;
        if (t < 0) {
          t += static_cast<std::int64_t>(base);
          borrow = 1;
        } else {
          borrow = 0;
        }
        un[i + j] = static_cast<std::uint32_t>(t);
      }
      std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                       static_cast<std::int64_t>(carry) - borrow;
      if (t < 0) {
        // qhat was one too large: add back.
        t += static_cast<std::int64_t>(base);
        --qhat;
        std::uint64_t carry2 = 0;
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t s = static_cast<std::uint64_t>(un[i + j]) + vn[i] +
                            carry2;
          un[i + j] = static_cast<std::uint32_t>(s);
          carry2 = s >> 32;
        }
        t += static_cast<std::int64_t>(carry2);
      }
      un[j + n] = static_cast<std::uint32_t>(t);
      q[j] = static_cast<std::uint32_t>(qhat);
    }
    un.resize(n);
    trim(un);
    // Denormalize the remainder.
    BigInt rem = BigInt::from_limbs(un) >> static_cast<std::size_t>(shift);
    r = rem.limbs_;
  }

  DivMod out;
  out.quotient = BigInt::from_limbs(std::move(q));
  out.remainder = BigInt::from_limbs(std::move(r));
  out.quotient.negative_ =
      negative_ != divisor.negative_ && !out.quotient.limbs_.empty();
  out.remainder.negative_ = negative_ && !out.remainder.limbs_.empty();
  return out;
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  return divmod(rhs).quotient;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  return divmod(rhs).remainder;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw Error(ErrorKind::kRange, "mod by non-positive modulus");
  }
  BigInt r = *this % m;
  if (r.is_negative()) r = r + m;
  return r;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  BigInt res = from_limbs(std::move(out));
  res.negative_ = negative_ && !res.limbs_.empty();
  return res;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt{};
  std::vector<std::uint32_t> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << 32;
    }
    out[i] = static_cast<std::uint32_t>(v >> bit_shift);
  }
  BigInt res = from_limbs(std::move(out));
  res.negative_ = negative_ && !res.limbs_.empty();
  return res;
}

// ---------------------------------------------------------------------------
// number theory
// ---------------------------------------------------------------------------

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

ExtGcd BigInt::ext_gcd(const BigInt& a, const BigInt& b) {
  BigInt old_r = a, r = b;
  BigInt old_s(std::uint64_t{1}), s;
  BigInt old_t, t(std::uint64_t{1});
  while (!r.is_zero()) {
    DivMod dm = old_r.divmod(r);
    old_r = std::move(r);
    r = std::move(dm.remainder);  // old_r - q * r, straight from the divide
    BigInt tmp = old_s - dm.quotient * s;
    old_s = std::move(s);
    s = std::move(tmp);
    tmp = old_t - dm.quotient * t;
    old_t = std::move(t);
    t = std::move(tmp);
  }
  return {old_r, old_s, old_t};
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  ExtGcd e = ext_gcd(a.mod(m), m);
  if (!(e.g == BigInt(std::uint64_t{1}))) {
    throw Error(ErrorKind::kCrypto, "mod_inverse: arguments not coprime");
  }
  return e.x.mod(m);
}

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    throw Error(ErrorKind::kRange, "mod_exp by non-positive modulus");
  }
  if (exp.is_negative()) {
    throw Error(ErrorKind::kRange, "mod_exp with negative exponent");
  }
  if (m == BigInt(std::uint64_t{1})) return BigInt{};
  if (m.is_odd() && words_for_bits(m.bit_length()) <= kMaxWords) {
    // A one-off context: callers exponentiating against one modulus
    // repeatedly keep their own (rsa::CtxSlot).
    const MontgomeryCtx ctx(m);
    const std::size_t nw = ctx.words();
    std::vector<Word> e(words_for_bits(exp.bit_length()));
    from_bigint(e.data(), e.size(), exp);
    Word b[kMaxWords], r[kMaxWords];
    from_bigint(b, nw, base.mod(m));
    ctx.mod_exp(r, b, e);
    return to_bigint(r, nw);
  }
  // Generic square-and-multiply for even moduli (rare in practice) and
  // moduli wider than the fixed-width path.
  BigInt result(std::uint64_t{1});
  BigInt b = base.mod(m);
  std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

BigInt BigInt::random_below(const BigInt& bound, Rng& rng) {
  if (bound.is_zero() || bound.is_negative()) {
    throw Error(ErrorKind::kRange, "random_below: bound must be positive");
  }
  std::size_t bytes_needed = (bound.bit_length() + 7) / 8;
  for (;;) {
    Bytes raw = rng.bytes(bytes_needed);
    // Mask excess high bits to cut rejection probability below 1/2.
    std::size_t excess = bytes_needed * 8 - bound.bit_length();
    if (excess > 0 && !raw.empty()) {
      raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    }
    BigInt candidate = from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(std::size_t bits, Rng& rng) {
  if (bits == 0) return BigInt{};
  std::size_t bytes_needed = (bits + 7) / 8;
  Bytes raw = rng.bytes(bytes_needed);
  std::size_t excess = bytes_needed * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // force top bit
  return from_bytes_be(raw);
}

}  // namespace omadrm::bigint
