#include "bigint/montgomery.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "bigint/mont_accel.h"
#include "common/error.h"

namespace omadrm::bigint {

using omadrm::Error;
using omadrm::ErrorKind;

namespace {

using u128 = unsigned __int128;

std::atomic<std::uint64_t> g_ctx_builds{0};

constexpr std::size_t kTableSize = std::size_t{1}
                                   << MontgomeryCtx::kWindowBits;

// -m^-1 mod 2^64 via Newton iteration (doubles correct bits each step).
std::uint64_t neg_inverse_u64(std::uint64_t m0) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m0 * inv;
  }
  return 0u - inv;
}

// The portable path has no dedicated square.
void sqr_portable(std::uint64_t* r, const std::uint64_t* a,
                  const std::uint64_t* m, std::uint64_t k, std::size_t n) {
  mont_mul_portable(r, a, a, m, k, n);
}

// out <- table entry `idx`, reading every entry under a mask so the load
// pattern is the same for every index. Two words at a time in a 128-bit
// GCC vector (plain SSE2 on x86-64) with the accumulator in a register:
// about a third of the cost of a word-at-a-time scan through memory.
using u64x2 = std::uint64_t __attribute__((vector_size(16)));

void select_entry(std::uint64_t* out, const std::vector<std::uint64_t>& table,
                  std::uint64_t idx, std::size_t nw) {
  auto mask_of = [idx](std::uint64_t e) {
    const std::uint64_t d = e ^ idx;
    return ((d | (0 - d)) >> 63) - 1;  // ~0 iff e == idx
  };
  const std::uint64_t* t = table.data();
  std::size_t j = 0;
  for (; j + 2 <= nw; j += 2) {
    u64x2 acc = {0, 0};
    for (std::size_t e = 0; e < kTableSize; ++e) {
      const std::uint64_t m = mask_of(e);
      u64x2 x;
      std::memcpy(&x, t + e * nw + j, sizeof x);
      acc |= x & u64x2{m, m};
    }
    std::memcpy(out + j, &acc, sizeof acc);
  }
  for (; j < nw; ++j) {
    std::uint64_t acc = 0;
    for (std::size_t e = 0; e < kTableSize; ++e) {
      acc |= t[e * nw + j] & mask_of(e);
    }
    out[j] = acc;
  }
}

}  // namespace

// Coarsely Integrated Operand Scanning (CIOS) Montgomery multiplication
// on 64-bit words with 128-bit products. The running sum lives in r plus
// two overflow words, so no scratch memory is needed. Unrolling the inner
// loops by 4 pays for the branch-free final subtraction.
void mont_mul_portable(std::uint64_t* r, const std::uint64_t* a,
                       const std::uint64_t* b, const std::uint64_t* m,
                       std::uint64_t m_prime, std::size_t n) {
  std::fill(r, r + n, 0);
  std::uint64_t top = 0;  // word n of the running sum (word n+1 folds in)

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = a[i];

    // t += ai * b
    u128 carry = 0;
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur =
          static_cast<u128>(r[j]) + static_cast<u128>(ai) * b[j] + carry;
      r[j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(top) + carry;
    top = static_cast<std::uint64_t>(cur);
    const std::uint64_t top1 = static_cast<std::uint64_t>(cur >> 64);

    // u = t[0] * m' mod 2^64 ; t = (t + u * m) >> 64
    const std::uint64_t u = r[0] * m_prime;
    cur = static_cast<u128>(r[0]) + static_cast<u128>(u) * m[0];
    carry = cur >> 64;
#pragma GCC unroll 4
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(r[j]) + static_cast<u128>(u) * m[j] + carry;
      r[j - 1] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    cur = static_cast<u128>(top) + carry;
    r[n - 1] = static_cast<std::uint64_t>(cur);
    top = top1 + static_cast<std::uint64_t>(cur >> 64);
  }

  // The sum is below 2m: subtract m once when it is at least m, as a
  // masked subtraction so no branch depends on the operands.
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(r[j]) - m[j] - borrow;
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(top >= borrow);
  borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(r[j]) - (m[j] & mask) - borrow;
    r[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
}

MontgomeryCtx::MontgomeryCtx(const BigInt& m) : m_(m) {
  if (m.is_zero() || m.is_negative() || m.is_even()) {
    throw Error(ErrorKind::kCrypto, "Montgomery modulus must be odd positive");
  }
  n_ = m.limbs().size();
  nw_ = (n_ + 1) / 2;
  mw_ = pack(m_);
  m_prime64_ = neg_inverse_u64(mw_[0]);
  mul_ = &mont_mul_portable;
  sqr_ = &sqr_portable;
  if (nw_ == 8 && accel::mont_supported()) {
    mul_ = &accel::mont_mul8;
    sqr_ = &accel::mont_sqr8;
  }
  // R^2 mod m where R = 2^(64 nw).
  BigInt r = BigInt(std::uint64_t{1}) << (64 * nw_);
  r2w_ = pack((r * r).mod(m_));
  one_plain_.assign(nw_, 0);
  one_plain_[0] = 1;
  // 1 in Montgomery form: 1 * R^2 * R^-1 = R mod m.
  onew_.resize(nw_);
  mul(onew_.data(), one_plain_.data(), r2w_.data());
  one_mont_ = unpack(onew_);
  g_ctx_builds.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t montgomery_ctx_builds() {
  return g_ctx_builds.load(std::memory_order_relaxed);
}

MontgomeryCtx::Words MontgomeryCtx::pack(const BigInt& v) const {
  const auto& limbs = v.limbs();
  Words out(nw_, 0);
  for (std::size_t i = 0; i < limbs.size() && i / 2 < nw_; ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs[i]) << (32 * (i % 2));
  }
  return out;
}

BigInt MontgomeryCtx::unpack(const Words& w) const {
  std::vector<std::uint32_t> limbs(nw_ * 2, 0);
  for (std::size_t i = 0; i < nw_; ++i) {
    limbs[2 * i] = static_cast<std::uint32_t>(w[i]);
    limbs[2 * i + 1] = static_cast<std::uint32_t>(w[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

BigInt MontgomeryCtx::mont_mul(const BigInt& a, const BigInt& b) const {
  Words t(nw_);
  mul(t.data(), pack(a).data(), pack(b).data());
  return unpack(t);
}

BigInt MontgomeryCtx::mont_sqr(const BigInt& a) const {
  Words t(nw_);
  sqr(t.data(), pack(a).data());
  return unpack(t);
}

BigInt MontgomeryCtx::to_mont(const BigInt& a) const {
  Words t(nw_);
  mul(t.data(), pack(a).data(), r2w_.data());
  return unpack(t);
}

BigInt MontgomeryCtx::from_mont(const BigInt& a) const {
  Words t(nw_);
  mul(t.data(), pack(a).data(), one_plain_.data());
  return unpack(t);
}

BigInt MontgomeryCtx::mod_exp(const BigInt& base, const BigInt& exp) const {
  if (exp.is_zero()) return BigInt(std::uint64_t{1}).mod(m_);

  const std::size_t bits = exp.bit_length();
  if (bits <= kPlainExpBits) {
    // Short exponent (RSA public exponents live here): left-to-right
    // square-and-multiply beats building the window table. Two scratch
    // buffers ping-pong through the whole run.
    Words mont_base(nw_);
    mul(mont_base.data(), pack(base).data(), r2w_.data());
    Words acc = mont_base;
    Words tmp(nw_);
    for (std::size_t i = bits - 1; i-- > 0;) {
      sqr(tmp.data(), acc.data());
      acc.swap(tmp);
      if (exp.bit(i)) {
        mul(tmp.data(), acc.data(), mont_base.data());
        acc.swap(tmp);
      }
    }
    mul(tmp.data(), acc.data(), one_plain_.data());
    return unpack(tmp);
  }

  // Fixed window: base^0 .. base^(2^w - 1) in Montgomery form, packed
  // entry after entry.
  Words table(kTableSize * nw_);
  std::uint64_t* t = table.data();
  std::copy(onew_.begin(), onew_.end(), t);
  mul(t + nw_, pack(base).data(), r2w_.data());
  for (std::size_t i = 2; i < kTableSize; ++i) {
    if (i % 2 == 0) {
      sqr(t + i * nw_, t + i / 2 * nw_);
    } else {
      mul(t + i * nw_, t + (i - 1) * nw_, t + nw_);
    }
  }

  // A window never straddles a 32-bit limb, so each one is a shift and a
  // mask of a single limb.
  static_assert(32 % kWindowBits == 0);
  constexpr std::size_t kPerLimb = 32 / kWindowBits;
  const auto& limbs = exp.limbs();
  auto window = [&limbs](std::size_t w) -> std::uint64_t {
    return (limbs[w / kPerLimb] >> (kWindowBits * (w % kPerLimb))) &
           (kTableSize - 1);
  };

  const std::size_t windows = (bits + kWindowBits - 1) / kWindowBits;
  Words acc(nw_), tmp(nw_), entry(nw_);
  select_entry(acc.data(), table, window(windows - 1), nw_);
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (std::size_t s = 0; s < kWindowBits; ++s) {
      sqr(tmp.data(), acc.data());
      acc.swap(tmp);
    }
    select_entry(entry.data(), table, window(w), nw_);
    mul(tmp.data(), acc.data(), entry.data());
    acc.swap(tmp);
  }
  mul(tmp.data(), acc.data(), one_plain_.data());
  return unpack(tmp);
}

}  // namespace omadrm::bigint
