#include "bigint/montgomery.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

void select_entry(std::uint64_t* out, const std::uint64_t* t,
                  std::uint64_t idx, std::size_t nw) {
  auto mask_of = [idx](std::uint64_t e) {
    const std::uint64_t d = e ^ idx;
    return ((d | (0 - d)) >> 63) - 1;  // ~0 iff e == idx
  };
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

MontgomeryCtx::MontgomeryCtx(std::span<const Word> m) {
  nw_ = words_for_bits(bit_length_n(m.data(), m.size()));
  if (nw_ == 0 || (m[0] & 1) == 0) {
    throw Error(ErrorKind::kCrypto, "Montgomery modulus must be odd positive");
  }
  if (nw_ > kMaxWords) {
    throw Error(ErrorKind::kCrypto, "Montgomery modulus too wide");
  }
  std::copy_n(m.begin(), nw_, m_.begin());
  m_prime_ = neg_inverse_u64(m_[0]);
  mul_ = &mont_mul_portable;
  sqr_ = &sqr_portable;
  if (accel::mont_supported()) {
    if (nw_ == 8) {
      mul_ = &accel::mont_mul8;
      sqr_ = &accel::mont_sqr8;
    } else if (nw_ == 16) {
      mul_ = &accel::mont_mul16;
      sqr_ = &accel::mont_sqr16;
    }
  }
  one_plain_[0] = 1;

  // R mod m, R = 2^(64 n), with no division: for the modulus's bit
  // length L, 2^L - m is below m (it is the n-word negation of m with
  // the bits from L up cleared), and doubling it 64 n - L < 64 times
  // modulo m gives R mod m, 1 in Montgomery form.
  const std::size_t bits = bit_length_n(m_.data(), nw_);
  Word* const one = one_.data();
  sub_n(one, r2_.data(), m_.data(), nw_);  // r2_ is zero here
  if (bits % 64 != 0) one[nw_ - 1] &= (Word{1} << (bits % 64)) - 1;
  Words t{};
  // x <- x + carry R, for a sum below 2m, minus m unless that borrows.
  const auto reduce_once = [&](Word* x, Word carry) {
    const Word borrow = sub_n(t.data(), x, m_.data(), nw_);
    select_n(x, 0 - (carry | (borrow ^ 1)), t.data(), x, nw_);
  };
  reduce_once(one, 0);  // only m = 1 gets here with 2^L - m = m
  for (std::size_t i = bits; i < 64 * nw_; ++i) {
    reduce_once(one, add_n(one, one, one, nw_));
  }
  // R^2 mod m is 2^(64 n) in Montgomery form, from 2R mod m (2 in that
  // form) by square-and-multiply over the exponent 64 n: about a dozen
  // Montgomery products.
  Words two{};
  reduce_once(two.data(), add_n(two.data(), one, one, nw_));
  const std::size_t e = 64 * nw_;
  std::copy_n(two.begin(), nw_, r2_.begin());
  for (std::size_t i = std::bit_width(e) - 1; i-- > 0;) {
    sqr(t.data(), r2_.data());
    if ((e >> i) & 1) {
      mul(r2_.data(), t.data(), two.data());
    } else {
      std::copy_n(t.begin(), nw_, r2_.begin());
    }
  }
  g_ctx_builds.fetch_add(1, std::memory_order_relaxed);
}

MontgomeryCtx::~MontgomeryCtx() = default;

std::uint64_t montgomery_ctx_builds() {
  return g_ctx_builds.load(std::memory_order_relaxed);
}

void MontgomeryCtx::reduce(Word* r, const Word* x, std::size_t xw) const {
  // x = sum of its n-word chunks x_i R^i. Horner from the top chunk, in
  // Montgomery form: acc <- acc R + x_i R, both terms products by R^2
  // mod m (a chunk is below R, the only bound on a left operand), joined
  // by a masked modular addition; then one product leaves the form.
  const std::size_t chunks = std::max<std::size_t>(1, (xw + nw_ - 1) / nw_);
  Word acc[kMaxWords] = {}, chunk[kMaxWords], t[kMaxWords];
  for (std::size_t i = chunks; i-- > 0;) {
    std::fill(chunk, chunk + nw_, 0);
    const std::size_t lo = i * nw_;
    std::copy(x + lo, x + std::min(xw, lo + nw_), chunk);
    mul(t, acc, r2_.data());
    to_mont(acc, chunk);
    // acc + t is below 2m: subtract m unless that borrows past the carry.
    const Word carry = add_n(acc, acc, t, nw_);
    const Word borrow = sub_n(t, acc, m_.data(), nw_);
    select_n(acc, 0 - (carry | (borrow ^ 1)), t, acc, nw_);
  }
  from_mont(r, acc);
}

const accel::IfmaModulus& MontgomeryCtx::ifma_modulus() const {
  std::call_once(ifma_once_, [this] {
    // R^2 mod m for the kernel's R = 2^(52 * 10): 2 to a short power.
    const Word two[kMaxWords] = {2};
    const Word exp = 2 * 52 * accel::kIfmaLimbs;
    Word r2[kMaxWords];
    mod_exp(r2, two, {&exp, 1});
    auto mod = std::make_unique<accel::IfmaModulus>();
    accel::ifma_modulus(*mod, m_.data(), m_prime_, r2);
    ifma_ = std::move(mod);
  });
  return *ifma_;
}

void MontgomeryCtx::mod_exp_pair(const MontgomeryCtx& c1, Word* r1,
                                 const Word* b1, std::span<const Word> e1,
                                 const MontgomeryCtx& c2, Word* r2,
                                 const Word* b2, std::span<const Word> e2) {
  constexpr std::size_t kExpWords = 8;  // the kernel's 512-bit exponents
  const std::size_t bits = std::max(bit_length_n(e1.data(), e1.size()),
                                    bit_length_n(e2.data(), e2.size()));
  if (c1.nw_ != 8 || c2.nw_ != 8 || bits > 64 * kExpWords ||
      !accel::ifma_supported()) {
    c1.mod_exp(r1, b1, e1);
    c2.mod_exp(r2, b2, e2);
    return;
  }
  Word x1[kExpWords] = {}, x2[kExpWords] = {};
  std::copy_n(e1.begin(), std::min(e1.size(), kExpWords), x1);
  std::copy_n(e2.begin(), std::min(e2.size(), kExpWords), x2);
  const std::size_t windows =
      std::max<std::size_t>(1, (bits + kWindowBits - 1) / kWindowBits);
  accel::mod_exp_x2_ifma({&c1.ifma_modulus(), b1, x1, r1},
                         {&c2.ifma_modulus(), b2, x2, r2}, windows);
}

void MontgomeryCtx::mod_exp(Word* r, const Word* base,
                            std::span<const Word> exp) const {
  const std::size_t bits = bit_length_n(exp.data(), exp.size());
  if (bits == 0) {
    from_mont(r, one_.data());  // 1 mod m
    return;
  }

  Word acc[kMaxWords], tmp[kMaxWords];
  if (bits <= kPlainExpBits) {
    // Short exponent (RSA public exponents live here): left-to-right
    // square-and-multiply beats building the window table. Two scratch
    // buffers ping-pong through the whole run.
    Word mont_base[kMaxWords];
    to_mont(mont_base, base);
    Word* a = acc;
    Word* t = tmp;
    std::copy_n(mont_base, nw_, a);
    for (std::size_t i = bits - 1; i-- > 0;) {
      sqr(t, a);
      std::swap(a, t);
      if ((exp[i / 64] >> (i % 64)) & 1) {
        mul(t, a, mont_base);
        std::swap(a, t);
      }
    }
    from_mont(r, a);
    return;
  }

  // Fixed window: base^0 .. base^(2^w - 1) in Montgomery form, entry
  // after entry.
  Word table[kTableSize * kMaxWords];
  std::copy_n(one_.data(), nw_, table);
  to_mont(table + nw_, base);
  for (std::size_t i = 2; i < kTableSize; ++i) {
    if (i % 2 == 0) {
      sqr(table + i * nw_, table + i / 2 * nw_);
    } else {
      mul(table + i * nw_, table + (i - 1) * nw_, table + nw_);
    }
  }

  // A window never straddles a word, so each one is a shift and a mask.
  static_assert(64 % kWindowBits == 0);
  constexpr std::size_t kPerWord = 64 / kWindowBits;
  auto window = [&exp](std::size_t w) -> std::uint64_t {
    return (exp[w / kPerWord] >> (kWindowBits * (w % kPerWord))) &
           (kTableSize - 1);
  };

  const std::size_t windows = (bits + kWindowBits - 1) / kWindowBits;
  Word* a = acc;
  Word* t = tmp;
  Word entry[kMaxWords];
  select_entry(a, table, window(windows - 1), nw_);
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (std::size_t s = 0; s < kWindowBits; ++s) {
      sqr(t, a);
      std::swap(a, t);
    }
    select_entry(entry, table, window(w), nw_);
    mul(t, a, entry);
    std::swap(a, t);
  }
  from_mont(r, a);
}

}  // namespace omadrm::bigint
