#include "bigint/limbs.h"

#include <algorithm>
#include <vector>

#include "common/error.h"

namespace omadrm::bigint {

namespace {
using u128 = unsigned __int128;
}

Word add_n(Word* r, const Word* a, const Word* b, std::size_t n) {
  return add_masked_n(r, a, b, ~Word{0}, n);
}

Word sub_n(Word* r, const Word* a, const Word* b, std::size_t n) {
  Word borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(a[j]) - b[j] - borrow;
    r[j] = static_cast<Word>(d);
    borrow = static_cast<Word>(d >> 64) & 1;
  }
  return borrow;
}

Word add_masked_n(Word* r, const Word* a, const Word* b, Word mask,
                  std::size_t n) {
  Word carry = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 s = static_cast<u128>(a[j]) + (b[j] & mask) + carry;
    r[j] = static_cast<Word>(s);
    carry = static_cast<Word>(s >> 64);
  }
  return carry;
}

void select_n(Word* r, Word mask, const Word* a, const Word* b,
              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) r[j] = (a[j] & mask) | (b[j] & ~mask);
}

void mul_n(Word* r, const Word* a, std::size_t an, const Word* b,
           std::size_t bn) {
  std::fill(r, r + an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    Word carry = 0;
    for (std::size_t j = 0; j < bn; ++j) {
      const u128 cur =
          static_cast<u128>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> 64);
    }
    r[i + bn] = carry;
  }
}

bool less_n(const Word* a, const Word* b, std::size_t n) {
  Word borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(a[j]) - b[j] - borrow;
    borrow = static_cast<Word>(d >> 64) & 1;
  }
  return borrow != 0;
}

std::size_t bit_length_n(const Word* w, std::size_t n) {
  while (n > 0 && w[n - 1] == 0) --n;
  if (n == 0) return 0;
  return 64 * n - static_cast<std::size_t>(__builtin_clzll(w[n - 1]));
}

bool from_be(Word* out, std::size_t n, ByteView in) {
  std::fill(out, out + n, 0);
  std::uint8_t excess = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t pos = in.size() - 1 - i;  // byte significance
    if (pos < 8 * n) {
      out[pos / 8] |= static_cast<Word>(in[i]) << (8 * (pos % 8));
    } else {
      excess |= in[i];
    }
  }
  return excess == 0;
}

bool to_be(const Word* w, std::size_t n, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t pos = out.size() - 1 - i;
    out[i] = pos < 8 * n
                 ? static_cast<std::uint8_t>(w[pos / 8] >> (8 * (pos % 8)))
                 : 0;
  }
  Word excess = 0;
  for (std::size_t j = out.size() / 8; j < n; ++j) {
    const std::size_t low_bytes = j == out.size() / 8 ? out.size() % 8 : 0;
    excess |= low_bytes == 0 ? w[j] : w[j] >> (8 * low_bytes);
  }
  return excess == 0;
}

void from_bigint(Word* out, std::size_t n, const BigInt& v) {
  const auto& limbs = v.limbs();
  if (v.is_negative() || limbs.size() > 2 * n) {
    throw Error(ErrorKind::kRange, "from_bigint: value does not fit");
  }
  std::fill(out, out + n, 0);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<Word>(limbs[i]) << (32 * (i % 2));
  }
}

BigInt to_bigint(const Word* w, std::size_t n) {
  std::vector<std::uint32_t> limbs(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    limbs[2 * i] = static_cast<std::uint32_t>(w[i]);
    limbs[2 * i + 1] = static_cast<std::uint32_t>(w[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

bool equals_bigint(const Word* w, std::size_t n, const BigInt& v) {
  const auto& limbs = v.limbs();
  if (v.is_negative() || limbs.size() > 2 * n) return false;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const std::uint32_t want = i < limbs.size() ? limbs[i] : 0;
    if (static_cast<std::uint32_t>(w[i / 2] >> (32 * (i % 2))) != want) {
      return false;
    }
  }
  return true;
}

}  // namespace omadrm::bigint
