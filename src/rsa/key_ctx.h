// The fixed-width forms of RSA keys, held in each key's rsa::CtxSlot:
// Montgomery contexts and the key's numbers as limbs (bigint/limbs.h),
// built once from the key's BigInt fields. Internal to the rsa layer.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "bigint/limbs.h"
#include "bigint/montgomery.h"
#include "rsa/rsa.h"

namespace omadrm::rsa {

using bigint::kMaxWords;
using bigint::Word;

/// A non-negative number held by value as limbs, with its word count.
/// Words above the count are zero. Throws kCrypto beyond kMaxWords.
struct Limbs {
  Limbs() = default;
  explicit Limbs(const BigInt& v);

  bool operator==(const BigInt& v) const {
    return bigint::equals_bigint(w.data(), n, v);
  }
  std::span<const Word> span() const { return {w.data(), n}; }

  std::array<Word, kMaxWords> w{};
  std::size_t n = 0;
};

/// A modulus with its exponent: a public key's (n, e), or a private
/// key's (n, d) when it has no CRT form.
struct PublicCtx {
  PublicCtx(const BigInt& n, const BigInt& e) : n(n), e(e) {}
  explicit PublicCtx(const PublicKey& key) : PublicCtx(key.n, key.e) {}

  bool matches(const BigInt& modulus, const BigInt& exponent) const;
  bool matches(const PublicKey& key) const { return matches(key.n, key.e); }

  /// out = in^e mod n; `what` names an out-of-range input.
  void exp(ByteView in, std::span<std::uint8_t> out, const char* what) const;

  bigint::MontgomeryCtx n;
  Limbs e;
};

/// A private key: with CRT, the contexts of p and q, dP, dQ and qInv;
/// without, (n, d) in `plain`.
struct PrivateCtx {
  explicit PrivateCtx(const PrivateKey& key);
  bool matches(const PrivateKey& key) const;

  Limbs n;
  std::optional<PublicCtx> plain;
  std::optional<bigint::MontgomeryCtx> p, q;
  Limbs dp, dq, qinv;
};

}  // namespace omadrm::rsa
