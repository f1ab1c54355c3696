// RSA key model and the PKCS#1 v2.1 primitives (RSAEP / RSADP / RSASP1 /
// RSAVP1) plus the I2OSP / OS2IP octet-string conversions — exactly the
// primitive set the paper lists in §2.4.5.
//
// Private-key operations use the CRT representation (p, q, dP, dQ, qInv)
// when available, which is also what the cycle-cost model assumes for the
// "RSA 1024 Private Key Op" row of Table 1.
#pragma once

#include <atomic>
#include <cstddef>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/random.h"

namespace omadrm::bigint {
class MontgomeryCtx;
}

namespace omadrm::rsa {

using bigint::BigInt;

/// A key's lazily built Montgomery context for one of its moduli: n for a
/// public key, p and q for a private key's CRT halves. The key pays the
/// context setup once, however many operations it serves.
///
/// Copying yields an empty slot: the copy rebuilds on first use, and
/// never reading the source keeps key copies race-free against a
/// concurrent operation filling the source's slot. Moving keeps the
/// context. The slot publishes through one atomic pointer, so concurrent
/// operations on one key are safe, and the keys keep defaulted copy/move
/// operations.
class CtxSlot {
 public:
  CtxSlot() = default;
  CtxSlot(const CtxSlot&) noexcept {}
  CtxSlot& operator=(const CtxSlot&) noexcept {
    reset(nullptr);
    return *this;
  }
  CtxSlot(CtxSlot&& other) noexcept : head_(other.head_.exchange(nullptr)) {}
  CtxSlot& operator=(CtxSlot&& other) noexcept {
    reset(other.head_.exchange(nullptr));
    return *this;
  }
  ~CtxSlot() { reset(nullptr); }

  /// The context for the odd modulus `m`, built on first use; valid until
  /// the slot is assigned to or destroyed. A context for another modulus
  /// (the key's field was overwritten in place) is replaced, so
  /// field-wise key replacement heals itself.
  const bigint::MontgomeryCtx& get(const BigInt& m) const;

 private:
  struct Node;  // a context and the one it replaced
  void reset(const Node* head) noexcept;

  mutable std::atomic<const Node*> head_{nullptr};
};

struct PublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent
  CtxSlot ctx_n;  // context for n (odd moduli only)

  /// Modulus size in bytes (k in PKCS#1 terms).
  std::size_t byte_length() const { return (n.bit_length() + 7) / 8; }
  std::size_t bit_length() const { return n.bit_length(); }
};

struct PrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;
  // CRT components; present for generated keys.
  BigInt p, q, dp, dq, qinv;
  bool has_crt = false;

  // Contexts for the CRT primes. Kept on the key, so the secret primes
  // never outlive it in memory.
  CtxSlot crt_ctx_p;
  CtxSlot crt_ctx_q;

  PublicKey public_key() const { return {n, e, {}}; }
  std::size_t byte_length() const { return (n.bit_length() + 7) / 8; }
};

/// Generates an RSA key pair with an exactly `bits`-bit modulus and
/// public exponent 65537. Deterministic given the Rng.
PrivateKey generate_key(std::size_t bits, Rng& rng);

/// I2OSP: integer to big-endian octet string of exactly `len` bytes.
/// Throws kRange if the integer does not fit.
Bytes i2osp(const BigInt& x, std::size_t len);

/// OS2IP: octet string to integer.
BigInt os2ip(ByteView data);

// -- PKCS#1 v2.1 primitives (integer domain) -------------------------------

/// RSAEP: m^e mod n. Requires 0 <= m < n.
BigInt rsaep(const PublicKey& key, const BigInt& m);

/// RSADP: c^d mod n (CRT when available). Requires 0 <= c < n.
BigInt rsadp(const PrivateKey& key, const BigInt& c);

/// RSASP1: signature primitive (same math as RSADP).
BigInt rsasp1(const PrivateKey& key, const BigInt& m);

/// RSAVP1: verification primitive (same math as RSAEP).
BigInt rsavp1(const PublicKey& key, const BigInt& s);

}  // namespace omadrm::rsa
