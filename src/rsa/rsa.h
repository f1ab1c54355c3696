// RSA key model and the PKCS#1 v2.1 primitives RSAEP and RSADP plus the
// I2OSP / OS2IP octet-string conversions — the primitive set the paper
// lists in §2.4.5 (RSASP1 and RSAVP1 are the same math as RSADP and
// RSAEP; the PSS code calls those).
//
// The primitives run from octet string to octet string on the
// fixed-width limbs of bigint/limbs.h: the key's numbers are turned into
// limbs once, with its Montgomery contexts (CtxSlot below), and an
// operation then does no BigInt arithmetic and no heap allocation.
//
// Private-key operations use the CRT representation (p, q, dP, dQ, qInv)
// when available, which is also what the cycle-cost model assumes for the
// "RSA 1024 Private Key Op" row of Table 1. Both CRT halves go through
// one bigint::MontgomeryCtx::mod_exp_pair call: on hosts with AVX-512
// IFMA that is a single dual exponentiation (the repo's dual-Montgomery
// RSA macro), elsewhere two mod_exp calls on the BMI2/ADX or portable
// kernels. Agent signing, KEM decapsulation and RI and OCSP signing all
// take this path; the results are identical on every host.
//
// Constant time. Every step of rsadp on the secret key runs the same
// instruction and memory-access sequence for every ciphertext and every
// key of a given size: c mod p and c mod q are Montgomery products and
// masked additions (MontgomeryCtx::reduce), both exponentiations scan the
// whole window table under a mask and multiply on every window (only the
// exponent's bit length shows), Garner's qInv (m1 - m2) mod p is a masked
// subtraction, a masked addition and a Montgomery product, and m2 + q h
// is a fixed-width schoolbook product. Key generation (BigInt arithmetic
// and Miller-Rabin) is the only variable-time path left on private data.
// The public-key path (rsaep) branches on the public exponent's bits.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/random.h"

namespace omadrm::rsa {

using bigint::BigInt;

struct PublicKey;
struct PrivateKey;
struct PublicCtx;   // rsa/key_ctx.h
struct PrivateCtx;

/// A key's lazily built fixed-width form `Ctx`: its Montgomery contexts
/// and its numbers as limbs. The key pays that setup once, however many
/// operations it serves.
///
/// Copying yields an empty slot: the copy rebuilds on first use, and
/// never reading the source keeps key copies race-free against a
/// concurrent operation filling the source's slot. Moving keeps the
/// form. The slot publishes through one atomic pointer, so concurrent
/// operations on one key are safe, and the keys keep defaulted copy/move
/// operations.
template <class Ctx>
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

  /// The form of `key`, built on first use; valid until the slot is
  /// assigned to or destroyed. A form built from other field values (a
  /// key field was overwritten in place) is replaced, so field-wise key
  /// replacement heals itself. Throws kCrypto for a key the fixed-width
  /// path cannot hold (an even or a wider than 4096-bit modulus).
  template <class Key>
  const Ctx& get(const Key& key) const;

 private:
  struct Node;  // a form and the one it replaced
  void reset(const Node* head) noexcept;

  mutable std::atomic<const Node*> head_{nullptr};
};

struct PublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent
  CtxSlot<PublicCtx> ctx;

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

  // The fixed-width form, CRT primes included. Kept on the key, so the
  // secret primes never outlive it in memory.
  CtxSlot<PrivateCtx> ctx;

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

// -- PKCS#1 v2.1 primitives ------------------------------------------------
//
// The input is a big-endian integer of any length; it must be below n
// (throws kCrypto otherwise). The result goes to `out` as exactly
// out.size() big-endian bytes (throws kRange if it does not fit; key
// length always does). No heap allocation once the key's form is built.

/// RSAEP: out = m^e mod n.
void rsaep(const PublicKey& key, ByteView m, std::span<std::uint8_t> out);

/// RSADP: out = c^d mod n, by CRT when the key has it.
void rsadp(const PrivateKey& key, ByteView c, std::span<std::uint8_t> out);

}  // namespace omadrm::rsa
