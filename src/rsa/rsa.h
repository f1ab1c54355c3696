// RSA key model and the PKCS#1 v2.1 primitives RSAEP and RSADP — the
// primitive set the paper lists in §2.4.5 (RSASP1 and RSAVP1 are the
// same math as RSADP and RSAEP; the PSS code calls those). The I2OSP and
// OS2IP conversions are folded into the primitives, which take and
// return octet strings.
//
// The primitives run from octet string to octet string on the
// fixed-width limbs of bigint/limbs.h. Keys are immutable values: a key
// turns its numbers into limbs and builds its Montgomery contexts once,
// when it is constructed, and its copies share that form. An operation
// then does no conversion and no heap allocation.
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
// is a fixed-width schoolbook product. The public-key path (rsaep)
// branches on the public exponent's bits.
//
// Key generation is not constant time. Its arithmetic runs on limbs too:
// qInv = q^(p-2) mod p is the windowed exponentiation above, and d, dP
// and dQ each take one product by e's inverse and one exact division by
// e (bigint::inverse_of_small). But the prime search branches on every
// rejected candidate: trial division stops at the first small factor,
// Miller-Rabin at the first witness, and the rejection sampler of its
// witnesses at the first draw below n - 3, so the time taken tracks the
// candidates tried.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/random.h"

namespace omadrm::rsa {

struct PublicForm;  // rsa/key_ctx.h
struct PrivateForm;

/// An RSA public key (n, e), immutable; copies share one form.
class PublicKey {
 public:
  /// The empty key: byte_length() 0, and every operation throws kCrypto.
  PublicKey() = default;

  /// From big-endian magnitudes (leading zeros allowed). Any values are
  /// accepted, so every decoded certificate yields its key. When the RSA
  /// path cannot use them (a zero or even modulus, or a modulus or
  /// exponent wider than 4096 bits), rsaep and kem_encapsulate throw
  /// kCrypto and pss_verify returns false.
  PublicKey(ByteView n, ByteView e);

  /// The modulus and the exponent as minimal big-endian magnitudes.
  ByteView n() const;
  ByteView e() const;

  /// Modulus size in bits, and in bytes (k in PKCS#1 terms).
  std::size_t bit_length() const;
  std::size_t byte_length() const { return (bit_length() + 7) / 8; }

  /// The fixed-width form; throws kCrypto when the key has none.
  const PublicForm& form() const;

 private:
  std::shared_ptr<const PublicForm> form_;
};

/// An RSA private key, immutable; copies share one form, so the secret
/// numbers live once in memory however many copies exist.
class PrivateKey {
 public:
  /// The empty key: byte_length() 0, and every operation throws kCrypto.
  PrivateKey() = default;

  /// A key in CRT form from its components as big-endian magnitudes.
  /// Throws kCrypto unless the RSA path can hold them: a usable public
  /// key, odd p and q, every number at most 4096 bits, qInv no wider
  /// than p and p and q together as wide as n.
  PrivateKey(PublicKey pub, ByteView d, ByteView p, ByteView q, ByteView dp,
             ByteView dq, ByteView qinv);

  /// A key without CRT components: rsadp computes c^d mod n directly.
  /// Throws kCrypto unless the public key is usable and d fits 4096 bits.
  PrivateKey(PublicKey pub, ByteView d);

  const PublicKey& public_key() const { return pub_; }
  std::size_t bit_length() const { return pub_.bit_length(); }
  std::size_t byte_length() const { return pub_.byte_length(); }
  bool has_crt() const;

  /// The private numbers as minimal big-endian magnitudes. The CRT
  /// components of a key without them are empty.
  Bytes d() const;
  Bytes p() const;
  Bytes q() const;
  Bytes dp() const;
  Bytes dq() const;
  Bytes qinv() const;

  /// The fixed-width form; throws kCrypto for the empty key.
  const PrivateForm& form() const;

 private:
  PublicKey pub_;
  std::shared_ptr<const PrivateForm> form_;
};

/// Generates an RSA key pair in CRT form with an exactly `bits`-bit
/// modulus and public exponent 65537; bits must be even and 64 to 4096
/// (kRange otherwise). Deterministic given the Rng.
PrivateKey generate_key(std::size_t bits, Rng& rng);

// -- PKCS#1 v2.1 primitives ------------------------------------------------
//
// The input is a big-endian integer of any length; it must be below n
// (throws kCrypto otherwise). The result goes to `out` as exactly
// out.size() big-endian bytes (throws kRange if it does not fit; key
// length always does). No heap allocation.

/// RSAEP: out = m^e mod n.
void rsaep(const PublicKey& key, ByteView m, std::span<std::uint8_t> out);

/// RSADP: out = c^d mod n, by CRT when the key has it.
void rsadp(const PrivateKey& key, ByteView c, std::span<std::uint8_t> out);

}  // namespace omadrm::rsa
