// The fixed-width forms behind rsa::PublicKey and rsa::PrivateKey: the
// keys' numbers as limbs (bigint/limbs.h) and their Montgomery contexts,
// built once when a key is constructed and shared by its copies.
// Internal to the rsa layer.
#pragma once

#include <optional>
#include <span>

#include "bigint/limbs.h"
#include "bigint/montgomery.h"
#include "rsa/rsa.h"

namespace omadrm::rsa {

using bigint::kMaxWords;
using bigint::Limbs;
using bigint::Word;

/// A public key's numbers as given, and, when the RSA path can use them,
/// the modulus's context and the exponent as limbs.
struct PublicForm {
  PublicForm(ByteView n, ByteView e);

  /// out = in^exponent mod n; `what` names an out-of-range input.
  void exp(std::span<const Word> exponent, ByteView in,
           std::span<std::uint8_t> out, const char* what) const;

  Bytes n, e;  // minimal big-endian magnitudes
  std::optional<bigint::MontgomeryCtx> mont;  // absent: key unusable
  Limbs e_limbs;
};

/// A private key: d, and with CRT the contexts of p and q, dP, dQ and
/// qInv. The modulus's context is the public key's.
struct PrivateForm {
  Limbs d;
  std::optional<bigint::MontgomeryCtx> p, q;  // both or neither
  Limbs dp, dq, qinv;
};

}  // namespace omadrm::rsa
