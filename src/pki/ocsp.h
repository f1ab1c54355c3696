// OCSP (RFC 2560 subset) — the revocation freshness mechanism ROAP relies
// on: the Rights Issuer staples a current OCSP response for its own
// certificate into the RegistrationResponse, and the DRM Agent verifies
// the responder's signature (one of the paper's terminal-side RSA public
// key operations during registration).
//
// An OcspResponse is an immutable signed value like a Certificate: it is
// signed when the responder makes it, or decoded with from_der(), and it
// keeps one canonical DER encoding. check_ocsp() is the one way to check
// it; its signature check goes through the CryptoProvider, so a metered
// provider charges it to the cycle ledger. ROAP carries only the
// request's nonce, so there is no request message: the responder answers
// a serial and a nonce.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/random.h"
#include "pki/certificate.h"
#include "rsa/rsa.h"

namespace omadrm::provider {
class CryptoProvider;
}

namespace omadrm::pki {

enum class OcspCertStatus : std::uint8_t {
  kGood = 0,
  kRevoked = 1,
  kUnknown = 2,
};

/// Responder-signed status assertion.
class OcspResponse {
 public:
  OcspResponse() = default;
  /// Makes a response signed through `crypto` with `responder_key`.
  OcspResponse(Serial serial, OcspCertStatus status,
               std::uint64_t produced_at, Bytes nonce,
               std::string responder_cn, const rsa::PrivateKey& responder_key,
               Rng& rng, provider::CryptoProvider& crypto);

  /// Decodes a response; like Certificate::from_der it keeps the
  /// canonical encoding of the decoded fields.
  static OcspResponse from_der(ByteView der);

  const Serial& serial() const { return serial_; }
  OcspCertStatus status() const { return status_; }
  std::uint64_t produced_at() const { return produced_at_; }
  const Bytes& nonce() const { return nonce_; }
  const std::string& responder_cn() const { return responder_cn_; }

  /// The signed part (ResponseData) inside to_der().
  ByteView tbs_der() const { return der_.tbs(); }
  ByteView signature() const { return der_.signature(); }
  const Bytes& to_der() const { return der_.bytes(); }

 private:
  Bytes encode_tbs() const;

  Serial serial_;
  OcspCertStatus status_ = OcspCertStatus::kUnknown;
  std::uint64_t produced_at_ = 0;
  Bytes nonce_;
  std::string responder_cn_;
  SignedDer der_;
};

/// What a stapled response says about the certificate it was asked for.
enum class OcspCheck {
  kGood,     // fresh, bound to the request, signed, status good
  kRevoked,  // all of that, and the responder says revoked
  kInvalid,  // anything else: wrong serial or nonce, stale, from the
             // future, a bad signature, or status unknown
};

/// Checks `response` against the request it answers (`serial`, `nonce`)
/// at time `now`: serial, nonce, age (`max_age` bounds how old
/// produced_at may be), the responder's signature through `crypto`, then
/// the status. The signature is checked before the status is believed,
/// so only a genuine revocation reads kRevoked.
OcspCheck check_ocsp(const OcspResponse& response, const Serial& serial,
                     ByteView nonce, const rsa::PublicKey& responder_key,
                     std::uint64_t now, std::uint64_t max_age,
                     provider::CryptoProvider& crypto);

}  // namespace omadrm::pki
