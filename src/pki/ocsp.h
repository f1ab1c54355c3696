// OCSP (RFC 2560 subset) — the revocation freshness mechanism ROAP relies
// on: the Rights Issuer staples a current OCSP response for its own
// certificate into the RegistrationResponse, and the DRM Agent verifies
// the responder's signature (one of the paper's terminal-side RSA public
// key operations during registration).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/random.h"
#include "pki/certificate.h"
#include "rsa/rsa.h"

namespace omadrm::pki {

enum class OcspCertStatus : std::uint8_t {
  kGood = 0,
  kRevoked = 1,
  kUnknown = 2,
};

const char* to_string(OcspCertStatus s);

/// Client-built request identifying the certificate by serial, with a
/// nonce to bind the response to this request.
struct OcspRequest {
  Serial serial;
  Bytes nonce;

  Bytes to_der() const;
  static OcspRequest from_der(ByteView der);
};

/// Responder-signed status assertion.
class OcspResponse {
 public:
  OcspResponse() = default;
  OcspResponse(Serial serial, OcspCertStatus status,
               std::uint64_t produced_at, Bytes nonce,
               std::string responder_cn);

  const Serial& serial() const { return serial_; }
  OcspCertStatus status() const { return status_; }
  std::uint64_t produced_at() const { return produced_at_; }
  const Bytes& nonce() const { return nonce_; }
  const std::string& responder_cn() const { return responder_cn_; }

  /// DER of the signed part (ResponseData).
  Bytes tbs_der() const;
  Bytes to_der() const;
  static OcspResponse from_der(ByteView der);

  void set_signature(Bytes sig) { signature_ = std::move(sig); }
  const Bytes& signature() const { return signature_; }

  /// Signature + nonce + serial + freshness check.
  /// `max_age` bounds produced_at staleness relative to `now`.
  bool verify(const rsa::PublicKey& responder_key, const OcspRequest& request,
              std::uint64_t now, std::uint64_t max_age) const;

 private:
  Serial serial_;
  OcspCertStatus status_ = OcspCertStatus::kUnknown;
  std::uint64_t produced_at_ = 0;
  Bytes nonce_;
  std::string responder_cn_;
  Bytes signature_;
};

}  // namespace omadrm::pki
