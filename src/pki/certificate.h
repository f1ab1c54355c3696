// X.509-profile certificates over the DER substrate.
//
// OMA DRM 2 trust is rooted in a PKI: the Certification Authority (the
// paper names CMLA as the first one) issues certificates to Rights Issuers
// and DRM Agents. We implement a focused X.509 profile: version 3 skeleton
// with serial, single-CN issuer/subject names, UTCTime validity, an RSA
// SubjectPublicKeyInfo, and an RSASSA-PSS signature over the DER-encoded
// TBS (to-be-signed) structure. That exercises the same terminal-side
// cryptographic work (SHA-1 over the TBS + RSAVP1) that the paper's cost
// model charges for certificate verification.
#pragma once

#include <cstring>
#include <set>
#include <string>

#include "common/bytes.h"
#include "common/random.h"
#include "rsa/rsa.h"

namespace omadrm::pki {

/// A certificate serial number as its minimal big-endian magnitude, the
/// form asn1::Decoder::read_integer returns: equal numbers are equal
/// bytes, however the DER spelled them.
using Serial = Bytes;

/// The serial number `v`.
Serial serial_number(std::uint64_t v);

/// Numeric order on serials: of two minimal magnitudes the shorter is the
/// smaller number, and equal lengths compare bytewise.
struct SerialLess {
  bool operator()(const Serial& a, const Serial& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return a.size() != 0 && std::memcmp(a.data(), b.data(), a.size()) < 0;
  }
};
using SerialSet = std::set<Serial, SerialLess>;

/// Validity window in Unix seconds (inclusive bounds).
struct Validity {
  std::uint64_t not_before = 0;
  std::uint64_t not_after = 0;
};

class Certificate {
 public:
  Certificate() = default;
  /// `serial` may carry leading zero octets; the certificate keeps its
  /// minimal form.
  Certificate(ByteView serial, std::string issuer_cn,
              std::string subject_cn, Validity validity,
              rsa::PublicKey subject_key);

  const Serial& serial() const { return serial_; }
  const std::string& issuer_cn() const { return issuer_cn_; }
  const std::string& subject_cn() const { return subject_cn_; }
  const Validity& validity() const { return validity_; }
  const rsa::PublicKey& subject_key() const { return subject_key_; }
  const Bytes& signature() const { return signature_; }

  /// CA marker (the profile's basicConstraints analogue): only
  /// certificates with this bit may act as chain intermediates. Part of
  /// the signed TBS — set it before signing. Encoded as an optional
  /// trailing BOOLEAN, so end-entity certificates keep the legacy layout.
  bool is_ca() const { return is_ca_; }
  void set_ca(bool ca) {
    is_ca_ = ca;
    refresh_der();
  }

  bool is_self_signed() const { return issuer_cn_ == subject_cn_; }

  /// DER of the TBSCertificate — the exact bytes that get signed/verified.
  Bytes tbs_der() const;

  /// Full certificate DER: SEQUENCE { tbs, sigAlg, signature }. Encoded
  /// once, when the certificate is signed or decoded, and kept: store
  /// records and the registration reuse checks read these bytes instead
  /// of re-encoding the body. Always this profile's
  /// canonical encoding, even when from_der() accepted a laxer input.
  /// Throws Error(kState) while the certificate is unsigned.
  const Bytes& to_der() const;
  static Certificate from_der(ByteView der);

  /// Attaches a signature produced by the issuer over tbs_der().
  void set_signature(Bytes signature) {
    signature_ = std::move(signature);
    refresh_der();
  }

 private:
  /// Re-encodes der_ from the fields (empty while unsigned). Every
  /// mutator calls it, so der_ never goes stale and to_der() stays a pure
  /// read that threads sharing a certificate may call concurrently.
  void refresh_der();

  Serial serial_;
  std::string issuer_cn_;
  std::string subject_cn_;
  Validity validity_;
  rsa::PublicKey subject_key_;
  Bytes signature_;
  bool is_ca_ = false;
  Bytes der_;
};

/// Outcome of a single-certificate verification.
enum class CertStatus {
  kValid,
  kBadSignature,
  kNotYetValid,
  kExpired,
  kIssuerMismatch,
  kRevoked,  // reported by ChainVerifier's revocation denylist
};

const char* to_string(CertStatus s);

/// Verifies `cert` against the issuer public key at time `now`.
/// `expected_issuer_cn` guards against signature-valid-but-wrong-issuer
/// confusion when multiple CAs are in play.
CertStatus verify_certificate(const Certificate& cert,
                              const rsa::PublicKey& issuer_key,
                              const std::string& expected_issuer_cn,
                              std::uint64_t now);

}  // namespace omadrm::pki
