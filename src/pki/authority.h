// Certification Authority — the trust anchor of the OMA DRM 2 ecosystem
// (the role CMLA plays in the paper's Figure 1). Issues certificates to
// Rights Issuers and DRM Agents, maintains a revocation list, and acts as
// the OCSP responder.
#pragma once

#include <string>

#include "common/random.h"
#include "pki/certificate.h"
#include "pki/ocsp.h"

namespace omadrm::provider {
class CryptoProvider;
}

namespace omadrm::pki {

class CertificationAuthority {
 public:
  /// Creates a CA with a fresh self-signed root certificate.
  CertificationAuthority(std::string cn, std::size_t key_bits,
                         const Validity& validity, Rng& rng);

  const Certificate& root_certificate() const { return root_cert_; }
  const std::string& cn() const { return cn_; }
  rsa::PublicKey public_key() const { return key_.public_key(); }

  /// Issues a certificate over `subject_key` with a fresh serial. Pass
  /// `ca = true` only for subordinate authorities: the CA bit is what
  /// lets a certificate act as a chain intermediate.
  Certificate issue(const std::string& subject_cn,
                    const rsa::PublicKey& subject_key,
                    const Validity& validity, Rng& rng, bool ca = false);

  /// Reserves a fresh serial in this CA's issued set without minting a
  /// certificate — used by subordinate authorities so the certificates
  /// they sign stay covered by this CA's OCSP responder.
  Serial allocate_serial();

  /// Marks a serial as revoked; subsequent OCSP responses report it.
  void revoke(const Serial& serial);
  bool is_revoked(const Serial& serial) const;

  /// Responds to an OCSP request at time `now`. Serials this CA never
  /// issued report kUnknown. The response is signed through `crypto`, so
  /// a Rights Issuer stapling it to its registration response charges
  /// the signature to its own provider.
  OcspResponse ocsp_respond(const OcspRequest& request, std::uint64_t now,
                            Rng& rng, provider::CryptoProvider& crypto);

 private:
  std::string cn_;
  rsa::PrivateKey key_;
  Certificate root_cert_;
  std::uint64_t next_serial_ = 2;  // serial 1 is the root itself
  SerialSet issued_;
  SerialSet revoked_;
};

/// An intermediate CA: holds its own key pair, carries a certificate
/// issued by the parent root, and issues end-entity certificates signed
/// with its own key. Serials come from the parent's allocator so the
/// parent's OCSP responder covers them. This is what turns the PKI into
/// real multi-link chains (device/RI -> intermediate -> root) — the
/// configuration whose repeated verification cost the paper's RI-context
/// caching argument targets.
class SubordinateAuthority {
 public:
  SubordinateAuthority(std::string cn, std::size_t key_bits,
                       CertificationAuthority& parent,
                       const Validity& validity, Rng& rng);

  const std::string& cn() const { return cn_; }
  const Certificate& certificate() const { return cert_; }
  rsa::PublicKey public_key() const { return key_.public_key(); }

  /// Issues a certificate signed with this intermediate's key.
  Certificate issue(const std::string& subject_cn,
                    const rsa::PublicKey& subject_key,
                    const Validity& validity, Rng& rng);

 private:
  std::string cn_;
  CertificationAuthority& parent_;
  rsa::PrivateKey key_;
  Certificate cert_;
};

/// Validates a leaf certificate against a trusted root at time `now`,
/// checking both the leaf signature/validity and the root's self-signature.
CertStatus validate_against_root(const Certificate& leaf,
                                 const Certificate& trusted_root,
                                 std::uint64_t now);

}  // namespace omadrm::pki
