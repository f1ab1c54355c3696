// Certification Authority — the trust anchor of the OMA DRM 2 ecosystem
// (the role CMLA plays in the paper's Figure 1). Issues certificates to
// Rights Issuers and DRM Agents, maintains a revocation list, and acts as
// the OCSP responder.
//
// Thread-safe: an RI's handler threads read the revocation list
// (is_revoked, ocsp_respond) while an operator may revoke or issue. The
// serial counter and the issued and revoked sets sit under one mutex that
// is held only for set lookups and inserts, never across RSA work.
#pragma once

#include <string>

#include "common/ordered_mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
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

  /// Answers an OCSP query for `serial`, bound to `nonce`, at time `now`.
  /// Serials this CA never issued report kUnknown. The response is signed
  /// through `crypto`, so a Rights Issuer stapling it to its registration
  /// response charges the signature to its own provider.
  OcspResponse ocsp_respond(const Serial& serial, ByteView nonce,
                            std::uint64_t now, Rng& rng,
                            provider::CryptoProvider& crypto);

 private:
  std::string cn_;
  rsa::PrivateKey key_;
  Certificate root_cert_;
  // Rank kPkiAuthority: taken under a shard lock (the RI's revocation
  // checks) and never held across RSA work or another lock.
  mutable OrderedMutex mu_{LockRank::kPkiAuthority, "pki.authority"};
  std::uint64_t next_serial_ GUARDED_BY(mu_) = 2;  // 1 is the root itself
  SerialSet issued_ GUARDED_BY(mu_);
  SerialSet revoked_ GUARDED_BY(mu_);
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

  const Certificate& certificate() const { return cert_; }

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

}  // namespace omadrm::pki
