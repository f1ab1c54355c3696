#include "pki/authority.h"

#include "provider/provider.h"
#include "rsa/pss.h"

namespace omadrm::pki {

CertificationAuthority::CertificationAuthority(std::string cn,
                                               std::size_t key_bits,
                                               const Validity& validity,
                                               Rng& rng)
    : cn_(std::move(cn)), key_(rsa::generate_key(key_bits, rng)) {
  root_cert_ = Certificate(serial_number(1), cn_, cn_,
                           validity, key_.public_key());
  root_cert_.set_ca(true);
  root_cert_.set_signature(rsa::pss_sign(key_, root_cert_.tbs_der(), rng));
}

Certificate CertificationAuthority::issue(const std::string& subject_cn,
                                          const rsa::PublicKey& subject_key,
                                          const Validity& validity, Rng& rng,
                                          bool ca) {
  Serial serial = allocate_serial();
  Certificate cert(serial, cn_, subject_cn, validity, subject_key);
  cert.set_ca(ca);
  cert.set_signature(rsa::pss_sign(key_, cert.tbs_der(), rng));
  return cert;
}

Serial CertificationAuthority::allocate_serial() {
  Serial serial = serial_number(next_serial_++);
  issued_.insert(serial);
  return serial;
}

void CertificationAuthority::revoke(const Serial& serial) {
  revoked_.insert(serial);
}

bool CertificationAuthority::is_revoked(const Serial& serial) const {
  return revoked_.contains(serial);
}

OcspResponse CertificationAuthority::ocsp_respond(
    const OcspRequest& request, std::uint64_t now, Rng& rng,
    provider::CryptoProvider& crypto) {
  OcspCertStatus status;
  const Serial& serial = request.serial;
  if (revoked_.contains(serial)) {
    status = OcspCertStatus::kRevoked;
  } else if (issued_.contains(serial) || serial == root_cert_.serial()) {
    status = OcspCertStatus::kGood;
  } else {
    status = OcspCertStatus::kUnknown;
  }
  OcspResponse resp(request.serial, status, now, request.nonce, cn_);
  resp.set_signature(crypto.pss_sign(key_, resp.tbs_der(), rng));
  return resp;
}

SubordinateAuthority::SubordinateAuthority(std::string cn,
                                           std::size_t key_bits,
                                           CertificationAuthority& parent,
                                           const Validity& validity, Rng& rng)
    : cn_(std::move(cn)),
      parent_(parent),
      key_(rsa::generate_key(key_bits, rng)) {
  cert_ = parent_.issue(cn_, key_.public_key(), validity, rng, /*ca=*/true);
}

Certificate SubordinateAuthority::issue(const std::string& subject_cn,
                                        const rsa::PublicKey& subject_key,
                                        const Validity& validity, Rng& rng) {
  Certificate cert(parent_.allocate_serial(), cn_, subject_cn, validity,
                   subject_key);
  cert.set_signature(rsa::pss_sign(key_, cert.tbs_der(), rng));
  return cert;
}

CertStatus validate_against_root(const Certificate& leaf,
                                 const Certificate& trusted_root,
                                 std::uint64_t now) {
  // The root must be self-consistent first.
  CertStatus root_status = verify_certificate(
      trusted_root, trusted_root.subject_key(), trusted_root.issuer_cn(), now);
  if (root_status != CertStatus::kValid) return root_status;
  return verify_certificate(leaf, trusted_root.subject_key(),
                            trusted_root.subject_cn(), now);
}

}  // namespace omadrm::pki
