#include "pki/authority.h"

#include "provider/provider.h"

namespace omadrm::pki {

CertificationAuthority::CertificationAuthority(std::string cn,
                                               std::size_t key_bits,
                                               const Validity& validity,
                                               Rng& rng)
    : cn_(std::move(cn)),
      key_(rsa::generate_key(key_bits, rng)),
      root_cert_(serial_number(1), cn_, cn_, validity, key_.public_key(),
                 /*is_ca=*/true, key_, rng) {}

Certificate CertificationAuthority::issue(const std::string& subject_cn,
                                          const rsa::PublicKey& subject_key,
                                          const Validity& validity, Rng& rng,
                                          bool ca) {
  return Certificate(allocate_serial(), cn_, subject_cn, validity,
                     subject_key, ca, key_, rng);
}

Serial CertificationAuthority::allocate_serial() {
  MutexLock lock(mu_);
  Serial serial = serial_number(next_serial_++);
  issued_.insert(serial);
  return serial;
}

void CertificationAuthority::revoke(const Serial& serial) {
  MutexLock lock(mu_);
  revoked_.insert(serial);
}

bool CertificationAuthority::is_revoked(const Serial& serial) const {
  MutexLock lock(mu_);
  return revoked_.contains(serial);
}

OcspResponse CertificationAuthority::ocsp_respond(
    const Serial& serial, ByteView nonce, std::uint64_t now, Rng& rng,
    provider::CryptoProvider& crypto) {
  OcspCertStatus status;
  {
    MutexLock lock(mu_);
    if (revoked_.contains(serial)) {
      status = OcspCertStatus::kRevoked;
    } else if (issued_.contains(serial) || serial == root_cert_.serial()) {
      status = OcspCertStatus::kGood;
    } else {
      status = OcspCertStatus::kUnknown;
    }
  }
  return OcspResponse(serial, status, now, Bytes(nonce.begin(), nonce.end()),
                      cn_, key_, rng, crypto);
}

SubordinateAuthority::SubordinateAuthority(std::string cn,
                                           std::size_t key_bits,
                                           CertificationAuthority& parent,
                                           const Validity& validity, Rng& rng)
    : cn_(std::move(cn)),
      parent_(parent),
      key_(rsa::generate_key(key_bits, rng)),
      cert_(parent_.issue(cn_, key_.public_key(), validity, rng,
                          /*ca=*/true)) {}

Certificate SubordinateAuthority::issue(const std::string& subject_cn,
                                        const rsa::PublicKey& subject_key,
                                        const Validity& validity, Rng& rng) {
  return Certificate(parent_.allocate_serial(), cn_, subject_cn, validity,
                     subject_key, /*is_ca=*/false, key_, rng);
}

}  // namespace omadrm::pki
