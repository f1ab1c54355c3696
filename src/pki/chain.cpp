#include "pki/chain.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "provider/provider.h"
#include "rsa/pss.h"

namespace omadrm::pki {

using omadrm::Error;
using omadrm::ErrorKind;

ChainVerifier::ChainVerifier(Certificate trust_root,
                             provider::CryptoProvider& crypto)
    : trust_root_(std::move(trust_root)), crypto_(&crypto) {
  // One-time anchor self-consistency check.
  // unmetered: a terminal validates its baked-in root at boot, not per
  // ROAP message, so this signature check is not charged to `crypto`.
  root_self_ok_ = rsa::pss_verify(trust_root_.subject_key(),
                                  trust_root_.tbs_der(),
                                  trust_root_.signature());
}

ChainVerdict ChainVerifier::verify(std::span<const Certificate> chain,
                                   std::uint64_t now) const {
  if (chain.empty()) {
    throw Error(ErrorKind::kProtocol, "chain verifier: empty chain");
  }
  ChainVerdict out;
  out.serials.reserve(chain.size());
  // The verdict window is the intersection of every link's validity,
  // trust anchor included — an expired root must not keep vouching.
  out.valid_from = trust_root_.validity().not_before;
  out.valid_until = trust_root_.validity().not_after;

  // Durable revocation: a denylisted serial anywhere in the chain
  // short-circuits before any RSA work.
  {
    ReaderLock lock(state_->mu);
    for (const Certificate& cert : chain) {
      if (state_->revoked_serials.contains(cert.serial())) {
        for (const Certificate& c : chain) out.serials.push_back(c.serial());
        out.status = CertStatus::kRevoked;
        return out;
      }
    }
  }

  if (!root_self_ok_) {
    out.status = CertStatus::kBadSignature;
    return out;
  }
  if (now < trust_root_.validity().not_before) {
    out.status = CertStatus::kNotYetValid;
    return out;
  }
  if (now > trust_root_.validity().not_after) {
    out.status = CertStatus::kExpired;
    return out;
  }

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = chain[i];
    const Certificate& issuer = i + 1 < chain.size() ? chain[i + 1]
                                                     : trust_root_;
    out.serials.push_back(cert.serial());
    out.valid_from = std::max(out.valid_from, cert.validity().not_before);
    out.valid_until = std::min(out.valid_until, cert.validity().not_after);

    if (cert.issuer_cn() != issuer.subject_cn()) {
      out.status = CertStatus::kIssuerMismatch;
      return out;
    }
    // Only CA-marked certificates may vouch for others: without this an
    // arbitrary end-entity certificate (e.g. another device's) could be
    // inserted as a chain link and mint rogue issuers.
    if (i + 1 < chain.size() && !chain[i + 1].is_ca()) {
      out.status = CertStatus::kIssuerMismatch;
      return out;
    }
    if (now < cert.validity().not_before) {
      out.status = CertStatus::kNotYetValid;
      return out;
    }
    if (now > cert.validity().not_after) {
      out.status = CertStatus::kExpired;
      return out;
    }
    if (!crypto_->pss_verify(issuer.subject_key(), cert.tbs_der(),
                             cert.signature())) {
      out.status = CertStatus::kBadSignature;
      return out;
    }
  }
  out.status = CertStatus::kValid;
  return out;
}

CertStatus ChainVerifier::revalidate(ChainVerdict& held,
                                     std::span<const Certificate> chain,
                                     std::uint64_t now) const {
  if (held.status == CertStatus::kValid && now >= held.valid_from &&
      now <= held.valid_until) {
    ReaderLock lock(state_->mu);
    bool revoked = false;
    for (const Serial& serial : held.serials) {
      revoked |= state_->revoked_serials.contains(serial);
    }
    if (!revoked) return CertStatus::kValid;
  }
  held = verify(chain, now);
  return held.status;
}

void ChainVerifier::invalidate_serial(const Serial& serial) {
  WriterLock lock(state_->mu);
  state_->revoked_serials.insert(serial);
}

}  // namespace omadrm::pki
