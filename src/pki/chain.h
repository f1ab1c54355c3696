// Certificate-chain verification and the verdicts callers hold.
//
// The paper's central cost observation is that RSA public-key operations
// for certificate-chain verification dominate ROAP processing on embedded
// hardware, and that the DRM Agent should verify an RI's chain once and
// then rely on the stored RI Context ("the Device is not required to
// verify that Rights Issuer's certificate chain again" — OMA DRM 2 via
// paper §2.4.1). ChainVerifier is that mechanism: verify() walks a chain
// (one RSASSA-PSS verification per link) and returns a ChainVerdict by
// value; the caller keeps the verdict beside the chain it covers (the
// agent's RiContext, the RI's registered-device record) and hands it to
// revalidate() at every later use, which accepts it without RSA work for
// as long as `now` stays inside the chain's validity window and none of
// its serials has been revoked.
//
// Thread-safe: the revocation denylist sits under a reader-biased lock.
// revalidate()'s accept path and verify()'s denylist check take it
// shared, so concurrent callers (an RI's shards) never serialize;
// invalidate_serial() takes it exclusively. The RSA walk runs outside
// it. A held verdict is the caller's state and follows the caller's own
// locking.
//
// ChainVerifier is the one way to verify a certificate: there is no
// single-certificate check beside it (a lone certificate is a one-link
// chain). Each link's check hashes the TBS bytes the certificate keeps
// (Certificate::tbs_der is a view, nothing is re-encoded) and runs one
// RSAVP1 through the injected CryptoProvider, so a metered provider
// charges each walk's RSAVP1 operations to the cycle ledger and an
// accepted verdict charges none — the effect the paper predicts for
// RI-context caching. The only unmetered check is the trust root's
// self-signature, verified once when the verifier is built.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/thread_annotations.h"
#include "pki/certificate.h"

namespace omadrm::provider {
class CryptoProvider;
}

namespace omadrm::pki {

/// Outcome of one chain walk, held by value beside the chain it covers.
/// A default verdict has not been walked (its status is not kValid), so
/// revalidate() walks it.
struct ChainVerdict {
  CertStatus status = CertStatus::kBadSignature;
  /// Intersection of every chain certificate's validity window; a held
  /// verdict applies only while `now` stays inside it.
  std::uint64_t valid_from = 0;
  std::uint64_t valid_until = 0;
  std::vector<Serial> serials;  // leaf-first
};

class ChainVerifier {
 public:
  /// RSA verification goes through `crypto`, which must outlive the
  /// verifier (only its address is kept, so moving the verifier's owner
  /// is safe).
  ChainVerifier(Certificate trust_root, provider::CryptoProvider& crypto);

  /// Walks `chain` (leaf first, each certificate signed by the next, the
  /// last one signed by the trust root) at time `now`. The trust anchor
  /// itself is axiomatically trusted and not re-verified. A chain naming
  /// a denylisted serial reads kRevoked without any RSA work. Throws
  /// Error(kProtocol) on an empty chain.
  ChainVerdict verify(std::span<const Certificate> chain,
                      std::uint64_t now) const;

  /// The check at every use of a held verdict: accepts `held` without
  /// RSA work or allocation when it is kValid, `now` is inside its
  /// window and none of its serials is denylisted; otherwise replaces it
  /// with verify(chain, now), `chain` being the chain `held` covers.
  /// Returns the status `held` then carries.
  CertStatus revalidate(ChainVerdict& held,
                        std::span<const Certificate> chain,
                        std::uint64_t now) const;

  /// Adds `serial` to the revocation denylist (e.g. after an OCSP
  /// response reports it revoked): every held verdict naming it reads
  /// kRevoked at its next revalidate(), and every later walk of a chain
  /// containing it short-circuits to kRevoked.
  void invalidate_serial(const Serial& serial);

 private:
  /// The denylist, heap-held so the verifier (and agents embedding it)
  /// stays movable despite the non-movable mutex.
  struct State {
    // Rank kChainVerdict: taken with a shard lock held (handler-path
    // verification); the RSA walk runs OUTSIDE this lock, so only
    // denylist lookups and inserts nest under it.
    OrderedSharedMutex mu{LockRank::kChainVerdict, "pki.chain_verdict"};
    SerialSet revoked_serials GUARDED_BY(mu);
  };

  Certificate trust_root_;
  provider::CryptoProvider* crypto_;
  bool root_self_ok_ = false;
  std::unique_ptr<State> state_ = std::make_unique<State>();
};

}  // namespace omadrm::pki
