// Certificate-chain verification with a verdict cache.
//
// The paper's central cost observation is that RSA public-key operations
// for certificate-chain verification dominate ROAP processing on embedded
// hardware, and that the DRM Agent should verify an RI's chain once and
// then rely on the stored RI Context ("the Device is not required to
// verify that Rights Issuer's certificate chain again" — OMA DRM 2 via
// paper §2.4.1). ChainVerifier is that mechanism: a full RSASSA-PSS walk
// down the chain on first sight, then O(1) lookups keyed by the chain's
// fingerprint for as long as `now` stays inside the chain's validity
// window. Revocation invalidates by serial.
//
// Thread-safe with reader bias: the cache-hit path (the steady state of
// a busy RI — every re-registering device) takes only a shared lock, so
// concurrent hits from different RI shards never serialize; counters are
// atomics. Insertions, expiry erases, revocation, clear() and
// set_enabled() take the writer lock. The verdict cache is FIFO (no
// LRU-on-lookup mutation), which is what makes the shared-lock hit path
// sound.
//
// The RSA verification primitive is injected (VerifyFn) so callers can
// route it through a metered CryptoProvider — cache hits then charge
// exactly zero RSA operations to the cycle ledger, which is the effect the
// paper predicts for RI-context caching.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/thread_annotations.h"
#include "pki/certificate.h"

namespace omadrm::provider {
class CryptoProvider;
}

namespace omadrm::pki {

/// Outcome of a full chain walk. Cached only when status == kValid.
/// Shared by handle (std::shared_ptr) — not copyable, by design: every
/// holder sees the one instance whose epoch stamp the verifier refreshes.
struct ChainVerdict {
  CertStatus status = CertStatus::kBadSignature;
  /// Intersection of every chain certificate's validity window; a cached
  /// verdict applies only while `now` stays inside it.
  std::uint64_t valid_from = 0;
  std::uint64_t valid_until = 0;
  std::string leaf_subject_cn;
  std::vector<Serial> serials;  // leaf-first
  std::string fingerprint;              // hex SHA-1 over chain DERs + anchor
  /// Issuing verifier's invalidation epoch at creation time; lets
  /// revalidate() accept the handle without recomputing the fingerprint.
  /// Atomic because cache hits re-stamp it under the *shared* lock.
  std::atomic<std::uint64_t> epoch{0};
};

struct ChainCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          // full verifications performed
  std::uint64_t invalidations = 0;   // entries dropped (revocation/expiry)
};

class ChainVerifier {
 public:
  using VerifyFn =
      std::function<bool(const rsa::PublicKey&, ByteView, ByteView)>;

  /// Cached-verdict bound (FIFO eviction): keeps a busy RI's per-device
  /// cache from growing with the total population ever registered.
  static constexpr std::size_t kCacheCapacity = 256;

  /// `verify` defaults to the unmetered rsa::pss_verify; agents inject a
  /// metered provider's pss_verify instead.
  explicit ChainVerifier(Certificate trust_root, VerifyFn verify = {});

  /// Verifies `chain` (leaf first, each certificate signed by the next,
  /// the last one signed by the trust root) at time `now`. The trust
  /// anchor itself is axiomatically trusted and not re-verified. Returns
  /// a shared verdict; cache hits return the identical object. Throws
  /// Error(kProtocol) on an empty chain.
  std::shared_ptr<const ChainVerdict> verify(
      std::span<const Certificate> chain, std::uint64_t now);

  /// O(1) fast path for callers that kept the verdict handle (the agent's
  /// RI Context does): accepts `handle` without hashing or re-encoding the
  /// chain when it is still current — same verifier epoch (no intervening
  /// invalidation/clear/disable) and `now` inside the validity window.
  /// Falls back to verify(chain, now) otherwise.
  std::shared_ptr<const ChainVerdict> revalidate(
      const std::shared_ptr<const ChainVerdict>& handle,
      std::span<const Certificate> chain, std::uint64_t now);

  /// Drops every cached verdict whose chain contains `serial` (e.g. after
  /// an OCSP response reports it revoked) AND adds the serial to a
  /// durable denylist: later walks of any chain containing it short-
  /// circuit to kRevoked instead of re-admitting the chain.
  void invalidate_serial(const Serial& serial);

  /// Drops all cached verdicts.
  void clear();

  /// Disabling forces a full verification on every call (and clears the
  /// cache); used by benchmarks to measure the uncached baseline.
  void set_enabled(bool enabled);
  bool enabled() const;

  ChainCacheStats stats() const;
  void reset_stats();

  const Certificate& trust_root() const { return trust_root_; }

  /// Hex SHA-1 binding a chain to its trust anchor (cache key).
  static std::string fingerprint(std::span<const Certificate> chain,
                                 const Certificate& trust_root);

  /// Builds a VerifyFn routing RSASSA-PSS verification through `provider`
  /// (typically a metered one, so chain walks charge the cycle ledger and
  /// cache hits charge nothing). Captures the provider's address only —
  /// the provider must outlive every verifier using the result, and the
  /// capture stays valid across moves of the verifier's owner.
  static VerifyFn metered_verify(provider::CryptoProvider& provider);

 private:
  std::shared_ptr<ChainVerdict> verify_full(
      std::span<const Certificate> chain, std::uint64_t now,
      std::string fp) const;

  /// Everything shared across threads, heap-held in one block so the
  /// verifier (and agents embedding it) stays movable despite the
  /// non-movable mutex and atomics.
  struct State {
    // Rank kChainVerdict: taken with a shard lock held (handler-path
    // verification); the expensive RSA walk runs OUTSIDE this lock, so
    // only map/deque bookkeeping nests under it.
    OrderedSharedMutex mu{LockRank::kChainVerdict, "pki.chain_verdict"};
    std::atomic<bool> enabled{true};
    // Bumped on every invalidation, clear, or disable: conservatively
    // retires all outstanding verdict handles at once. Cache hits
    // re-stamp the surviving verdict to the current epoch.
    std::atomic<std::uint64_t> epoch{1};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::map<std::string, std::shared_ptr<ChainVerdict>> cache
        GUARDED_BY(mu);
    std::deque<std::string> insertion_order GUARDED_BY(mu);  // FIFO eviction
    SerialSet revoked_serials GUARDED_BY(mu);  // denylist
  };

  Certificate trust_root_;
  VerifyFn verify_fn_;
  bool root_self_ok_ = false;
  mutable std::unique_ptr<State> state_ = std::make_unique<State>();
};

}  // namespace omadrm::pki
