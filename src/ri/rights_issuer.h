// Rights Issuer — the network-side license service of OMA DRM 2.
//
// Handles the ROAP protocol server-side: registration of DRM Agents
// (certificate + OCSP verification, session/nonce bookkeeping), Rights
// Object issuing (the full key-wrapping chain of the paper's Figure 3),
// and domain management (per-domain symmetric keys with generations,
// paper §2.3).
//
// The RI performs its cryptography through a CryptoProvider; in the
// paper's experiments it is given the *plain* provider because only
// terminal-side (DRM Agent) cycles count toward the cost model.
//
// Concurrency model (the "millions of users" axis): every ROAP request
// carries a device id, and per-device state is disjoint across devices,
// so handle() is internally sharded — pending sessions, registered
// devices, and the idempotent replay cache live in kShardCount
// independently locked shards keyed by device-id hash. One shard's lock
// is held across the whole replay-lookup → handler → replay-insert
// sequence, which is what makes a duplicate request racing its original
// on another worker come back byte-identical (the loser of the race
// waits on the shard lock and then hits the cache). Cross-cutting state
// is concurrent on its own terms:
//
//   session-id counter    atomic reservation + a persisted lease block
//                         (see on_device_hello) so ids never repeat
//                         across a restart without serializing hellos
//                         on the store;
//   domains               their own striped table (joins cross device
//                         shards); a stripe lock is held across the
//                         copy → persist → apply of a membership change
//                         so concurrent joins to one domain never lose
//                         an update. Lock order: device shard → domain
//                         stripe → meta lease → store — never two
//                         shards, never two stripes (ranks in
//                         common/ordered_mutex.h; the debug validator
//                         aborts on any inversion);
//   chain verdicts        each registered device's verdict lives in its
//                         shard's KnownDevice, under the shard lock, and
//                         is revalidated before every registration,
//                         acquisition and join; ChainVerifier's
//                         revocation denylist is internally
//                         reader-biased, and the CA's revocation list
//                         sits under the CA's own lock;
//   rng                   draws go through a LockedRng;
//   counters              atomics, read as snapshots.
//
// A store bound via bind_store() is committed to from every shard
// concurrently and therefore must itself be thread-safe (MemoryStore
// is; wrap others in store::GroupCommitStore, which also batches
// concurrent commits into one backing append+fsync).
//
// Still single-threaded by contract: construction, bind_store(),
// add_offer(), create_domain()/upgrade_domain(), and domain() — they
// are provisioning/config, called before traffic or in quiescence.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "pki/authority.h"
#include "pki/chain.h"
#include "provider/provider.h"
#include "rel/rights.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "store/state_store.h"

namespace omadrm::ri {

/// A license the RI can mint: content binding + permissions + the K_CEK
/// obtained from the Content Issuer.
struct LicenseOffer {
  std::string ro_id;
  std::string content_id;
  Bytes dcf_hash;
  std::vector<rel::Permission> permissions;
  Bytes kcek;
  bool domain_ro = false;     // minted for a domain instead of one device
  std::string domain_id;      // required when domain_ro
};

struct Domain {
  std::string domain_id;
  Bytes key;                  // K_D, 128-bit
  std::uint32_t generation = 0;
  std::vector<std::string> members;  // device ids
  std::size_t max_members = 8;
};

/// Observability for the idempotent replay cache.
struct ReplayCacheStats {
  std::uint64_t hits = 0;         // duplicate served from cache (0 RSA ops)
  std::uint64_t misses = 0;       // includes expirations and mismatches
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;    // LRU capacity pressure
  std::uint64_t expirations = 0;  // entry outlived its TTL
  std::uint64_t mismatches = 0;   // same key, different request bytes
};

/// Issuance accounting — what the RI actually *did*, as opposed to what
/// it was asked. The chaos soak reconciles these against client-side
/// grant counts: a replay served from cache must not move any of them.
struct RiCounters {
  std::uint64_t registrations = 0;      // devices admitted (fresh handshakes)
  std::uint64_t ros_issued = 0;         // ProtectedRos freshly minted
  std::uint64_t domain_joins = 0;
  std::uint64_t domain_leaves = 0;
  std::uint64_t degraded_refusals = 0;  // kStoreFailure responses served
};

class RightsIssuer {
 public:
  /// Device-id hash shards; power of two so the hash folds with a mask.
  static constexpr std::size_t kShardCount = 16;
  /// Domain-id stripes for the membership table.
  static constexpr std::size_t kDomainStripes = 8;
  /// Session-id lease block: "meta" persists an upper bound the counter
  /// may reach, re-extended every kSessionLeaseBlock reservations, so a
  /// restart resumes past every id ever handed out without each hello
  /// serializing on a meta write.
  static constexpr std::uint64_t kSessionLeaseBlock = 64;

  /// Per-shard traffic/observability counters (see shard_stats()).
  struct ShardStats {
    std::uint64_t exchanges = 0;      // requests served by this shard
    std::uint64_t contended = 0;      // lock acquisitions that had to wait
    std::uint64_t replay_hits = 0;
    std::uint64_t replay_misses = 0;
  };

  /// Creates the RI with a fresh RSA identity (`key_bits`, default 1024).
  /// When `issuing_ca` is null the root `ca` certifies the RI directly;
  /// otherwise the intermediate signs the RI certificate and registration
  /// responses carry the full chain (RI -> intermediate -> root). The root
  /// CA reference is always used for OCSP stapling at registration time.
  RightsIssuer(std::string ri_id, std::string url,
               pki::CertificationAuthority& ca, const pki::Validity& validity,
               provider::CryptoProvider& crypto, Rng& rng,
               pki::SubordinateAuthority* issuing_ca = nullptr,
               std::size_t key_bits = 1024);

  const std::string& ri_id() const { return ri_id_; }
  const std::string& url() const { return url_; }
  const pki::Certificate& certificate() const { return cert_; }
  /// Intermediate certificates between this RI and the root (may be empty).
  const std::vector<pki::Certificate>& intermediates() const {
    return intermediates_;
  }

  /// Adds a license to the catalog (throws on duplicate ro_id).
  void add_offer(LicenseOffer offer);
  bool has_offer(const std::string& ro_id) const;

  /// Creates a sharing domain; idempotent per id.
  void create_domain(const std::string& domain_id, std::size_t max_members = 8);
  /// Quiescent-state observer: the returned pointer is only stable while
  /// no handler traffic runs (the stripe lock is released on return).
  const Domain* domain(const std::string& domain_id) const;

  /// Rotates the domain key to a new generation (e.g. after expelling a
  /// compromised member). Existing members must re-join to receive the new
  /// K_D; Domain ROs minted afterwards use the new generation.
  void upgrade_domain(const std::string& domain_id);

  /// Builds the trigger document that tells a device to acquire `ro_id`
  /// (pushed out-of-band in a real deployment).
  roap::RoAcquisitionTrigger make_trigger(const std::string& ro_id) const;

  // -- ROAP server side -----------------------------------------------------
  // One uniform dispatch surface serves every agent; the per-message
  // handlers are private. A transport (HTTP in deployments,
  // roap::InProcessTransport in tests/benches, a proxy device for the
  // standard's Unconnected Devices) delivers request envelopes here.

  /// Protocol entry point: dispatches any ROAP request envelope and
  /// returns the response envelope. Throws omadrm::Error(kProtocol) when
  /// the envelope is not a request message (a response or trigger), and
  /// omadrm::Error(kFormat) when its content is malformed.
  ///
  /// Thread-safe: requests for different devices run concurrently on
  /// their shards; requests for one device serialize on its shard lock
  /// (which is also what guarantees replay-duplicate races resolve to
  /// one issuance + one cached byte-identical reply).
  ///
  /// Fault tolerance built into this entry point:
  ///   - an exact duplicate of a recently served request is answered from
  ///     the idempotent replay cache (byte-identical response, zero RSA
  ///     operations, zero state changes) — see the replay-cache section;
  ///   - a refused StateStore commit does NOT unwind: the RI answers with
  ///     a typed Status::kStoreFailure refusal, having changed nothing
  ///     (degraded mode: no new grants, but stateless service — notably
  ///     RO issuing, which persists nothing — keeps working).
  roap::Envelope handle(const roap::Envelope& request, std::uint64_t now);

  bool is_registered(const std::string& device_id) const;

  /// Registration handshakes currently awaiting their RegistrationRequest,
  /// summed across shards. Bounded: entries expire kPendingSessionTtl
  /// seconds after the DeviceHello, are superseded by a newer hello from
  /// the same device, and are consumed (success or failure) by the
  /// RegistrationRequest.
  std::size_t pending_session_count() const;

  /// Garbage-collects every pending session older than kPendingSessionTtl
  /// (normally a side effect of traffic; exposed so idle periods — and
  /// leak assertions — can force the sweep). Returns how many died.
  std::size_t expire_pending_sessions(std::uint64_t now);

  // -- Idempotent replay cache ----------------------------------------------
  // handle() remembers its recent responses keyed by (request type,
  // device, session-id/nonce) plus a digest of the exact request bytes.
  // A device resending a request whose response was lost in transit gets
  // the cached response back byte-for-byte: ZERO additional RSA
  // operations, no double-issued RO, no double-bumped counter, no
  // consumed-session refusal. Entries live in the device's shard (the
  // LRU mutates on lookup, so it rides the shard lock), expire after the
  // TTL, and are LRU-bounded PER SHARD by the configured capacity; the
  // cache is RAM-only (a restarted RI serves duplicates from its durable
  // one-shot session state instead, which is slower but equally safe).
  // kStoreFailure refusals are never cached — a retry after the store
  // heals must be re-processed. Capacity 0 switches the cache off.
  void set_replay_cache_capacity(std::size_t n);
  void set_replay_cache_ttl(std::uint64_t seconds) {
    replay_ttl_.store(seconds, std::memory_order_relaxed);
  }
  std::size_t replay_cache_size() const;
  ReplayCacheStats replay_cache_stats() const;  // aggregated snapshot

  /// Issuance counters, read as a consistent-enough snapshot (each field
  /// is individually exact; cross-field skew is bounded by in-flight
  /// handlers).
  RiCounters counters() const;

  /// Per-shard traffic snapshot (exchanges, lock contention, replay
  /// hit/miss) — what `ri_server --stats` reports.
  std::vector<ShardStats> shard_stats() const;

  /// The shard a device id routes to (exposed so tests can pick device
  /// ids that collide or spread).
  static std::size_t shard_of(std::string_view device_id);

  /// When true, Device ROs are also RI-signed (allowed but not mandated by
  /// the standard; the paper notes the signature "is mandatory only for
  /// Domain ROs").
  void set_sign_device_ros(bool v) { sign_device_ros_ = v; }

  // -- Durable state --------------------------------------------------------
  /// Binds the RI's replay-relevant state to a durable store: pending
  /// registration nonces ("sess/<session-id>"), registered devices
  /// ("dev/<device-id>"), domains with their membership ("domain/<id>"),
  /// and the session-id lease bound ("meta"). When the store already
  /// holds an RI image it REPLACES this instance's state — a service
  /// restart keeps in-flight handshakes completable and consumed
  /// (one-shot) sessions consumed. Identity (RSA key, certificate) and
  /// the license catalog are provisioning config and deliberately not
  /// stored. After binding, every mutation commits through the store
  /// before the triggering ROAP response leaves; a refused commit throws
  /// omadrm::Error(kState) (fail closed — the RI must not acknowledge
  /// state it cannot keep). Config-time only (not safe against live
  /// handler traffic); the bound store is then committed to from every
  /// shard concurrently and must be thread-safe itself.
  // NO_THREAD_SAFETY_ANALYSIS: config-time single-threaded by the
  // contract above — it reads/replaces every shard and stripe without
  // their locks on purpose (there is no traffic to exclude yet), which
  // the analysis cannot express per-call-site.
  Result<> bind_store(store::StateStore& s) NO_THREAD_SAFETY_ANALYSIS;
  store::StateStore* bound_store() const { return store_; }

 private:
  /// One in-flight registration handshake (between RIHello and
  /// RegistrationRequest).
  struct PendingSession {
    Bytes ri_nonce;
    std::string device_id;
    std::uint64_t created_at = 0;
  };

  /// One remembered response. The digest pins the entry to the *exact*
  /// request bytes: a different request that happens to reuse the key
  /// (e.g. a nonce collision) is processed fresh, never served a stale
  /// answer.
  struct ReplayEntry {
    Bytes request_digest;       // SHA-1 of the request wire bytes
    std::string response_wire;
    std::uint64_t created_at = 0;
    std::list<std::string>::iterator lru_it;
  };

  static constexpr std::uint64_t kNoSessions = ~std::uint64_t{0};

  /// A registered device: its certificate and the verdict of that
  /// certificate's last chain walk (unwalked for a device loaded from the
  /// store), which every later registration with the same certificate,
  /// acquisition and join revalidates instead of walking the chain
  /// again — the way the agent keeps the RI's.
  struct KnownDevice {
    pki::Certificate cert;
    pki::ChainVerdict verdict;
  };

  /// One device-hash shard: everything a single device's requests touch,
  /// guarded by one mutex the dispatcher holds across the whole
  /// replay-lookup → handler → replay-insert sequence.
  struct Shard {
    // Rank kRiShard: the OUTERMOST lock of every handler chain — domain
    // stripes, the meta lease, the store, the chain verifier's denylist
    // and the RNG all nest under it; shards are locked one at a time (the
    // sweep included), which the validator's two-of-a-kind rule
    // enforces.
    mutable OrderedMutex mu{LockRank::kRiShard, "ri.shard"};
    std::map<std::string, PendingSession> sessions GUARDED_BY(mu);
    std::map<std::string, KnownDevice> devices GUARDED_BY(mu);
    std::map<std::string, ReplayEntry> replay GUARDED_BY(mu);
    std::list<std::string> replay_lru GUARDED_BY(mu);  // front = MRU
    ReplayCacheStats replay_stats GUARDED_BY(mu);
    std::uint64_t exchanges GUARDED_BY(mu) = 0;
    std::uint64_t contended GUARDED_BY(mu) = 0;
    /// Oldest pending-session timestamp (kNoSessions when empty),
    /// maintained under mu, read lock-free by the cross-shard TTL sweep
    /// so shards with nothing stale are skipped without locking.
    std::atomic<std::uint64_t> oldest_session{kNoSessions};
  };

  struct DomainStripe {
    // Rank kRiDomainStripe: taken under a shard lock (join/leave), one
    // stripe at a time.
    mutable OrderedMutex mu{LockRank::kRiDomainStripe, "ri.domain_stripe"};
    std::map<std::string, Domain> domains GUARDED_BY(mu);
  };

  Shard& shard_for(std::string_view device_id) {
    return shards_[shard_of(device_id)];
  }
  DomainStripe& stripe_for(std::string_view domain_id);
  const DomainStripe& stripe_for(std::string_view domain_id) const;

  /// Whether a device holding `cert` may be served at `now`: `verdict`,
  /// the verdict held beside it, revalidates (no RSA work while it
  /// holds), and the CA has not revoked the certificate. A revocation the
  /// CA reports goes on the verifier's denylist, so the verdict itself
  /// stops vouching.
  bool device_trusted(const pki::Certificate& cert, pki::ChainVerdict& verdict,
                      std::uint64_t now);

  roap::RiHello on_device_hello(Shard& sh, const roap::DeviceHello& hello,
                                std::uint64_t now) REQUIRES(sh.mu);
  roap::RegistrationResponse on_registration_request(
      Shard& sh, const roap::RegistrationRequest& request, std::uint64_t now)
      REQUIRES(sh.mu);
  roap::RoResponse on_ro_request(Shard& sh, const roap::RoRequest& request,
                                 std::uint64_t now) REQUIRES(sh.mu);
  roap::JoinDomainResponse on_join_domain(
      Shard& sh, const roap::JoinDomainRequest& request, std::uint64_t now)
      REQUIRES(sh.mu);
  roap::LeaveDomainResponse on_leave_domain(
      Shard& sh, const roap::LeaveDomainRequest& request, std::uint64_t now)
      REQUIRES(sh.mu);

  /// Pending sessions in `sh` past their TTL at `now` — and, when
  /// `superseded_device` is non-null, that device's sessions too (only
  /// its newest hello may stay live; a device's sessions always live in
  /// its own shard). Pure: the caller stages the store erases, commits,
  /// and only then applies the RAM erases, so a refused commit leaves
  /// RAM and store agreeing. Caller holds sh.mu.
  std::vector<std::string> stale_sessions(
      const Shard& sh, std::uint64_t now,
      const std::string* superseded_device) const REQUIRES(sh.mu);

  /// Recomputes sh.oldest_session from sh.sessions (caller holds sh.mu).
  void refresh_oldest(Shard& sh) REQUIRES(sh.mu);

  /// Cross-shard TTL sweep: for every shard (except `skip`, whose
  /// sessions the in-handler sweep covers inside the handler's own
  /// transaction) whose oldest pending session is past the TTL, erase
  /// the stale entries — store first, RAM second, one shard lock at a
  /// time (never two). A refused sweep commit skips that shard; the
  /// sessions stay for a later sweep. Returns how many died.
  std::size_t sweep_stale_shards(std::uint64_t now, const Shard* skip);

  /// Commits `tx` when a store is bound; throws omadrm::Error(kState) on
  /// a refused commit (the RI must not answer with unkept state). Every
  /// handler orders its work compute → persist → apply-to-RAM, so the
  /// throw is always raised before any live state changed; handle()
  /// catches it and answers with a typed Status::kStoreFailure refusal
  /// (degraded mode) instead of unwinding through the transport.
  void persist(const store::Transaction& tx);

  /// Replay-cache core: serve `key` if `sh` holds a fresh entry whose
  /// request digest matches `request_wire` byte-for-byte. Caller holds
  /// sh.mu.
  std::optional<roap::Envelope> replay_lookup(Shard& sh,
                                              const std::string& key,
                                              const std::string& request_wire,
                                              std::uint64_t now)
      REQUIRES(sh.mu);
  void replay_insert(Shard& sh, const std::string& key,
                     const std::string& request_wire,
                     std::string response_wire, std::uint64_t now)
      REQUIRES(sh.mu);

  /// handle() per-type skeleton: lock the shard (counting contention),
  /// replay-cache lookup → handler → cache the response; a refused store
  /// commit (Error(kState)) from inside the handler is converted into
  /// the typed refusal `refusal()` builds.
  template <typename Handler, typename Refusal>
  roap::Envelope serve(Shard& sh, const std::string& key,
                       const roap::Envelope& request, std::uint64_t now,
                       Handler&& handler, Refusal&& refusal);

  /// `domain_snapshot` copies the named domain out under its stripe lock
  /// (nullopt when absent) so RO building reads a consistent key +
  /// generation without holding the stripe across RSA work.
  std::optional<Domain> domain_snapshot(const std::string& domain_id) const;

  roap::ProtectedRo build_protected_ro(const LicenseOffer& offer,
                                       const rsa::PublicKey& device_key,
                                       const Domain* domain_state);

  std::string ri_id_;
  std::string url_;
  pki::CertificationAuthority& ca_;
  provider::CryptoProvider& crypto_;
  LockedRng rng_;  // serialized view over the caller's generator
  rsa::PrivateKey key_;
  pki::Certificate cert_;
  std::vector<pki::Certificate> intermediates_;  // leaf-side first
  pki::ChainVerifier device_chain_verifier_;
  bool sign_device_ros_ = false;

  std::array<Shard, kShardCount> shards_;
  std::array<DomainStripe, kDomainStripes> domain_stripes_;
  std::map<std::string, LicenseOffer> offers_;  // config-time; read-only after

  /// Session-id reservation is an atomic fetch-add; "meta" persists the
  /// lease bound reservations may reach (extended under meta_mu_ inside
  /// the extending hello's transaction). Ids skipped by a crash or a
  /// refused commit are simply never used — uniqueness, not density.
  std::atomic<std::uint64_t> next_session_{1};
  // Rank kRiMeta: taken under a shard lock; deliberately held ACROSS
  // persist() when extending the lease, so lease extensions reach the
  // journal in lease order — meta ranks BEFORE the store ranks. (ISSUE
  // 10's prose table said store-then-meta; the code's order is the
  // correct one and the validator + tests/test_lock_order.cpp pin it.)
  OrderedMutex meta_mu_{LockRank::kRiMeta, "ri.meta"};
  std::uint64_t session_lease_ GUARDED_BY(meta_mu_) = 1;

  store::StateStore* store_ = nullptr;

  std::atomic<std::size_t> replay_capacity_{1024};  // per shard
  std::atomic<std::uint64_t> replay_ttl_{600};  // s; mirrors session TTL

  struct AtomicCounters {
    std::atomic<std::uint64_t> registrations{0};
    std::atomic<std::uint64_t> ros_issued{0};
    std::atomic<std::uint64_t> domain_joins{0};
    std::atomic<std::uint64_t> domain_leaves{0};
    std::atomic<std::uint64_t> degraded_refusals{0};
  };
  AtomicCounters counters_;
};

/// How long an RI keeps a pending registration session alive while
/// waiting for the RegistrationRequest (seconds). Abandoned handshakes —
/// dropped envelopes, crashed devices — are garbage-collected past this.
inline constexpr std::uint64_t kPendingSessionTtl = 600;

}  // namespace omadrm::ri
