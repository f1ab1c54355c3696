// Rank-carrying mutex wrappers + debug lock-order validator.
//
// PRs 7–9 gave the stack a real lock hierarchy, but it existed only as
// header prose and reviewer discipline; TSan can only catch an inversion
// a test happens to execute. These wrappers make the hierarchy a runtime
// invariant: every mutex carries a LockRank, and in checked builds
// (OMADRM_LOCK_ORDER_CHECKS, default-on for Debug) each acquisition is
// validated against a thread-local stack of held ranks. Acquiring
// out-of-order — or acquiring a second lock of the same rank, which the
// hierarchy forbids (shards are locked one at a time, stripes one at a
// time, conns one at a time) — aborts immediately with BOTH stack
// traces: where the held lock was taken and where the violating
// acquisition was attempted. A would-be deadlock becomes a deterministic
// crash on the FIRST bad interleaving, in whichever test reaches it,
// instead of a hang on the unlucky schedule.
//
// The measured lock order (rank strictly increases along every nesting
// chain in the codebase):
//
//   rank  name                 capability
//   ----  -------------------  ------------------------------------------
//    10   ri.shard             RightsIssuer::Shard::mu (16 device shards)
//    20   ri.domain_stripe     RightsIssuer::DomainStripe::mu (8 stripes)
//    30   ri.meta              RightsIssuer::meta_mu_ (session-id lease)
//    40   store.front          GroupCommitStore::mu_ (batch queue)
//    50   store.backing        MemoryStore::mu_ (terminal store mutex)
//    60   pki.chain_verdict    ChainVerifier::State::mu (shared; the
//                              revocation denylist)
//    70   pki.authority        CertificationAuthority::mu_ (serials and
//                              the revocation list)
//    80   common.rng           LockedRng::mu_
//   110   net.stop             RiServer::stop_mu_
//   120   net.conns            RiServer::conns_mu_
//   130   net.conn             RiServer::Conn::mu (per connection)
//   140   net.jobs             RiServer::jobs_mu_ (worker job queue)
//   150   net.replies          RiServer::replies_mu_
//   200   common.failpoint     failpoint registry (fires under store
//                              locks and under net.conn — must be last)
//
// Note the RI band pins meta BEFORE the store ranks: RightsIssuer::persist
// deliberately holds meta_mu_ across the commit so session-lease
// extensions reach the journal in lease order (ri/rights_issuer.cpp).
// ISSUE 10's prose table (store=3, meta=4) had this backwards — the
// first drift this validator flushed out was in the spec, not the code;
// tests/test_lock_order.cpp pins the corrected order.
//
// Server workers hold NO net.* lock while calling RightsIssuer::handle,
// so the net band (110–150) never nests into the RI band (10–80); both
// bands may precede common.failpoint (200).
//
// Release builds alias OrderedMutex to the unchecked variant: lock() is
// an inline forward to std::mutex::lock with zero added work, so the
// BENCH_* gates see no validator overhead. The checked variant is always
// *compiled* (tests/test_lock_order.cpp death-tests it in every build
// type); only the default alias changes.
#pragma once

#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace omadrm {

enum class LockRank : std::uint16_t {
  kRiShard = 10,
  kRiDomainStripe = 20,
  kRiMeta = 30,
  kStoreFront = 40,
  kStoreBacking = 50,
  kChainVerdict = 60,
  kPkiAuthority = 70,
  kRng = 80,
  kNetStop = 110,
  kNetConns = 120,
  kNetConn = 130,
  kNetJobs = 140,
  kNetReplies = 150,
  kFailpoint = 200,
};

namespace lockorder {

// Validates `rank` against this thread's held stack (strictly greater
// than every held rank, never equal) and pushes it with a captured
// backtrace. Aborts with both stacks on violation. `mtx` keys release.
void note_acquire(const void* mtx, std::uint16_t rank, const char* name);

// Pops `mtx` from this thread's held stack (any position: meta_mu_ is
// released mid-scope while later-acquired store locks come and go).
void note_release(const void* mtx);

// Aborts unless `mtx` is on this thread's held stack — the runtime half
// of OrderedMutex::assert_held().
void check_held(const void* mtx, const char* name);

}  // namespace lockorder

/// std::mutex carrying a LockRank. `kChecked` selects whether lock
/// operations consult the thread-local rank validator; both variants are
/// always compiled (the death test exercises the checked one regardless
/// of build type) and have identical layout.
template <bool kChecked>
class CAPABILITY("mutex") BasicOrderedMutex {
 public:
  BasicOrderedMutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<std::uint16_t>(rank)), name_(name) {}
  BasicOrderedMutex(const BasicOrderedMutex&) = delete;
  BasicOrderedMutex& operator=(const BasicOrderedMutex&) = delete;

  void lock() ACQUIRE() {
    // Validate BEFORE blocking: the point is to abort on the first bad
    // ordering instead of deadlocking on the unlucky schedule.
    if constexpr (kChecked) lockorder::note_acquire(this, rank_, name_);
    mu_.lock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A successful try_lock is still an ordering event; the hierarchy
    // has no sanctioned out-of-order try_lock, so hold it to rank too.
    if constexpr (kChecked) lockorder::note_acquire(this, rank_, name_);
    return true;
  }

  void unlock() RELEASE() {
    if constexpr (kChecked) lockorder::note_release(this);
    mu_.unlock();
  }

  /// Runtime-checked TSA escape hatch: asserts (in checked builds) that
  /// the calling thread holds this mutex, and tells the static analysis
  /// to assume so. Used at the top of lambdas invoked through
  /// type-erased seams the analysis cannot follow.
  void assert_held() const ASSERT_CAPABILITY(this) {
    if constexpr (kChecked) lockorder::check_held(this, name_);
  }

 private:
  std::mutex mu_;
  const std::uint16_t rank_;
  const char* const name_;
};

/// std::shared_mutex carrying a LockRank. Shared acquisitions obey the
/// same rank discipline as exclusive ones — a reader nested under a
/// lower-ranked lock is fine, a reader taken over a higher-ranked one is
/// the same inversion hazard.
template <bool kChecked>
class CAPABILITY("shared_mutex") BasicOrderedSharedMutex {
 public:
  BasicOrderedSharedMutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<std::uint16_t>(rank)), name_(name) {}
  BasicOrderedSharedMutex(const BasicOrderedSharedMutex&) = delete;
  BasicOrderedSharedMutex& operator=(const BasicOrderedSharedMutex&) = delete;

  void lock() ACQUIRE() {
    if constexpr (kChecked) lockorder::note_acquire(this, rank_, name_);
    mu_.lock();
  }
  void unlock() RELEASE() {
    if constexpr (kChecked) lockorder::note_release(this);
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    if constexpr (kChecked) lockorder::note_acquire(this, rank_, name_);
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    if constexpr (kChecked) lockorder::note_release(this);
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
  const std::uint16_t rank_;
  const char* const name_;
};

/// std::lock_guard equivalent over BasicOrderedMutex, annotated so the
/// static analysis sees the acquisition (std::lock_guard itself is
/// opaque to TSA). The adopting form takes over release of an
/// already-held mutex — the serve() fast path try_locks first to count
/// contention, then adopts.
template <bool kChecked>
class SCOPED_CAPABILITY BasicMutexLock {
 public:
  explicit BasicMutexLock(BasicOrderedMutex<kChecked>& mu) ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  BasicMutexLock(BasicOrderedMutex<kChecked>& mu, std::adopt_lock_t)
      REQUIRES(mu)
      : mu_(mu) {}
  ~BasicMutexLock() RELEASE() { mu_.unlock(); }
  BasicMutexLock(const BasicMutexLock&) = delete;
  BasicMutexLock& operator=(const BasicMutexLock&) = delete;

 private:
  BasicOrderedMutex<kChecked>& mu_;
};

/// std::unique_lock equivalent: supports mid-scope unlock/relock (the
/// meta-lease fast path, the group-commit leader) and satisfies
/// BasicLockable for std::condition_variable_any.
template <bool kChecked>
class SCOPED_CAPABILITY BasicUniqueLock {
 public:
  explicit BasicUniqueLock(BasicOrderedMutex<kChecked>& mu) ACQUIRE(mu)
      : mu_(mu), owns_(true) {
    mu_.lock();
  }
  ~BasicUniqueLock() RELEASE() {
    if (owns_) mu_.unlock();
  }
  BasicUniqueLock(const BasicUniqueLock&) = delete;
  BasicUniqueLock& operator=(const BasicUniqueLock&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }
  void unlock() RELEASE() {
    owns_ = false;
    mu_.unlock();
  }
  bool owns_lock() const { return owns_; }

 private:
  BasicOrderedMutex<kChecked>& mu_;
  bool owns_;
};

/// Shared (reader) RAII guard over BasicOrderedSharedMutex.
template <bool kChecked>
class SCOPED_CAPABILITY BasicReaderLock {
 public:
  explicit BasicReaderLock(BasicOrderedSharedMutex<kChecked>& mu)
      ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~BasicReaderLock() RELEASE_GENERIC() { mu_.unlock_shared(); }
  BasicReaderLock(const BasicReaderLock&) = delete;
  BasicReaderLock& operator=(const BasicReaderLock&) = delete;

 private:
  BasicOrderedSharedMutex<kChecked>& mu_;
};

/// Exclusive (writer) RAII guard over BasicOrderedSharedMutex.
template <bool kChecked>
class SCOPED_CAPABILITY BasicWriterLock {
 public:
  explicit BasicWriterLock(BasicOrderedSharedMutex<kChecked>& mu) ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  ~BasicWriterLock() RELEASE_GENERIC() { mu_.unlock(); }
  BasicWriterLock(const BasicWriterLock&) = delete;
  BasicWriterLock& operator=(const BasicWriterLock&) = delete;

 private:
  BasicOrderedSharedMutex<kChecked>& mu_;
};

// Build-wide alias selection. CMake defines OMADRM_LOCK_ORDER_CHECKS for
// Debug builds (and any -DOMADRM_LOCK_ORDER_CHECKS=ON configure); it is
// applied tree-wide so every TU in one build agrees on the alias.
#if defined(OMADRM_LOCK_ORDER_CHECKS)
inline constexpr bool kLockOrderChecked = true;
#else
inline constexpr bool kLockOrderChecked = false;
#endif

using OrderedMutex = BasicOrderedMutex<kLockOrderChecked>;
using OrderedSharedMutex = BasicOrderedSharedMutex<kLockOrderChecked>;
using MutexLock = BasicMutexLock<kLockOrderChecked>;
using UniqueLock = BasicUniqueLock<kLockOrderChecked>;
using ReaderLock = BasicReaderLock<kLockOrderChecked>;
using WriterLock = BasicWriterLock<kLockOrderChecked>;

// The always-checked types, for the validator's own death tests.
using CheckedOrderedMutex = BasicOrderedMutex<true>;
using CheckedMutexLock = BasicMutexLock<true>;

}  // namespace omadrm
