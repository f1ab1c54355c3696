// Streaming content consumption — the steady-state half of §2.4.4.
//
// DrmAgent::consume historically did everything per access: unwrap C2dev,
// verify the RO MAC, re-serialize and re-hash the whole DCF, rebuild the
// AES key schedule, and decrypt the entire payload into a fresh heap
// buffer. For the paper's embedded terminal the steady-state cost of DRM
// *is* this path, so it is split here into its one-time and per-chunk
// halves:
//
//   DrmAgent::open_content   the per-access trust decisions (C2dev
//                            unwrap, RO MAC, DCF-hash binding, REL
//                            check_and_consume, CEK unwrap) plus the AES
//                            key-schedule lookup in the agent's context
//                            cache — returns a ContentSession.
//   ContentSession::read     decrypts the next plaintext chunk into a
//                            caller-owned buffer through the fused CBC
//                            core: zero allocations, any chunk size,
//                            PKCS#7 handled only at the final block.
//
// A session represents ONE granted access (one check_and_consume): the
// caller may read, rewind, and re-read freely within it — restarting the
// same playback — but a new access requires a new open_content.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"
#include "rel/rights.h"

namespace omadrm::agent {

class DrmAgent;

struct AesCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

/// LRU cache of AES key schedules keyed by a CEK fingerprint, the
/// symmetric sibling of PR 1's Montgomery-context and chain-verdict
/// caches: the CEK of an installed RO does not change between accesses,
/// so neither should the expanded key schedule (nor, on AES-NI hosts, the
/// derived hardware schedules). Entries are tagged with the owning RO id
/// and dropped when that RO is replaced or uninstalled; the key is
/// SHA-1(CEK), so the cache never stores raw key material in its index.
class AesContextCache {
 public:
  /// Capacity 0 caches nothing: every get() builds a fresh schedule.
  explicit AesContextCache(std::size_t capacity = 16) : capacity_(capacity) {}

  /// Returns the cached schedule for `cek`, building and inserting it on
  /// a miss. The shared_ptr keeps a session's schedule alive across
  /// eviction and invalidation.
  std::shared_ptr<const crypto::Aes> get(ByteView cek, std::string_view ro_id);

  /// Drops every entry tagged with `ro_id` (RO replaced or uninstalled).
  void invalidate_ro(std::string_view ro_id);
  void clear();

  const AesCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AesCacheStats{}; }
  std::size_t size() const { return lru_.size(); }

 private:
  struct Entry {
    std::array<std::uint8_t, crypto::Sha1::kDigestSize> fingerprint;
    std::string ro_id;
    std::shared_ptr<const crypto::Aes> aes;
  };

  std::list<Entry> lru_;  // front = most recently used
  std::size_t capacity_;
  AesCacheStats stats_;
};

/// One granted content access, created by DrmAgent::open_content.
///
/// The session borrows the DCF's encrypted payload (and pins its cached
/// AES schedule): the container object or wire buffer it was opened over
/// must outlive it. When open_content denies, the session is returned
/// with ok() == false and the same status/decision consume() would have
/// reported; read() then produces nothing.
class ContentSession {
 public:
  ContentSession() = default;  // not ok(); kNotInstalled

  bool ok() const { return status_ == StatusCode::kOk; }
  StatusCode status() const { return status_; }
  rel::Decision decision() const { return decision_; }
  /// The RO that granted (or last denied) the access.
  const std::string& ro_id() const { return ro_id_; }

  std::uint64_t plaintext_size() const { return plaintext_size_; }
  std::uint64_t bytes_read() const { return produced_; }
  std::uint64_t bytes_remaining() const {
    return plaintext_size_ > produced_ ? plaintext_size_ - produced_ : 0;
  }

  /// Decrypts up to out.size() plaintext bytes into the caller's buffer;
  /// returns the byte count (0 once drained or when !ok()). Zero heap
  /// allocations. `out` must not alias the container's encrypted payload
  /// (CBC decryption chains off ciphertext bytes it has already passed).
  /// Throws omadrm::Error(kFormat) on inconsistent final padding; a
  /// container whose decrypted size contradicts its recorded plaintext
  /// size flips status() to kDcfHashMismatch instead (the binding hash
  /// normally catches such tampering long before here).
  std::size_t read(std::span<std::uint8_t> out);

  /// Restarts the granted access from the first byte — same playback,
  /// no new REL consumption, no rights re-checks, no allocation.
  ///
  /// Replay-vs-rollback contract: rewind() replays the ONE access this
  /// session's check_and_consume granted, and that burn was committed to
  /// the agent's bound store BEFORE open_content returned this session.
  /// A session is therefore pure RAM state riding on an already-durable
  /// grant: killing the process mid-session (rewound or not) and
  /// reloading the agent from its store can never resurrect the grant as
  /// un-burned, and a reloaded agent never re-creates sessions — a new
  /// access needs a new open_content, which burns (and commits) again.
  /// Pinned by StoreBacked.RewindNeverSurvivesReloadAsUnburnedGrant in
  /// tests/test_store.cpp.
  void rewind();

  /// Drains the remainder into one owned buffer (the consume() path).
  Bytes read_all();

 private:
  friend class DrmAgent;

  StatusCode status_ = StatusCode::kNotInstalled;
  rel::Decision decision_ = rel::Decision::kNoSuchPermission;
  std::string ro_id_;
  std::shared_ptr<const crypto::Aes> aes_;  // pins the cached schedule
  crypto::CbcDecryptStream stream_;
  std::uint64_t plaintext_size_ = 0;
  std::uint64_t produced_ = 0;
};

}  // namespace omadrm::agent
