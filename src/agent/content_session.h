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
//                            key schedule, which the session owns —
//                            returns a ContentSession.
//   ContentSession::read     decrypts the next plaintext chunk into a
//                            caller-owned buffer through the fused CBC
//                            core: zero allocations, any chunk size,
//                            PKCS#7 handled only at the final block.
//
// A session represents ONE granted access (one check_and_consume): the
// caller may read, rewind, and re-read freely within it — restarting the
// same playback — but a new access requires a new open_content.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/modes.h"
#include "rel/rights.h"

namespace omadrm::agent {

class DrmAgent;

/// One granted content access, created by DrmAgent::open_content.
///
/// The session borrows the DCF's encrypted payload and owns its AES key
/// schedule, built at open from the unwrapped CEK (on AES-NI hosts one
/// AESKEYGENASSIST expansion, cheaper than any cache lookup): the
/// container object or wire buffer it was opened over must outlive it.
/// When open_content denies, the session is returned with ok() == false
/// and the same status/decision consume() would have reported; read()
/// then produces nothing.
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
  // Heap-held so the stream's borrow survives moves of the session.
  std::unique_ptr<const crypto::Aes> aes_;
  crypto::CbcDecryptStream stream_;
  std::uint64_t plaintext_size_ = 0;
  std::uint64_t produced_ = 0;
};

}  // namespace omadrm::agent
