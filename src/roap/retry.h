// Fault-tolerant ROAP: retry policy, virtual clock, and the reliable
// transport decorator.
//
// The paper's terminal (§2.3) reaches its Rights Issuer over a mobile
// network, where a lost envelope is weather, not failure. This module
// gives every layer of the agent stack one shared answer to "is this
// outcome worth retrying?":
//
//   RetryPolicy        deadline + bounded attempts + exponential backoff
//                      with jitter, and the per-fault classification that
//                      separates retriable transport loss from terminal
//                      verification/refusal outcomes.
//   VirtualRetryClock  the pacing clock: sleeping advances a counter
//                      instead of the wall clock, keeping every retrying
//                      test, soak and benchmark seeded and instantaneous.
//   ReliableTransport  a Transport decorator that absorbs *thrown*
//                      transport losses (drops, timeouts) by resending
//                      the same envelope with backoff. Anything that came
//                      back as bytes — even garbage — is handed upward:
//                      judging content is the session layer's job.
//
// The session layer (agent/sessions.h run(transport, policy)) uses the
// same policy to re-drive a *pass* whose response failed
// verification retriably, which is strictly stronger than resending at
// the transport level: a replayed or corrupted response is delivered
// fine by the wire but still needs the request sent again.
//
// Why retrying on verification failure is safe: every resend goes
// through the full verification pipeline again, so a retry can never
// accept what verification rejects — it only buys more chances to see
// an honest delivery. Server-side, the RI's idempotent replay cache
// (ri/rights_issuer.h) makes the resends free and double-issue
// impossible.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "roap/envelope.h"
#include "roap/transport.h"

namespace omadrm::roap {

/// The two ways a failed exchange can be classified.
enum class FaultClass : std::uint8_t {
  kRetriable,  // transient: resend the same pass
  kTerminal,   // final for this session: retrying cannot change the answer
};

/// Bounds and pacing for one protocol exchange (a session applies it per
/// pass; ReliableTransport applies it per envelope). All times are in
/// milliseconds on the driver's VirtualRetryClock.
struct RetryPolicy {
  std::size_t max_attempts = 5;     // total tries per pass, including the 1st
  std::uint64_t deadline_ms = 30000;  // whole-session budget; 0 = unlimited
  std::uint64_t base_backoff_ms = 20;
  std::uint64_t max_backoff_ms = 2000;
  double jitter = 0.5;              // backoff spread: [b*(1-j), b*(1+j))
  /// Registration only: how many times run(policy) may restart the whole
  /// handshake from DeviceHello when the RI reports kSessionExpired.
  std::size_t max_restarts = 1;

  /// Backoff before attempt `attempt`+1 (1-based: attempt 1 just failed).
  /// Exponential in the attempt number, capped, spread by `jitter` via
  /// one draw from `rng` — seeded callers get reproducible pacing.
  std::uint64_t backoff_ms(std::size_t attempt, Rng& rng) const;

  /// The shared fault table. Retriable codes are exactly those a lost,
  /// stale, or damaged delivery can produce: the transport boundary codes
  /// (kTransportFailure, kTimeout), parse/shape damage (kMalformedMessage,
  /// kUnexpectedMessage), verification failures a corrupted or replayed
  /// response triggers (kNonceMismatch, kSignatureInvalid), the peer's
  /// transient kStoreFailure refusal, and the peer's kServerBusy load-shed
  /// (admission control refused before processing — a resend with backoff
  /// is always safe). Everything else — authoritative RI
  /// refusals, local preconditions, certificate verdicts, RO integrity —
  /// is terminal: a resend re-verifies and gets the same answer.
  /// kSessionExpired is terminal *for the pass*; the registration driver
  /// treats it as the restart-from-DeviceHello signal instead.
  static FaultClass classify(StatusCode code);
  static bool retriable(StatusCode code) {
    return classify(code) == FaultClass::kRetriable;
  }
};

/// One attempt, no deadline, no restart: the policy a caller that asks
/// for none gets. A one-attempt pass returns its own failure, never
/// kRetriesExhausted.
inline constexpr RetryPolicy kSingleShot{
    .max_attempts = 1, .deadline_ms = 0, .max_restarts = 0};

/// Deterministic pacing clock: sleeping advances the reading. Every
/// driver in this repo runs on one — retries are instantaneous and the
/// elapsed "time" is a pure function of the retry schedule, so deadline
/// behaviour is testable without wall-clock flakiness.
class VirtualRetryClock {
 public:
  std::uint64_t now_ms() const { return now_; }
  void sleep_ms(std::uint64_t ms) { now_ += ms; }

 private:
  std::uint64_t now_ = 0;
};

/// Transport decorator that retries thrown deliveries. SocketTransport
/// reports loss by throwing Error(kTransport), and this layer turns
/// "lost" into "late".
///
/// Only *thrown* kTransport and kBusy failures are retried here (kBusy is
/// a server's admission-control shed: answered before processing, so the
/// resend races nothing). A response that arrived but fails to parse or
/// verify is the session layer's business — retrying it requires
/// re-driving the pass, which a transport cannot do.
///
/// Throws Error(kExhausted) when the attempt budget is spent and
/// Error(kTimeout) when the policy deadline passes, both carrying the
/// attempt count; sessions map these to kRetriesExhausted / kTimeout.
class ReliableTransport final : public Transport {
 public:
  struct Stats {
    std::size_t requests = 0;   // calls into this decorator
    std::size_t attempts = 0;   // sends to the inner transport
    std::size_t retries = 0;    // attempts beyond each request's first
    std::size_t busy = 0;       // attempts shed by the peer (kBusy refusals)
    std::size_t exhausted = 0;  // requests that spent the attempt budget
    std::size_t timeouts = 0;   // requests that hit the deadline
  };

  ReliableTransport(Transport& inner, RetryPolicy policy, Rng& rng);

  Envelope request(const Envelope& request) override;

  const Stats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }
  /// The pacing clock: its reading is the total backoff slept so far.
  const VirtualRetryClock& clock() const { return clock_; }

 private:
  Transport& inner_;
  RetryPolicy policy_;
  Rng& rng_;
  VirtualRetryClock clock_;
  Stats stats_;
};

}  // namespace omadrm::roap
