#include "roap/retry.h"

#include <string>

#include "common/error.h"

namespace omadrm::roap {

using omadrm::Error;
using omadrm::ErrorKind;

std::uint64_t RetryPolicy::backoff_ms(std::size_t attempt, Rng& rng) const {
  if (base_backoff_ms == 0) return 0;
  // base << (attempt-1), saturating, then capped.
  std::uint64_t backoff = base_backoff_ms;
  for (std::size_t i = 1; i < attempt && backoff < max_backoff_ms; ++i) {
    backoff *= 2;
  }
  if (backoff > max_backoff_ms) backoff = max_backoff_ms;
  if (jitter <= 0) return backoff;
  // One draw with 2^20 resolution spreads the wait over
  // [backoff*(1-j), backoff*(1+j)) — decorrelates a fleet retrying the
  // same outage without losing per-seed determinism.
  const double j = jitter > 1.0 ? 1.0 : jitter;
  const double u = static_cast<double>(rng.uniform(std::uint64_t{1} << 20)) /
                   static_cast<double>(std::uint64_t{1} << 20);
  const double scaled = static_cast<double>(backoff) * (1.0 - j + 2.0 * j * u);
  return scaled < 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
}

FaultClass RetryPolicy::classify(StatusCode code) {
  // Deliberately NO default: every StatusCode enumerator must be
  // classified here by hand. A new code added to status.h without a row
  // in this table is a -Wswitch warning at compile time AND a
  // lint_invariants.py failure (rule `classify-coverage`) in CI — the
  // fault table can no longer drift silently.
  switch (code) {
    case StatusCode::kTransportFailure:  // envelope lost in transit
    case StatusCode::kTimeout:           // transport-level deadline
    case StatusCode::kMalformedMessage:  // bytes damaged in transit
    case StatusCode::kUnexpectedMessage: // stale / reordered delivery
    case StatusCode::kNonceMismatch:     // replayed response, not bound to us
    case StatusCode::kSignatureInvalid:  // parseable but damaged response
    case StatusCode::kStoreFailure:      // peer store degraded; may recover
    case StatusCode::kServerBusy:        // peer shed under overload; backoff
      return FaultClass::kRetriable;

    // Terminal: success, authoritative RI refusals, local preconditions,
    // certificate/RO verdicts, retry-budget outcomes, and store states a
    // resend cannot heal. kSessionExpired is terminal for the PASS; the
    // registration driver treats it as restart-from-DeviceHello instead.
    case StatusCode::kOk:
    case StatusCode::kNotProvisioned:
    case StatusCode::kNoRiContext:
    case StatusCode::kRiContextExpired:
    case StatusCode::kRiAborted:
    case StatusCode::kNotRegistered:
    case StatusCode::kUnknownRoId:
    case StatusCode::kAccessDenied:
    case StatusCode::kCertificateInvalid:
    case StatusCode::kOcspInvalid:
    case StatusCode::kCertificateRevoked:
    case StatusCode::kUnwrapFailed:
    case StatusCode::kMacMismatch:
    case StatusCode::kRoSignatureInvalid:
    case StatusCode::kNoDomainKey:
    case StatusCode::kNotInstalled:
    case StatusCode::kDcfHashMismatch:
    case StatusCode::kPermissionDenied:
    case StatusCode::kRetriesExhausted:
    case StatusCode::kSessionExpired:
    case StatusCode::kStoreCorrupt:
    case StatusCode::kStoreSealBroken:
    case StatusCode::kStoreRollback:
      return FaultClass::kTerminal;
  }
  return FaultClass::kTerminal;  // unreachable; keeps -Wreturn-type quiet
}

ReliableTransport::ReliableTransport(Transport& inner, RetryPolicy policy,
                                     Rng& rng)
    : inner_(inner), policy_(policy), rng_(rng) {}

Envelope ReliableTransport::request(const Envelope& request) {
  ++stats_.requests;
  const std::uint64_t start = clock_.now_ms();
  std::string last;
  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (policy_.deadline_ms != 0 &&
        clock_.now_ms() - start >= policy_.deadline_ms) {
      ++stats_.timeouts;
      throw Error(ErrorKind::kTimeout,
                  "transport: deadline exceeded after " +
                      std::to_string(attempt - 1) + " attempts: last: " +
                      (last.empty() ? "none sent" : last));
    }
    ++stats_.attempts;
    if (attempt > 1) ++stats_.retries;
    try {
      return inner_.request(request);
    } catch (const Error& e) {
      // Ours to absorb: a lost exchange (kTransport) or a load-shed
      // refusal (kBusy — the server answered "not now", which is a
      // promise the request was never processed, so resending with
      // backoff is always safe). Delivered-but-damaged bytes (kFormat)
      // and everything else belong to the caller.
      if (e.kind() == ErrorKind::kBusy) {
        ++stats_.busy;
      } else if (e.kind() != ErrorKind::kTransport) {
        throw;
      }
      last = e.what();
    }
    if (attempt < policy_.max_attempts) {
      clock_.sleep_ms(policy_.backoff_ms(attempt, rng_));
    }
  }
  ++stats_.exhausted;
  throw Error(ErrorKind::kExhausted,
              "transport: gave up after " +
                  std::to_string(policy_.max_attempts) +
                  " attempts: last: " + last);
}

}  // namespace omadrm::roap
