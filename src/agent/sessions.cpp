#include "agent/sessions.h"

#include <optional>

#include "common/error.h"

namespace omadrm::agent {

using omadrm::Error;
using omadrm::ErrorKind;
using omadrm::StatusCode;
using roap::Envelope;
using roap::MessageType;

namespace {

/// Maps a transport-boundary exception to a Result failure code, or
/// nullopt when the exception is not a wire-level condition (those are
/// genuine bugs and must keep unwinding).
std::optional<StatusCode> transport_status(const Error& e) {
  switch (e.kind()) {
    case ErrorKind::kTransport: return StatusCode::kTransportFailure;
    case ErrorKind::kBusy: return StatusCode::kServerBusy;
    case ErrorKind::kFormat: return StatusCode::kMalformedMessage;
    case ErrorKind::kTimeout: return StatusCode::kTimeout;
    case ErrorKind::kExhausted: return StatusCode::kRetriesExhausted;
    default: return std::nullopt;
  }
}

/// One transport exchange with wire-level failures folded into the
/// Result. Non-wire exceptions propagate.
Result<Envelope> exchange(roap::Transport& transport,
                          const Envelope& request) {
  try {
    return Result<Envelope>(transport.request(request));
  } catch (const Error& e) {
    if (auto code = transport_status(e)) {
      return Result<Envelope>(*code, e.what());
    }
    throw;
  }
}

/// Decodes an incoming envelope as Msg, classifying the two expected
/// peer failures: wrong message type and malformed content.
template <typename Msg>
Result<Msg> open_expected(const Envelope& envelope) {
  if (envelope.type() != roap::MessageTraits<Msg>::kType) {
    return Result<Msg>(
        StatusCode::kUnexpectedMessage,
        std::string("awaiting ") +
            roap::to_string(roap::MessageTraits<Msg>::kType) + ", got " +
            roap::to_string(envelope.type()));
  }
  try {
    return Result<Msg>(envelope.open<Msg>());
  } catch (const Error& e) {
    return Result<Msg>(StatusCode::kMalformedMessage, e.what());
  }
}

/// True when retrying cannot change the outcome — the shared taxonomy of
/// roap::RetryPolicy. Failure sites use this to decide between parking
/// the session (kFailed) and leaving it re-drivable.
bool terminal(StatusCode code) {
  return roap::RetryPolicy::classify(code) == roap::FaultClass::kTerminal;
}

/// Drives one request/response pass under a retry policy: send the SAME
/// request envelope, classify the outcome through `conclude`, and retry
/// retriable failures with backoff until the attempt budget or the
/// deadline (measured on `clock`, which the session's run() starts at 0
/// and shares across its passes) runs out. With a one-attempt policy the
/// pass's own failure comes back as is, never as kRetriesExhausted.
/// `conclude` must be re-invokable — the session halves guarantee that by
/// staying in their awaiting state on retriable outcomes.
template <typename T, typename ConcludeFn>
Result<T> drive_pass(roap::Transport& transport, const Envelope& request_env,
                     const roap::RetryPolicy& policy, Rng& rng,
                     roap::VirtualRetryClock& clock, ConcludeFn&& conclude) {
  std::string last;
  for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (policy.deadline_ms != 0 && clock.now_ms() >= policy.deadline_ms) {
      return Result<T>(
          StatusCode::kTimeout,
          "retry deadline exceeded after " + std::to_string(attempt - 1) +
              " attempts" + (last.empty() ? "" : "; last: " + last));
    }
    if (attempt > 1) clock.sleep_ms(policy.backoff_ms(attempt - 1, rng));
    Result<Envelope> response = exchange(transport, request_env);
    Result<T> out =
        response.ok() ? conclude(*response) : propagate<T>(response);
    if (out.ok() || terminal(out.code()) || policy.max_attempts == 1) {
      return out;
    }
    last = out.describe();
  }
  return Result<T>(StatusCode::kRetriesExhausted,
                   "gave up after " + std::to_string(policy.max_attempts) +
                       " attempts; last: " + last);
}

}  // namespace

// ---------------------------------------------------------------------------
// RegistrationSession
// ---------------------------------------------------------------------------

RegistrationSession::RegistrationSession(DrmAgent& agent, std::uint64_t now)
    : agent_(agent), now_(now) {}

Result<Envelope> RegistrationSession::hello() {
  if (state_ != State::kStart) {
    throw Error(ErrorKind::kProtocol,
                "registration session: hello() after the handshake started");
  }
  if (!agent_.is_provisioned()) {
    state_ = State::kFailed;
    return Result<Envelope>(StatusCode::kNotProvisioned,
                            "no device certificate installed");
  }
  Envelope out = Envelope::wrap(agent_.make_device_hello(pending_));
  state_ = State::kAwaitRiHello;
  return out;
}

Result<Envelope> RegistrationSession::request(const Envelope& ri_hello) {
  if (state_ != State::kAwaitRiHello) {
    throw Error(ErrorKind::kProtocol,
                "registration session: request() out of order");
  }
  Result<roap::RiHello> msg = open_expected<roap::RiHello>(ri_hello);
  if (!msg.ok()) {
    // A damaged or stale delivery is retriable: stay in kAwaitRiHello so
    // the same DeviceHello can be answered again.
    if (terminal(msg.code())) state_ = State::kFailed;
    return propagate<Envelope>(msg);
  }
  return request(*msg);
}

Result<Envelope> RegistrationSession::request(const roap::RiHello& ri_hello) {
  if (state_ != State::kAwaitRiHello) {
    throw Error(ErrorKind::kProtocol,
                "registration session: request() out of order");
  }
  if (ri_hello.status != roap::Status::kSuccess) {
    // kStoreFailure (degraded RI) is retriable — keep awaiting so the
    // hello can be resent once the RI's store recovers.
    const StatusCode code = roap::status_code(ri_hello.status);
    if (terminal(code)) state_ = State::kFailed;
    return Result<Envelope>(
        code, std::string("RI reported ") + roap::to_string(ri_hello.status) +
                  " in RIHello");
  }
  Envelope out =
      Envelope::wrap(agent_.make_registration_request(ri_hello, pending_));
  state_ = State::kAwaitResponse;
  return out;
}

Result<> RegistrationSession::conclude(const Envelope& response) {
  if (state_ != State::kAwaitResponse) {
    throw Error(ErrorKind::kProtocol,
                "registration session: conclude() out of order");
  }
  Result<roap::RegistrationResponse> msg =
      open_expected<roap::RegistrationResponse>(response);
  if (!msg.ok()) {
    if (terminal(msg.code())) state_ = State::kFailed;
    return propagate<void>(msg);
  }
  return conclude(*msg);
}

Result<> RegistrationSession::conclude(
    const roap::RegistrationResponse& response) {
  if (state_ != State::kAwaitResponse) {
    throw Error(ErrorKind::kProtocol,
                "registration session: conclude() out of order");
  }
  Result<> out = agent_.accept_registration_response(response, pending_, now_);
  // accept_* is pure until its commit-then-apply tail, so a retriable
  // verification failure (corrupt / replayed response, agent-side store
  // refusal) leaves the session re-drivable with the same request.
  state_ = out.ok() ? State::kComplete
                    : (terminal(out.code()) ? State::kFailed
                                            : State::kAwaitResponse);
  return out;
}

void RegistrationSession::reset() {
  pending_ = DrmAgent::PendingRegistration{};
  state_ = State::kStart;
}

Result<> RegistrationSession::run(roap::Transport& transport,
                                  const roap::RetryPolicy& policy) {
  roap::VirtualRetryClock clock;
  Result<> out(StatusCode::kRetriesExhausted, "never attempted");
  for (std::size_t round = 0; round <= policy.max_restarts; ++round) {
    if (round > 0) reset();  // restart from DeviceHello, fresh nonces

    Result<Envelope> hello_env = hello();
    if (!hello_env.ok()) return propagate<void>(hello_env);

    // Pass 1+2: DeviceHello → RiHello. A retriable outcome resends the
    // SAME hello; the RI's replay cache answers exact duplicates with
    // the same session instead of minting a new one per resend.
    Result<Envelope> request_env = drive_pass<Envelope>(
        transport, *hello_env, policy, agent_.rng_, clock,
        [this](const Envelope& ri_hello) { return request(ri_hello); });
    if (!request_env.ok()) {
      state_ = State::kFailed;
      return propagate<void>(request_env);
    }

    // Pass 3+4: RegistrationRequest → RegistrationResponse.
    out = drive_pass<void>(
        transport, *request_env, policy, agent_.rng_, clock,
        [this](const Envelope& response) { return conclude(response); });
    if (out.code() != StatusCode::kSessionExpired) break;
    // The RI garbage-collected our pending session while we retried —
    // the one terminal-for-the-pass outcome that is recoverable for the
    // SESSION: restart the whole handshake with fresh nonces.
  }
  if (!out.ok()) state_ = State::kFailed;
  return out;
}

// ---------------------------------------------------------------------------
// AcquisitionSession
// ---------------------------------------------------------------------------

AcquisitionSession::AcquisitionSession(DrmAgent& agent, std::string ri_id,
                                       std::string ro_id, std::uint64_t now)
    : agent_(agent),
      ri_id_(std::move(ri_id)),
      ro_id_(std::move(ro_id)),
      now_(now) {}

Result<Envelope> AcquisitionSession::request() {
  if (state_ != State::kStart) {
    throw Error(ErrorKind::kProtocol,
                "acquisition session: request() out of order");
  }
  // "Existence, integrity and validity [of the RI Context] must be
  // verified prior to any future interaction with the RI" (§2.4.1). The
  // context holds the verdict of its chain's last walk, so right after
  // registration this costs zero RSA operations — the amortization the
  // paper's RI-context caching argument calls for.
  auto ctx = agent_.ri_contexts_.find(ri_id_);
  if (ctx == agent_.ri_contexts_.end()) {
    state_ = State::kFailed;
    return Result<Envelope>(StatusCode::kNoRiContext,
                            "no RI context for " + ri_id_);
  }
  Result<> valid = agent_.revalidate_context(ctx->second, now_);
  if (!valid.ok()) {
    state_ = State::kFailed;
    return propagate<Envelope>(valid);
  }
  Envelope out = Envelope::wrap(
      agent_.make_ro_request(ri_id_, ro_id_, device_nonce_));
  state_ = State::kAwaitResponse;
  return out;
}

Result<roap::ProtectedRo> AcquisitionSession::conclude(
    const Envelope& response) {
  if (state_ != State::kAwaitResponse) {
    throw Error(ErrorKind::kProtocol,
                "acquisition session: conclude() out of order");
  }
  Result<roap::RoResponse> msg = open_expected<roap::RoResponse>(response);
  if (!msg.ok()) {
    if (terminal(msg.code())) state_ = State::kFailed;
    return propagate<roap::ProtectedRo>(msg);
  }
  return conclude(*msg);
}

Result<roap::ProtectedRo> AcquisitionSession::conclude(
    const roap::RoResponse& response) {
  if (state_ != State::kAwaitResponse) {
    throw Error(ErrorKind::kProtocol,
                "acquisition session: conclude() out of order");
  }
  Result<roap::ProtectedRo> out =
      agent_.accept_ro_response(response, ri_id_, device_nonce_, now_);
  state_ = out.ok() ? State::kComplete
                    : (terminal(out.code()) ? State::kFailed
                                            : State::kAwaitResponse);
  return out;
}

Result<roap::ProtectedRo> AcquisitionSession::run(
    roap::Transport& transport, const roap::RetryPolicy& policy) {
  Result<Envelope> request_env = request();
  if (!request_env.ok()) return propagate<roap::ProtectedRo>(request_env);

  roap::VirtualRetryClock clock;
  Result<roap::ProtectedRo> out = drive_pass<roap::ProtectedRo>(
      transport, *request_env, policy, agent_.rng_, clock,
      [this](const Envelope& response) { return conclude(response); });
  if (!out.ok()) state_ = State::kFailed;
  return out;
}

// ---------------------------------------------------------------------------
// DomainSession
// ---------------------------------------------------------------------------

DomainSession::DomainSession(DrmAgent& agent, Kind kind, std::string ri_id,
                             std::string domain_id, std::uint64_t now)
    : agent_(agent),
      kind_(kind),
      ri_id_(std::move(ri_id)),
      domain_id_(std::move(domain_id)),
      now_(now) {}

Result<Envelope> DomainSession::request() {
  if (state_ != State::kStart) {
    throw Error(ErrorKind::kProtocol,
                "domain session: request() out of order");
  }
  // Same context-validity rule as acquisition: a revoked or expired RI
  // must not be able to key the device into (or out of) a domain.
  auto ctx = agent_.ri_contexts_.find(ri_id_);
  if (ctx == agent_.ri_contexts_.end()) {
    state_ = State::kFailed;
    return Result<Envelope>(StatusCode::kNoRiContext,
                            "no RI context for " + ri_id_);
  }
  Result<> valid = agent_.revalidate_context(ctx->second, now_);
  if (!valid.ok()) {
    state_ = State::kFailed;
    return propagate<Envelope>(valid);
  }
  Envelope out =
      kind_ == Kind::kJoin
          ? Envelope::wrap(agent_.make_join_domain_request(ri_id_, domain_id_,
                                                           device_nonce_))
          : Envelope::wrap(agent_.make_leave_domain_request(ri_id_, domain_id_,
                                                            device_nonce_));
  state_ = State::kAwaitResponse;
  return out;
}

Result<> DomainSession::conclude(const Envelope& response) {
  if (state_ != State::kAwaitResponse) {
    throw Error(ErrorKind::kProtocol,
                "domain session: conclude() out of order");
  }
  Result<> out = Result<>(StatusCode::kRiAborted);
  if (kind_ == Kind::kJoin) {
    Result<roap::JoinDomainResponse> msg =
        open_expected<roap::JoinDomainResponse>(response);
    if (!msg.ok()) {
      if (terminal(msg.code())) state_ = State::kFailed;
      return propagate<void>(msg);
    }
    out = agent_.accept_join_domain_response(*msg, ri_id_, domain_id_,
                                             device_nonce_);
  } else {
    Result<roap::LeaveDomainResponse> msg =
        open_expected<roap::LeaveDomainResponse>(response);
    if (!msg.ok()) {
      if (terminal(msg.code())) state_ = State::kFailed;
      return propagate<void>(msg);
    }
    out = agent_.accept_leave_domain_response(*msg, ri_id_, domain_id_,
                                              device_nonce_);
  }
  state_ = out.ok() ? State::kComplete
                    : (terminal(out.code()) ? State::kFailed
                                            : State::kAwaitResponse);
  return out;
}

Result<> DomainSession::run(roap::Transport& transport,
                            const roap::RetryPolicy& policy) {
  Result<Envelope> request_env = request();
  if (!request_env.ok()) return propagate<void>(request_env);

  roap::VirtualRetryClock clock;
  Result<> out = drive_pass<void>(
      transport, *request_env, policy, agent_.rng_, clock,
      [this](const Envelope& response) { return conclude(response); });
  if (!out.ok()) state_ = State::kFailed;
  return out;
}

}  // namespace omadrm::agent
