// Agent-side ROAP session state machines.
//
// Each session object drives exactly one protocol exchange and owns all
// of its pending state (device nonces, the ROAP session id, the OCSP
// nonce). That ownership is the fix for the historical pending-nonce
// leak: a handshake abandoned mid-flight — transport drop, user
// cancellation, superseding retry — is cleaned up by the session's
// destructor instead of lingering in agent-global maps forever.
//
// A session is driven either by its one run() or by its per-pass halves:
//
//   run(transport, policy)  one call; the session performs every pass
//                           over the transport under the retry policy
//                           (roap::kSingleShot, one attempt per pass, by
//                           default) and classifies transport exceptions
//                           into Result failures.
//
//   the per-pass halves     hello()/request()/conclude() expose each
//                           message so the envelopes can travel over any
//                           channel — in particular via another device
//                           acting as proxy, which is how the standard's
//                           "Unconnected Devices" (portable players that
//                           cannot reach the RI, paper §2.3) participate.
//
// Calling a half out of order is a programming error and throws
// omadrm::Error(kProtocol). Bad *peer* behaviour (malformed envelope,
// wrong message type, failed verification) is an expected runtime
// outcome and comes back as a failed Result. Terminal outcomes (an
// authoritative RI refusal, a failed certificate verdict) park the
// session in State::kFailed; *retriable* outcomes — the lost, stale, or
// damaged deliveries roap::RetryPolicy::classify names — leave the
// state machine where it was, so the same pass can be driven again with
// a fresh delivery of the same request.
//
// run() does exactly that: each pass is retried with backoff under the
// policy's attempt/deadline budget, and a registration whose pending RI
// session expired mid-flight (Status::kSessionExpired) is restarted from
// DeviceHello with fresh nonces, up to policy.max_restarts times. A run()
// that fails — whatever the code — parks the session in kFailed; a fresh
// session must be started (retry = new nonces, never reuse).
#pragma once

#include <cstdint>
#include <string>

#include "agent/drm_agent.h"
#include "common/result.h"
#include "roap/envelope.h"
#include "roap/retry.h"
#include "roap/transport.h"

namespace omadrm::agent {

/// 4-pass registration: DeviceHello → RIHello → RegistrationRequest →
/// RegistrationResponse. Success establishes/refreshes the RI Context.
class RegistrationSession {
 public:
  enum class State : std::uint8_t {
    kStart,
    kAwaitRiHello,
    kAwaitResponse,
    kComplete,
    kFailed,
  };

  RegistrationSession(DrmAgent& agent, std::uint64_t now);

  State state() const { return state_; }

  /// Pass 1: the DeviceHello envelope (records the device nonce).
  Result<roap::Envelope> hello();
  /// Pass 3: consumes the RIHello, returns the signed RegistrationRequest.
  Result<roap::Envelope> request(const roap::Envelope& ri_hello);
  Result<roap::Envelope> request(const roap::RiHello& ri_hello);
  /// Pass 4: verifies the RegistrationResponse (chain, OCSP, signature)
  /// and persists the RI Context.
  Result<> conclude(const roap::Envelope& response);
  Result<> conclude(const roap::RegistrationResponse& response);

  /// Drives all four passes over the transport. Each pass is retried
  /// under `policy` (backoff jitter drawn from the agent's rng, paced on
  /// a VirtualRetryClock), resending the *same* request on a retriable
  /// outcome. When the RI answers kSessionExpired — its pending session
  /// died while we retried — the whole handshake restarts from
  /// DeviceHello with fresh nonces, up to policy.max_restarts times.
  /// Fails with kTimeout / kRetriesExhausted (attempt counts in the
  /// context) when a multi-attempt budget runs out; a one-attempt pass
  /// returns its own failure.
  Result<> run(roap::Transport& transport,
               const roap::RetryPolicy& policy = roap::kSingleShot);

 private:
  /// Back to kStart with no pending state — the restart-from-DeviceHello
  /// edge of the policy driver.
  void reset();

  DrmAgent& agent_;
  std::uint64_t now_;
  State state_ = State::kStart;
  DrmAgent::PendingRegistration pending_;
};

/// 2-pass RO acquisition: RORequest → ROResponse against an established
/// RI context.
class AcquisitionSession {
 public:
  enum class State : std::uint8_t {
    kStart,
    kAwaitResponse,
    kComplete,
    kFailed,
  };

  AcquisitionSession(DrmAgent& agent, std::string ri_id, std::string ro_id,
                     std::uint64_t now);

  State state() const { return state_; }

  /// Revalidates the RI context (its held chain verdict) and returns the
  /// signed RORequest.
  Result<roap::Envelope> request();
  /// Verifies the ROResponse (context revalidation, nonce binding,
  /// signature) and yields the protected RO.
  Result<roap::ProtectedRo> conclude(const roap::Envelope& response);
  Result<roap::ProtectedRo> conclude(const roap::RoResponse& response);

  /// Drives the single request/response pass (see
  /// RegistrationSession::run for the retry semantics).
  Result<roap::ProtectedRo> run(
      roap::Transport& transport,
      const roap::RetryPolicy& policy = roap::kSingleShot);

 private:
  DrmAgent& agent_;
  std::string ri_id_;
  std::string ro_id_;
  std::uint64_t now_;
  State state_ = State::kStart;
  Bytes device_nonce_;
};

/// 2-pass domain membership change (join or leave). On a successful
/// leave the agent discards K_D and uninstalls that domain's ROs.
class DomainSession {
 public:
  enum class Kind : std::uint8_t { kJoin, kLeave };
  enum class State : std::uint8_t {
    kStart,
    kAwaitResponse,
    kComplete,
    kFailed,
  };

  DomainSession(DrmAgent& agent, Kind kind, std::string ri_id,
                std::string domain_id, std::uint64_t now);

  Kind kind() const { return kind_; }
  State state() const { return state_; }

  Result<roap::Envelope> request();
  Result<> conclude(const roap::Envelope& response);

  /// Drives the single request/response pass (see
  /// RegistrationSession::run for the retry semantics).
  Result<> run(roap::Transport& transport,
               const roap::RetryPolicy& policy = roap::kSingleShot);

 private:
  DrmAgent& agent_;
  Kind kind_;
  std::string ri_id_;
  std::string domain_id_;
  std::uint64_t now_;
  State state_ = State::kStart;
  Bytes device_nonce_;
};

}  // namespace omadrm::agent
