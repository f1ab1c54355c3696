// Fault-tolerant ROAP: the retry policy, the ReliableTransport decorator,
// the policy-driven session runs, and the degraded modes both endpoints
// enter when their durable store refuses commits.
//
// Everything here runs on the VirtualRetryClock — retries are
// instantaneous and every schedule is a pure function of the seed.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "common/error.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "store/memory_store.h"

namespace omadrm {
namespace {

using agent::AgentStatus;
using agent::DrmAgent;
using roap::FaultClass;
using roap::FaultyTransport;
using roap::ReliableTransport;
using roap::RetryPolicy;
using Fault = roap::FaultyTransport::Fault;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

// ---------------------------------------------------------------------------
// RetryPolicy: backoff + classification
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffDoublesAndCapsWithoutJitter) {
  RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 100;
  p.jitter = 0;
  DeterministicRng rng(1);
  EXPECT_EQ(p.backoff_ms(1, rng), 10u);
  EXPECT_EQ(p.backoff_ms(2, rng), 20u);
  EXPECT_EQ(p.backoff_ms(3, rng), 40u);
  EXPECT_EQ(p.backoff_ms(4, rng), 80u);
  EXPECT_EQ(p.backoff_ms(5, rng), 100u);   // capped
  EXPECT_EQ(p.backoff_ms(50, rng), 100u);  // stays capped, no overflow
}

TEST(RetryPolicy, JitterSpreadsWithinBoundsDeterministically) {
  RetryPolicy p;
  p.base_backoff_ms = 100;
  p.max_backoff_ms = 10000;
  p.jitter = 0.5;
  DeterministicRng a(0xB0FF);
  DeterministicRng b(0xB0FF);
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    const std::uint64_t base = p.backoff_ms(attempt, a);
    // Same seed, same schedule.
    EXPECT_EQ(p.backoff_ms(attempt, b), base);
  }
  // Bounds: [b*(1-j), b*(1+j)) around the un-jittered 100ms first step.
  DeterministicRng c(7);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t ms = p.backoff_ms(1, c);
    EXPECT_GE(ms, 50u);
    EXPECT_LT(ms, 150u);
  }
}

TEST(RetryPolicy, ClassifiesTransientVsTerminal) {
  const StatusCode retriable[] = {
      StatusCode::kTransportFailure, StatusCode::kTimeout,
      StatusCode::kMalformedMessage, StatusCode::kUnexpectedMessage,
      StatusCode::kNonceMismatch,    StatusCode::kSignatureInvalid,
      StatusCode::kStoreFailure,     StatusCode::kServerBusy,
  };
  for (StatusCode c : retriable) {
    EXPECT_EQ(RetryPolicy::classify(c), FaultClass::kRetriable)
        << to_string(c);
  }
  const StatusCode terminal[] = {
      StatusCode::kRiAborted,          StatusCode::kNotRegistered,
      StatusCode::kUnknownRoId,        StatusCode::kAccessDenied,
      StatusCode::kCertificateRevoked, StatusCode::kNotProvisioned,
      StatusCode::kRetriesExhausted,   StatusCode::kSessionExpired,
      StatusCode::kStoreCorrupt,
  };
  for (StatusCode c : terminal) {
    EXPECT_EQ(RetryPolicy::classify(c), FaultClass::kTerminal)
        << to_string(c);
  }
}

// ---------------------------------------------------------------------------
// Protocol-level fixture
// ---------------------------------------------------------------------------

class RetryProtocol : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0x5E71);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity,
        provider::plain_provider(), *rng_);
    device_ = std::make_unique<DrmAgent>("device-01", ca_->root_certificate(),
                                         provider::plain_provider(), *rng_);
    device_->provision(
        ca_->issue("device-01", device_->public_key(), kValidity, *rng_));
    loopback_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
    faulty_ = std::make_unique<FaultyTransport>(*loopback_, *rng_);

    ri::LicenseOffer offer;
    offer.ro_id = "ro:retry";
    offer.content_id = "cid:retry@content.example";
    offer.dcf_hash = Bytes(20, 0x42);
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = rng_->bytes(16);
    ri_->add_offer(offer);
  }

  RetryPolicy quick_policy() {
    RetryPolicy p;
    p.base_backoff_ms = 1;
    p.max_backoff_ms = 4;
    p.jitter = 0;
    return p;
  }

  FaultyTransport& net() { return *faulty_; }

  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<DrmAgent> device_;
  std::unique_ptr<roap::InProcessTransport> loopback_;
  std::unique_ptr<FaultyTransport> faulty_;
};

// ---------------------------------------------------------------------------
// ReliableTransport
// ---------------------------------------------------------------------------

TEST_F(RetryProtocol, ReliableTransportAbsorbsDroppedEnvelopes) {
  // Every pass of the handshake loses its first delivery; the decorator
  // resends and the session never notices.
  net().set_schedule({Fault::kDropRequest, Fault::kNone,   // pass 1+2
                      Fault::kDropRequest, Fault::kNone});  // pass 3+4
  ReliableTransport reliable(net(), quick_policy(), *rng_);
  EXPECT_EQ(device_->register_with(reliable, kNow), AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(reliable.stats().requests, 2u);
  EXPECT_EQ(reliable.stats().attempts, 4u);
  EXPECT_EQ(reliable.stats().retries, 2u);
}

TEST_F(RetryProtocol, ReliableTransportExhaustionSurfacesAsRetriesExhausted) {
  net().set_drop_rate(1.0);  // the network is gone
  RetryPolicy p = quick_policy();
  p.max_attempts = 3;
  ReliableTransport reliable(net(), p, *rng_);
  Result<> out = device_->register_with(reliable, kNow);
  EXPECT_EQ(out, AgentStatus::kRetriesExhausted);
  EXPECT_NE(out.context().find("3 attempts"), std::string::npos)
      << out.describe();
  EXPECT_EQ(reliable.stats().exhausted, 1u);
  EXPECT_FALSE(device_->has_ri_context("ri.example"));
}

TEST_F(RetryProtocol, ReliableTransportDeadlineSurfacesAsTimeout) {
  net().set_drop_rate(1.0);
  RetryPolicy p;
  p.max_attempts = 100;
  p.deadline_ms = 50;
  p.base_backoff_ms = 30;  // two sleeps cross the 50ms deadline
  p.jitter = 0;
  ReliableTransport reliable(net(), p, *rng_);  // owns a virtual clock
  Result<> out = device_->register_with(reliable, kNow);
  EXPECT_EQ(out, AgentStatus::kTimeout);
  EXPECT_EQ(reliable.stats().timeouts, 1u);
}

TEST_F(RetryProtocol, ReliableTransportHandsDamagedBytesUpward) {
  // Corruption is delivered, not absorbed: judging content is the
  // session's job (it classifies and the session driver may re-drive).
  net().inject(Fault::kCorruptResponse);
  ReliableTransport reliable(net(), quick_policy(), *rng_);
  Result<> out = device_->register_with(reliable, kNow);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(reliable.stats().retries, 0u);
}

// A decorator that sheds the first `sheds` requests with Error(kBusy) —
// the overloaded-server refusal SocketTransport surfaces for a
// kBusyFrameType frame — then delegates.
struct BusyThenServe final : roap::Transport {
  roap::Transport& inner;
  std::size_t sheds;
  std::size_t shed_count = 0;
  explicit BusyThenServe(roap::Transport& t, std::size_t n)
      : inner(t), sheds(n) {}
  roap::Envelope request(const roap::Envelope& env) override {
    if (shed_count < sheds) {
      ++shed_count;
      throw Error(ErrorKind::kBusy, "busy: admission control shed");
    }
    return inner.request(env);
  }
};

TEST_F(RetryProtocol, BusySheddingIsAbsorbedWithBackoff) {
  // Every pass's first delivery is shed; the decorator backs off and
  // resends, and the session never notices the overload.
  BusyThenServe busy(*loopback_, 2);
  RetryPolicy p = quick_policy();
  ReliableTransport reliable(busy, p, *rng_);
  EXPECT_EQ(device_->register_with(reliable, kNow), AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(reliable.stats().busy, 2u);
  EXPECT_EQ(reliable.stats().retries, 2u);
  // The backoff between shed and resend really elapsed on the clock —
  // a shed fleet spreads out instead of hammering the server in place.
  EXPECT_GE(reliable.clock().now_ms(), 2u * p.base_backoff_ms);
}

TEST_F(RetryProtocol, PersistentOverloadExhaustsAsRetriesExhausted) {
  // A server that never stops shedding: the retry budget bounds the
  // pestering and the session surfaces the typed terminal code.
  BusyThenServe busy(*loopback_, std::size_t(-1));
  RetryPolicy p = quick_policy();
  p.max_attempts = 3;
  ReliableTransport reliable(busy, p, *rng_);
  Result<> out = device_->register_with(reliable, kNow);
  EXPECT_EQ(out, AgentStatus::kRetriesExhausted);
  EXPECT_EQ(reliable.stats().busy, 3u);
  EXPECT_EQ(reliable.stats().exhausted, 1u);
  EXPECT_EQ(busy.shed_count, 3u);  // exactly the budget, then we stopped
  EXPECT_FALSE(device_->has_ri_context("ri.example"));
}

// ---------------------------------------------------------------------------
// Policy-driven sessions: re-drive the same pass
// ---------------------------------------------------------------------------

TEST_F(RetryProtocol, LostResponseResendsSamePassAndHitsReplayCache) {
  // Pass 4's response is lost AFTER the RI consumed the session. The
  // driver resends the same RegistrationRequest; the RI's replay cache
  // answers it byte-for-byte instead of refusing the consumed session.
  net().set_schedule({Fault::kNone, Fault::kDropResponse, Fault::kNone});
  EXPECT_EQ(device_->register_with(net(), kNow, quick_policy()),
            AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(ri_->counters().registrations, 1u);  // no double admission
  EXPECT_EQ(ri_->replay_cache_stats().hits, 1u);
  EXPECT_EQ(ri_->pending_session_count(), 0u);
}

TEST_F(RetryProtocol, CorruptedResponseRetriesAndSucceeds) {
  net().set_schedule({Fault::kCorruptResponse, Fault::kNone,
                      Fault::kCorruptResponse, Fault::kNone});
  EXPECT_EQ(device_->register_with(net(), kNow, quick_policy()),
            AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(ri_->counters().registrations, 1u);
}

TEST_F(RetryProtocol, AcquisitionRetriesLostAndReplayedDeliveries) {
  ASSERT_EQ(device_->register_with(net(), kNow), AgentStatus::kOk);
  const std::uint64_t ros_before = ri_->counters().ros_issued;
  // Drop, then replay a stale response (nonce mismatch), then deliver.
  net().set_schedule(
      {Fault::kDropResponse, Fault::kReplayResponse, Fault::kNone});
  auto ro = device_->acquire_ro(net(), "ri.example", "ro:retry", kNow,
                                quick_policy());
  ASSERT_EQ(ro, AgentStatus::kOk);
  EXPECT_EQ(device_->install_ro(*ro, kNow), AgentStatus::kOk);
  // The drop consumed one fresh issue; the resend after the replayed
  // response was served from the RI's cache, not re-minted.
  EXPECT_EQ(ri_->counters().ros_issued, ros_before + 1);
}

TEST_F(RetryProtocol, TerminalRefusalIsNotRetried) {
  ASSERT_EQ(device_->register_with(net(), kNow), AgentStatus::kOk);
  const std::size_t before = net().stats().requests;
  auto ro = device_->acquire_ro(net(), "ri.example", "ro:no-such-id", kNow,
                                quick_policy());
  EXPECT_EQ(ro, AgentStatus::kUnknownRoId);
  // One request on the wire: an authoritative refusal ends the pass.
  EXPECT_EQ(net().stats().requests, before + 1);
}

TEST_F(RetryProtocol, ExpiredRiSessionRestartsFromDeviceHello) {
  // Let the RI's pending-session TTL fire between pass 2 and pass 3: the
  // RegistrationRequest meets kSessionExpired and the driver restarts the
  // whole handshake with fresh nonces — one run() call, no caller logic.
  struct TtlRace final : roap::Transport {
    roap::InProcessTransport& inner;
    int exchanges = 0;
    explicit TtlRace(roap::InProcessTransport& t) : inner(t) {}
    roap::Envelope request(const roap::Envelope& env) override {
      ++exchanges;
      if (exchanges == 2) {
        // The RegistrationRequest arrives after the RI garbage-collected
        // the pending session.
        inner.set_now(kNow + ri::kPendingSessionTtl + 1);
      }
      return inner.request(env);
    }
  } racy(*loopback_);

  agent::RegistrationSession reg(*device_, kNow + ri::kPendingSessionTtl + 1);
  RetryPolicy p = quick_policy();
  ASSERT_EQ(p.max_restarts, 1u);
  EXPECT_EQ(reg.run(racy, p), AgentStatus::kOk);
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kComplete);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(ri_->counters().registrations, 1u);
  EXPECT_EQ(ri_->pending_session_count(), 0u);
  EXPECT_EQ(racy.exchanges, 4);  // 2 passes dead round + 2 passes restart
}

TEST_F(RetryProtocol, RestartBudgetBoundsSessionExpiredLoops) {
  // An RI that *always* reports kSessionExpired (restart storm) must not
  // loop forever: max_restarts bounds it and the code surfaces.
  struct AlwaysExpired final : roap::Transport {
    roap::InProcessTransport& inner;
    explicit AlwaysExpired(roap::InProcessTransport& t) : inner(t) {}
    roap::Envelope request(const roap::Envelope& env) override {
      if (env.type() == roap::MessageType::kRegistrationRequest) {
        roap::RegistrationResponse out;
        out.status = roap::Status::kSessionExpired;
        out.session_id =
            env.open<roap::RegistrationRequest>().session_id;
        out.ri_id = "ri.example";
        return roap::Envelope::wrap(out);
      }
      return inner.request(env);
    }
  } hostile(*loopback_);

  agent::RegistrationSession reg(*device_, kNow);
  RetryPolicy p = quick_policy();
  p.max_restarts = 2;
  Result<> out = reg.run(hostile, p);
  EXPECT_EQ(out, AgentStatus::kSessionExpired);
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kFailed);
}

// ---------------------------------------------------------------------------
// Degraded modes: a store that refuses commits
// ---------------------------------------------------------------------------

TEST_F(RetryProtocol, DegradedRiRefusesNewGrantsButServesStateless) {
  store::MemoryStore ri_store;
  ASSERT_TRUE(ri_->bind_store(ri_store).ok());
  ASSERT_EQ(device_->register_with(net(), kNow), AgentStatus::kOk);

  // Store down: a new handshake (needs a sess/ commit) is refused with
  // the typed retriable code, and nothing leaks into RAM or the store.
  ri_store.fail_next_commits(1);
  const std::size_t records = ri_store.record_count();
  EXPECT_EQ(device_->register_with(net(), kNow), AgentStatus::kStoreFailure);
  EXPECT_EQ(ri_->pending_session_count(), 0u);
  EXPECT_EQ(ri_store.record_count(), records);
  EXPECT_EQ(ri_->counters().degraded_refusals, 1u);

  // Stateless service is unaffected: RO issuing persists nothing.
  ri_store.fail_next_commits(1);
  auto ro = device_->acquire_ro(net(), "ri.example", "ro:retry", kNow);
  EXPECT_EQ(ro, AgentStatus::kOk);

  // Once the store heals, the refused handshake simply retries.
  ri_store.fail_next_commits(0);
  EXPECT_EQ(device_->register_with(net(), kNow), AgentStatus::kOk);
}

TEST_F(RetryProtocol, PolicyRunRidesOutTransientRiStoreFailure) {
  store::MemoryStore ri_store;
  ASSERT_TRUE(ri_->bind_store(ri_store).ok());
  ri_store.fail_next_commits(2);
  // kStoreFailure is retriable: the driver resends the hello until the
  // store recovers, within one run() call.
  EXPECT_EQ(device_->register_with(net(), kNow, quick_policy()),
            AgentStatus::kOk);
  EXPECT_EQ(ri_->counters().degraded_refusals, 2u);
  EXPECT_EQ(ri_->counters().registrations, 1u);
}

TEST_F(RetryProtocol, AgentStoreFailureLeavesSessionReDrivable) {
  store::MemoryStore dev_store;
  ASSERT_TRUE(device_->bind_store(dev_store).ok());

  // The agent's own commit of the RI context fails at pass 4: the session
  // surfaces kStoreFailure but stays re-drivable; the policy driver
  // resends the same request (served from the RI's replay cache — zero
  // re-verification server-side) and the healed commit completes it.
  dev_store.fail_next_commits(1);
  EXPECT_EQ(device_->register_with(net(), kNow, quick_policy()),
            AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_EQ(ri_->counters().registrations, 1u);
  EXPECT_GE(ri_->replay_cache_stats().hits, 1u);
}

TEST_F(RetryProtocol, SingleShotRunKeepsHistoricalParkingSemantics) {
  // The plain run(transport) still parks kFailed on any failed pass —
  // resilience is opt-in via the policy overloads.
  net().inject(Fault::kCorruptResponse);
  agent::RegistrationSession reg(*device_, kNow);
  EXPECT_FALSE(reg.run(net()).ok());
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kFailed);
}

TEST_F(RetryProtocol, TimedOutRunParksTheSession) {
  // kTimeout is retriable for a pass, but a run() that gives up on it is
  // over: the session parks like any other failed run instead of being
  // left mid-handshake.
  net().set_drop_rate(1.0);
  RetryPolicy p;
  p.max_attempts = 100;
  p.deadline_ms = 50;
  p.base_backoff_ms = 30;  // two sleeps cross the 50ms deadline
  p.jitter = 0;
  agent::RegistrationSession reg(*device_, kNow);
  EXPECT_EQ(reg.run(net(), p), AgentStatus::kTimeout);
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kFailed);
}

}  // namespace
}  // namespace omadrm
