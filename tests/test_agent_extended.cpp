// Extended DRM Agent behaviours: acquisition triggers, domain key
// generations (leave / upgrade / re-join), and secure-storage persistence
// across simulated reboots.
#include <gtest/gtest.h>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "common/base64.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/sha1.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/transport.h"
#include "rsa/rsa.h"
#include "store/memory_store.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm {
namespace {

using agent::AgentStatus;
using agent::DrmAgent;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

/// Re-encodes an export image with `from` replaced by `to` inside the
/// decoded value of record `key` (every other byte is carried over).
Bytes edit_record(ByteView image, std::string_view key, std::string_view from,
                  std::string_view to) {
  const std::string doc = to_string(image);
  xml::Arena arena;
  const xml::Node& root = xml::parse_in(arena, doc);
  std::string out;
  xml::Writer w(out);
  w.open(root.name());
  w.text_element("kdev", root.child_text("kdev"));
  bool edited = false;
  for (const xml::Node* rec : root.children_named("record")) {
    w.open("record");
    w.attr("key", rec->require_attr("key"));
    if (rec->require_attr("key") == key) {
      std::string value = to_string(base64_decode(rec->text()));
      const std::size_t at = value.find(from);
      EXPECT_NE(at, std::string::npos) << value;
      if (at != std::string::npos) {
        value.replace(at, from.size(), to);
        edited = true;
      }
      w.base64(to_bytes(value));
    } else {
      w.text(rec->text());
    }
    w.close();
  }
  w.close();
  EXPECT_TRUE(edited) << "no record " << key;
  return to_bytes(out);
}

class AgentExtended : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0xA9E);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ci_ = std::make_unique<ci::ContentIssuer>(
        "content.example", provider::plain_provider(), *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity,
        provider::plain_provider(), *rng_);
    device_ = std::make_unique<DrmAgent>("device-01", ca_->root_certificate(),
                                         provider::plain_provider(), *rng_);
    device_->provision(
        ca_->issue("device-01", device_->public_key(), kValidity, *rng_));
    transport_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
  }

  roap::InProcessTransport& tx() { return *transport_; }

  dcf::Dcf setup_content(const std::string& tag, std::size_t size,
                         std::uint32_t count_limit = 0,
                         bool domain_ro = false) {
    content_ = rng_->bytes(size);
    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = "cid:" + tag + "@content.example";
    h.rights_issuer_url = ri_->url();
    dcf::Dcf dcf = ci_->package(h, content_);

    ri::LicenseOffer offer;
    offer.ro_id = "ro:" + tag;
    offer.content_id = h.content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    if (count_limit > 0) play.constraint.count = count_limit;
    offer.permissions = {play};
    offer.kcek = *ci_->kcek_for(h.content_id);
    if (domain_ro) {
      offer.domain_ro = true;
      offer.domain_id = "domain:home";
      ri_->create_domain(offer.domain_id);
    }
    ri_->add_offer(offer);
    return dcf;
  }

  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ci::ContentIssuer> ci_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<DrmAgent> device_;
  std::unique_ptr<roap::InProcessTransport> transport_;
  Bytes content_;
};

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

TEST_F(AgentExtended, TriggerDrivesDeviceRoAcquisition) {
  dcf::Dcf dcf = setup_content("trig", 2000);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);

  roap::RoAcquisitionTrigger trigger = ri_->make_trigger("ro:trig");
  EXPECT_EQ(trigger.content_id, dcf.headers().content_id);
  EXPECT_TRUE(trigger.domain_id.empty());

  auto acq = device_->handle_trigger(tx(), trigger, kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, TriggerAutoJoinsDomain) {
  dcf::Dcf dcf = setup_content("trigdom", 2000, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  EXPECT_FALSE(device_->has_domain_key("domain:home"));

  roap::RoAcquisitionTrigger trigger = ri_->make_trigger("ro:trigdom");
  EXPECT_EQ(trigger.domain_id, "domain:home");
  auto acq = device_->handle_trigger(tx(), trigger, kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  EXPECT_TRUE(device_->has_domain_key("domain:home"));
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, TriggerFromUnknownRiRejected) {
  setup_content("trigri", 100);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  roap::RoAcquisitionTrigger trigger = ri_->make_trigger("ro:trigri");
  trigger.ri_id = "rogue.example";
  EXPECT_EQ(device_->handle_trigger(tx(), trigger, kNow),
            AgentStatus::kNoRiContext);
}

TEST_F(AgentExtended, TriggerForUnknownOfferThrowsAtRi) {
  EXPECT_THROW(ri_->make_trigger("ro:none"), Error);
}

// ---------------------------------------------------------------------------
// Domain lifecycle: leave, upgrade, re-join
// ---------------------------------------------------------------------------

TEST_F(AgentExtended, LeaveDomainRemovesKeyAndDomainRos) {
  dcf::Dcf dcf = setup_content("leave", 1500, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:leave", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  ASSERT_EQ(device_->leave_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  EXPECT_FALSE(device_->has_domain_key("domain:home"));
  EXPECT_EQ(device_->installed_count(), 0u);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kNotInstalled);
  // The RI no longer counts us as a member.
  auto again = device_->acquire_ro(tx(), "ri.example", "ro:leave", kNow);
  EXPECT_EQ(again, AgentStatus::kAccessDenied);
}

TEST_F(AgentExtended, LeaveKeepsDeviceRosAndOtherDomains) {
  dcf::Dcf dev_dcf = setup_content("keepdev", 800);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto dev_acq = device_->acquire_ro(tx(), "ri.example", "ro:keepdev", kNow);
  ASSERT_EQ(dev_acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*dev_acq, kNow), AgentStatus::kOk);

  ri_->create_domain("domain:other");
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:other", kNow),
            AgentStatus::kOk);
  ri_->create_domain("domain:gone");
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:gone", kNow), AgentStatus::kOk);

  ASSERT_EQ(device_->leave_domain(tx(), "ri.example", "domain:gone", kNow),
            AgentStatus::kOk);
  EXPECT_TRUE(device_->has_domain_key("domain:other"));
  EXPECT_FALSE(device_->has_domain_key("domain:gone"));
  EXPECT_EQ(device_->installed_count(), 1u);  // the device RO remains
  EXPECT_EQ(device_->consume(dev_dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, LeaveWithoutContextOrMembership) {
  EXPECT_EQ(device_->leave_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kNoRiContext);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  EXPECT_EQ(
      device_->leave_domain(tx(), "ri.example", "domain:nonexistent", kNow),
      AgentStatus::kAccessDenied);
}

TEST_F(AgentExtended, DomainUpgradeForcesRejoin) {
  dcf::Dcf dcf = setup_content("upgrade", 900, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow), AgentStatus::kOk);
  EXPECT_EQ(*device_->domain_generation("domain:home"), 1u);

  // The RI rotates the domain key (e.g. a member was compromised).
  ri_->upgrade_domain("domain:home");

  // A new Domain RO is wrapped under generation 2; our key is stale.
  // (The RI also cleared membership, so first prove the membership gate.)
  auto gated = device_->acquire_ro(tx(), "ri.example", "ro:upgrade", kNow);
  EXPECT_EQ(gated, AgentStatus::kAccessDenied);

  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow), AgentStatus::kOk);
  EXPECT_EQ(*device_->domain_generation("domain:home"), 2u);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:upgrade", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  EXPECT_EQ(acq->domain_generation, 2u);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, StaleGenerationKeyCannotInstallNewRo) {
  setup_content("stale", 700, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow), AgentStatus::kOk);

  // A second member acquires an RO *after* the upgrade.
  DrmAgent second("device-02", ca_->root_certificate(),
                  provider::plain_provider(), *rng_);
  second.provision(
      ca_->issue("device-02", second.public_key(), kValidity, *rng_));
  ASSERT_EQ(second.register_with(tx(), kNow), AgentStatus::kOk);
  ri_->upgrade_domain("domain:home");
  ASSERT_EQ(second.join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  auto acq = second.acquire_ro(tx(), "ri.example", "ro:stale", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);

  // device-01 still holds the generation-1 key: installation must be
  // refused with a re-join hint, not a garbage unwrap.
  EXPECT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kNoDomainKey);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  EXPECT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
}

// ---------------------------------------------------------------------------
// Relayed ROAP (Unconnected Devices) and request dispatch
// ---------------------------------------------------------------------------

TEST_F(AgentExtended, RelayedRoapThroughSessionHalves) {
  dcf::Dcf dcf = setup_content("relay", 900);

  // The proxy's side of the exchange: opaque serialized documents in,
  // parsed only at the RI's boundary.
  auto relay = [&](const roap::Envelope& req) {
    return ri_->handle(roap::Envelope::from_wire(req.wire()), kNow);
  };

  // Registration, every pass as serialized XML.
  agent::RegistrationSession reg(*device_, kNow);
  auto hello = reg.hello();
  ASSERT_EQ(hello, AgentStatus::kOk);
  auto reg_req = reg.request(relay(*hello));
  ASSERT_EQ(reg_req, AgentStatus::kOk);
  ASSERT_EQ(reg.conclude(relay(*reg_req)), AgentStatus::kOk);
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kComplete);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));

  // Acquisition over the wire.
  agent::AcquisitionSession acq_session(*device_, "ri.example", "ro:relay",
                                        kNow);
  auto ro_req = acq_session.request();
  ASSERT_EQ(ro_req, AgentStatus::kOk);
  auto acq = acq_session.conclude(relay(*ro_req));
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, SessionsEnforceOrdering) {
  setup_content("order", 100);
  // Concluding without a request in flight is a state-machine misuse.
  {
    agent::RegistrationSession reg(*device_, kNow);
    EXPECT_THROW(
        (void)reg.conclude(roap::Envelope::wrap(roap::RegistrationResponse{})),
        Error);
    EXPECT_THROW((void)reg.request(roap::RiHello{}), Error);
  }
  // An acquisition/domain session without an RI context fails closed.
  {
    agent::AcquisitionSession acq(*device_, "ri.example", "ro:order", kNow);
    EXPECT_EQ(acq.request(), AgentStatus::kNoRiContext);
    EXPECT_EQ(acq.state(), agent::AcquisitionSession::State::kFailed);
  }
  {
    agent::DomainSession join(*device_, agent::DomainSession::Kind::kJoin,
                              "ri.example", "d", kNow);
    EXPECT_EQ(join.request(), AgentStatus::kNoRiContext);
  }
  // A response of the wrong type is an expected (non-throwing) failure.
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  agent::AcquisitionSession acq(*device_, "ri.example", "ro:order", kNow);
  ASSERT_EQ(acq.request(), AgentStatus::kOk);
  EXPECT_EQ(acq.conclude(roap::Envelope::wrap(roap::JoinDomainResponse{})),
            AgentStatus::kUnexpectedMessage);
  // A wrong-type delivery is retriable (a stale or reordered packet): the
  // session stays re-drivable instead of parking kFailed, so a fresh
  // delivery can still conclude it — here with the real response.
  EXPECT_EQ(acq.state(), agent::AcquisitionSession::State::kAwaitResponse);
}

TEST_F(AgentExtended, AbandonedSessionLeavesNoPendingState) {
  setup_content("abandon", 100);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);

  // Build a request, capture the RI's (valid) response... then abandon
  // the session. The response must not be usable by any later session:
  // the nonce died with its owner.
  roap::Envelope orphan_response;
  {
    agent::AcquisitionSession dying(*device_, "ri.example", "ro:abandon",
                                    kNow);
    auto req = dying.request();
    ASSERT_EQ(req, AgentStatus::kOk);
    orphan_response = tx().request(*req);
  }
  agent::AcquisitionSession fresh(*device_, "ri.example", "ro:abandon", kNow);
  ASSERT_EQ(fresh.request(), AgentStatus::kOk);
  EXPECT_EQ(fresh.conclude(orphan_response), AgentStatus::kNonceMismatch);
}

TEST_F(AgentExtended, ReplayedRoResponseRejected) {
  dcf::Dcf dcf = setup_content("replay", 300);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  agent::AcquisitionSession first(*device_, "ri.example", "ro:replay", kNow);
  auto req = first.request();
  ASSERT_EQ(req, AgentStatus::kOk);
  roap::Envelope resp = tx().request(*req);
  ASSERT_EQ(first.conclude(resp), AgentStatus::kOk);
  // Replaying the same (valid) response into a completed session throws
  // (state misuse)...
  EXPECT_THROW((void)first.conclude(resp), Error);
  // ...and it cannot satisfy a *different* session either: fresh nonce.
  agent::AcquisitionSession second(*device_, "ri.example", "ro:replay", kNow);
  ASSERT_EQ(second.request(), AgentStatus::kOk);
  EXPECT_EQ(second.conclude(resp), AgentStatus::kNonceMismatch);
}

TEST_F(AgentExtended, WireDispatcherRejectsUnknownMessages) {
  setup_content("nodisp", 100);
  // Response documents and triggers are not servable requests.
  EXPECT_THROW(
      ri_->handle(roap::Envelope::wrap(roap::RoResponse{}), kNow), Error);
  roap::Envelope trigger = roap::Envelope::wrap(ri_->make_trigger("ro:nodisp"));
  EXPECT_THROW(ri_->handle(trigger, kNow), Error);
}

TEST_F(AgentExtended, PendingRiSessionsExpireAndSupersede) {
  setup_content("gc", 100);
  EXPECT_EQ(ri_->pending_session_count(), 0u);

  // Two abandoned hellos from the same device: the second supersedes the
  // first, so only one pending session remains.
  for (int i = 0; i < 2; ++i) {
    agent::RegistrationSession reg(*device_, kNow);
    auto hello = reg.hello();
    ASSERT_EQ(hello, AgentStatus::kOk);
    (void)tx().request(*hello);  // RIHello discarded: handshake abandoned
  }
  EXPECT_EQ(ri_->pending_session_count(), 1u);

  // A different device's pending handshake coexists...
  DrmAgent second("device-02", ca_->root_certificate(),
                  provider::plain_provider(), *rng_);
  second.provision(
      ca_->issue("device-02", second.public_key(), kValidity, *rng_));
  agent::RegistrationSession reg2(second, kNow);
  auto hello2 = reg2.hello();
  ASSERT_EQ(hello2, AgentStatus::kOk);
  (void)tx().request(*hello2);
  EXPECT_EQ(ri_->pending_session_count(), 2u);

  // ...until the TTL garbage-collects both abandoned handshakes.
  tx().set_now(kNow + ri::kPendingSessionTtl + 1);
  ASSERT_EQ(device_->register_with(tx(), kNow + ri::kPendingSessionTtl + 1),
            AgentStatus::kOk);
  EXPECT_EQ(ri_->pending_session_count(), 0u);
}

TEST_F(AgentExtended, StaleRiSessionCannotCompleteRegistration) {
  setup_content("stalegc", 100);
  // Start a handshake, then let it sit past the RI's TTL before sending
  // the RegistrationRequest: the RI must not complete it (one-shot, fresh
  // nonces) — but the answer is the typed restart-from-DeviceHello signal
  // (kSessionExpired), NOT a kAbort refusal: a device whose retry raced
  // the TTL did nothing wrong and must know to restart cleanly instead of
  // treating the RI as hostile.
  agent::RegistrationSession reg(*device_, kNow);
  auto hello = reg.hello();
  ASSERT_EQ(hello, AgentStatus::kOk);
  roap::Envelope ri_hello = tx().request(*hello);
  auto req = reg.request(ri_hello);
  ASSERT_EQ(req, AgentStatus::kOk);

  tx().set_now(kNow + ri::kPendingSessionTtl + 60);
  roap::Envelope resp = tx().request(*req);
  EXPECT_EQ(reg.conclude(resp), AgentStatus::kSessionExpired);
  EXPECT_EQ(reg.state(), agent::RegistrationSession::State::kFailed);
  EXPECT_FALSE(device_->has_ri_context("ri.example"));

  // The policy driver turns that signal into an automatic restart with
  // fresh nonces — the whole handshake succeeds in one run() call.
  agent::RegistrationSession retry(*device_,
                                   kNow + ri::kPendingSessionTtl + 60);
  roap::RetryPolicy policy;
  EXPECT_EQ(retry.run(tx(), policy), AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST_F(AgentExtended, StateSurvivesReboot) {
  dcf::Dcf dcf = setup_content("persist", 1200, /*count_limit=*/3);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:persist", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);  // burn one play

  Bytes image = device_->export_state();

  // "Reboot": a fresh agent object restores the secure-storage image.
  DrmAgent rebooted("blank", ca_->root_certificate(),
                    provider::plain_provider(), *rng_, 512);
  rebooted.import_state(image);

  EXPECT_EQ(rebooted.device_id(), "device-01");
  EXPECT_TRUE(rebooted.is_provisioned());
  EXPECT_TRUE(rebooted.has_ri_context("ri.example"));
  EXPECT_EQ(rebooted.installed_count(), 1u);
  // Consumption state persisted: 2 of 3 plays left.
  EXPECT_EQ(*rebooted.remaining_count("ro:persist",
                                      rel::PermissionType::kPlay),
            2u);

  // The restored agent can keep consuming with the restored K_DEV...
  EXPECT_EQ(rebooted.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  EXPECT_EQ(rebooted.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  EXPECT_EQ(rebooted.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kPermissionDenied);

  // ...and can still run new ROAP exchanges with its restored RSA key.
  dcf::Dcf more = setup_content("persist2", 600);
  auto acq2 = rebooted.acquire_ro(tx(), "ri.example", "ro:persist2", kNow);
  ASSERT_EQ(acq2, AgentStatus::kOk);
  ASSERT_EQ(rebooted.install_ro(*acq2, kNow), AgentStatus::kOk);
  EXPECT_EQ(rebooted.consume(more, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, PersistenceCoversDomains) {
  dcf::Dcf dcf = setup_content("pdom", 800, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:pdom", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);

  DrmAgent rebooted("blank", ca_->root_certificate(),
                    provider::plain_provider(), *rng_, 512);
  rebooted.import_state(device_->export_state());
  EXPECT_TRUE(rebooted.has_domain_key("domain:home"));
  EXPECT_EQ(*rebooted.domain_generation("domain:home"), 1u);
  EXPECT_EQ(rebooted.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(AgentExtended, ImportRejectsGarbage) {
  DrmAgent blank("blank", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  EXPECT_THROW(blank.import_state(to_bytes("not xml at all")), Error);
  EXPECT_THROW(blank.import_state(to_bytes("<wrong-root/>")), Error);
}

TEST_F(AgentExtended, ImportRejectsDomainGenerationPastUint32) {
  setup_content("gen", 300, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  const Bytes before = device_->export_state();

  // 2^32 + 1: a narrowing load would read it back as generation 1.
  const Bytes crafted = edit_record(before, "dom/domain:home",
                                    "generation=\"1\"",
                                    "generation=\"4294967297\"");
  EXPECT_THROW(device_->import_state(crafted), Error);
  EXPECT_EQ(device_->export_state(), before);
  EXPECT_EQ(*device_->domain_generation("domain:home"), 1u);

  // UINT32_MAX itself is a valid generation.
  DrmAgent blank("blank", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  blank.import_state(edit_record(before, "dom/domain:home",
                                 "generation=\"1\"",
                                 "generation=\"4294967295\""));
  EXPECT_EQ(*blank.domain_generation("domain:home"), 4294967295u);
}

// Persisted images are a storage format: the bytes export_state() writes
// for a fixed scenario are pinned, and an image written by the earlier
// (Element-based) encoder still imports and re-exports unchanged.
TEST_F(AgentExtended, ExportImageBytesArePinned) {
  dcf::Dcf song = setup_content("pin", 700, /*count_limit=*/3);
  setup_content("pindom", 500, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  auto device_ro = device_->acquire_ro(tx(), "ri.example", "ro:pin", kNow);
  auto domain_ro = device_->acquire_ro(tx(), "ri.example", "ro:pindom", kNow);
  ASSERT_EQ(device_ro, AgentStatus::kOk);
  ASSERT_EQ(domain_ro, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*device_ro, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*domain_ro, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->consume(song, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  const Bytes image = device_->export_state();
  EXPECT_EQ(to_hex(crypto::Sha1::hash(image)),
            "d382e1e7d210511b6eee4b8b1eb5e15abd70f432");

  const Bytes earlier = to_bytes(
#include "golden/agent_export_image.inc"
  );
  EXPECT_EQ(image, earlier);
  DrmAgent rebooted("blank", ca_->root_certificate(),
                    provider::plain_provider(), *rng_, 512);
  rebooted.import_state(earlier);
  EXPECT_EQ(rebooted.export_state(), earlier);
  EXPECT_EQ(*rebooted.remaining_count("ro:pin", rel::PermissionType::kPlay),
            2u);
  EXPECT_EQ(*rebooted.domain_generation("domain:home"), 1u);
}

TEST_F(AgentExtended, ExportImportRoundTripIsStable) {
  setup_content("stable", 300);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:stable", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);

  Bytes image1 = device_->export_state();
  DrmAgent rebooted("blank", ca_->root_certificate(),
                    provider::plain_provider(), *rng_, 512);
  rebooted.import_state(image1);
  Bytes image2 = rebooted.export_state();
  EXPECT_EQ(image1, image2);
}

// ---------------------------------------------------------------------------
// Provisioning and the content index
// ---------------------------------------------------------------------------

TEST_F(AgentExtended, ProvisionRejectsCertificateOverAnotherExponent) {
  DrmAgent fresh("device-02", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  // The device's own modulus under e = 3: every signature the device
  // makes would fail at the RI, so the certificate must not be installed.
  const rsa::PublicKey other_e(fresh.public_key().n(), Bytes{3});
  try {
    fresh.provision(ca_->issue("device-02", other_e, kValidity, *rng_));
    ADD_FAILURE() << "a certificate over another exponent was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  EXPECT_FALSE(fresh.is_provisioned());
}

TEST_F(AgentExtended, ReinstalledRoIdLeavesItsOldContentIndex) {
  // Two RIs offer the same RO id for different content: X ("ro:same" at
  // ri.example) and Y ("ro:y") bind content A, X' ("ro:same" at
  // ri2.example) binds content B.
  auto package = [&](const std::string& cid) {
    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = cid;
    h.rights_issuer_url = ri_->url();
    return ci_->package(h, rng_->bytes(400));
  };
  auto offer = [&](ri::RightsIssuer& ri, const std::string& ro_id,
                   const dcf::Dcf& dcf) {
    ri::LicenseOffer o;
    o.ro_id = ro_id;
    o.content_id = dcf.headers().content_id;
    o.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    o.permissions = {play};
    o.kcek = *ci_->kcek_for(o.content_id);
    ri.add_offer(o);
  };
  ri::RightsIssuer ri2("ri2.example", "http://ri2.example/roap", *ca_,
                       kValidity, provider::plain_provider(), *rng_);
  roap::InProcessTransport tx2(ri2, kNow);
  const dcf::Dcf a = package("cid:a@content.example");
  const dcf::Dcf b = package("cid:b@content.example");
  offer(*ri_, "ro:same", a);
  offer(*ri_, "ro:y", a);
  offer(ri2, "ro:same", b);

  store::MemoryStore store;
  ASSERT_TRUE(device_->bind_store(store).ok());
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->register_with(tx2, kNow), AgentStatus::kOk);
  auto install = [&](roap::Transport& t, const std::string& ri_id,
                     const std::string& ro_id) {
    auto ro = device_->acquire_ro(t, ri_id, ro_id, kNow);
    ASSERT_EQ(ro, AgentStatus::kOk) << ri_id << " " << ro_id;
    ASSERT_EQ(device_->install_ro(*ro, kNow), AgentStatus::kOk);
  };
  install(tx(), "ri.example", "ro:same");  // X for A
  install(tx(), "ri.example", "ro:y");     // Y for A
  install(tx2, "ri2.example", "ro:same");  // X' replaces X, for B

  auto expect_granted = [](DrmAgent& agent, const dcf::Dcf& dcf,
                           const std::string& ro_id, const char* when) {
    agent::ContentSession session =
        agent.open_content(dcf, rel::PermissionType::kPlay, kNow);
    EXPECT_EQ(session.status(), AgentStatus::kOk) << when;
    EXPECT_EQ(session.ro_id(), ro_id) << when;
  };
  expect_granted(*device_, a, "ro:y", "live");
  expect_granted(*device_, b, "ro:same", "live");

  auto reloaded =
      DrmAgent::from_store(store, device_->device_key(),
                           ca_->root_certificate(),
                           provider::plain_provider(), *rng_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.describe();
  expect_granted(*reloaded, a, "ro:y", "reloaded");
  expect_granted(*reloaded, b, "ro:same", "reloaded");
}

}  // namespace
}  // namespace omadrm
