// End-to-end integration tests: CA + Content Issuer + Rights Issuer +
// DRM Agent running the complete OMA DRM 2 consumption process, plus
// failure injection at each trust boundary.
#include <gtest/gtest.h>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "common/error.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/transport.h"

namespace omadrm {
namespace {

using agent::AgentStatus;
using agent::DrmAgent;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

/// Expensive fixtures (three RSA-1024 key generations) shared by the whole
/// suite; per-test state (offers, registrations) is layered on top.
class DrmEcosystem : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0xEC0);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ci_ = std::make_unique<ci::ContentIssuer>("content.example",
                                              provider::plain_provider(),
                                              *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity,
        provider::plain_provider(), *rng_);
    device_ = std::make_unique<DrmAgent>("device-01", ca_->root_certificate(),
                                         provider::plain_provider(), *rng_);
    device_->provision(
        ca_->issue("device-01", device_->public_key(), kValidity, *rng_));
    transport_ =
        std::make_unique<roap::InProcessTransport>(*ri_, kNow);
  }

  roap::InProcessTransport& tx() { return *transport_; }

  /// Packages `size` bytes of synthetic content and adds a play license.
  dcf::Dcf setup_content(const std::string& tag, std::size_t size,
                         std::uint32_t count_limit = 0,
                         bool domain_ro = false) {
    Bytes content = rng_->bytes(size);
    content_ = content;
    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = "cid:" + tag + "@content.example";
    h.rights_issuer_url = ri_->url();
    dcf::Dcf dcf = ci_->package(h, content);

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

TEST_F(DrmEcosystem, FullLifecycleDeviceRo) {
  dcf::Dcf dcf = setup_content("track", 50000, /*count_limit=*/3);

  // Registration establishes the RI context.
  EXPECT_FALSE(device_->has_ri_context("ri.example"));
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_TRUE(ri_->is_registered("device-01"));
  const agent::RiContext* ctx = device_->ri_context("ri.example");
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->ri_url, "http://ri.example/roap");

  // Acquisition delivers a protected RO.
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:track", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  EXPECT_FALSE(acq->is_domain_ro);
  EXPECT_TRUE(acq->signature.empty());  // device ROs unsigned by default

  // Installation re-wraps the keys under K_DEV.
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->installed_count(), 1u);
  EXPECT_EQ(*device_->remaining_count("ro:track", rel::PermissionType::kPlay),
            3u);

  // Consumption: three grants, then the count is exhausted.
  for (int i = 0; i < 3; ++i) {
    agent::ConsumeResult r =
        device_->consume(dcf, rel::PermissionType::kPlay, kNow + 100 + i);
    ASSERT_EQ(r.status, AgentStatus::kOk) << "play " << i;
    EXPECT_EQ(r.content, content_);
  }
  agent::ConsumeResult denied =
      device_->consume(dcf, rel::PermissionType::kPlay, kNow + 200);
  EXPECT_EQ(denied.status, AgentStatus::kPermissionDenied);
  EXPECT_EQ(denied.decision, rel::Decision::kCountExhausted);
}

TEST_F(DrmEcosystem, AcquisitionRequiresRegistration) {
  setup_content("gated", 1000);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:gated", kNow);
  EXPECT_EQ(acq, AgentStatus::kNoRiContext);
}

TEST_F(DrmEcosystem, RiRejectsUnregisteredDeviceServerSide) {
  setup_content("gate2", 1000);
  roap::RoRequest req;
  req.device_id = "ghost-device";
  req.ri_id = ri_->ri_id();
  req.ro_id = "ro:gate2";
  req.device_nonce = rng_->bytes(roap::kNonceLen);
  req.signature = Bytes(128, 0);
  // Server-side requests now enter through the uniform envelope dispatch.
  roap::RoResponse resp = ri_->handle(roap::Envelope::wrap(req), kNow)
                              .open<roap::RoResponse>();
  EXPECT_EQ(resp.status, roap::Status::kNotRegistered);
}

TEST_F(DrmEcosystem, UnknownRoIdReported) {
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:nonexistent", kNow);
  EXPECT_EQ(acq, AgentStatus::kUnknownRoId);  // merged RI-reported status
}

TEST_F(DrmEcosystem, RevokedDeviceCannotRegister) {
  setup_content("revoked", 1000);
  ca_->revoke(device_->certificate().serial());
  EXPECT_EQ(device_->register_with(tx(), kNow), AgentStatus::kRiAborted);
  EXPECT_FALSE(ri_->is_registered("device-01"));
}

TEST_F(DrmEcosystem, DeviceRevokedAfterRegisteringIsRefusedService) {
  // The RI revalidates a registered device before it serves it, so a
  // device the CA revokes after registering gets no RO and no domain key.
  setup_content("late-revoke", 1000);
  ri_->create_domain("domain:late-revoke");
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->acquire_ro(tx(), "ri.example", "ro:late-revoke", kNow),
            AgentStatus::kOk);
  const ri::RiCounters before = ri_->counters();

  ca_->revoke(device_->certificate().serial());
  EXPECT_EQ(device_->acquire_ro(tx(), "ri.example", "ro:late-revoke", kNow),
            AgentStatus::kRiAborted);
  EXPECT_EQ(device_->join_domain(tx(), "ri.example", "domain:late-revoke",
                                 kNow),
            AgentStatus::kRiAborted);
  // Refused again from the verifier's denylist.
  EXPECT_EQ(device_->acquire_ro(tx(), "ri.example", "ro:late-revoke", kNow),
            AgentStatus::kRiAborted);
  EXPECT_EQ(ri_->counters().ros_issued, before.ros_issued);
  EXPECT_EQ(ri_->counters().domain_joins, before.domain_joins);
}

TEST_F(DrmEcosystem, ExpiredDeviceCertificateRejected) {
  // Register far past the certificate's validity (server clock too).
  tx().set_now(kValidity.not_after + 1000);
  EXPECT_EQ(device_->register_with(tx(), kValidity.not_after + 1000),
            AgentStatus::kRiAborted);
}

TEST_F(DrmEcosystem, UnprovisionedAgentCannotRegister) {
  DrmAgent fresh("device-02", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  EXPECT_EQ(fresh.register_with(tx(), kNow), AgentStatus::kNotProvisioned);
}

TEST_F(DrmEcosystem, ForeignCaDeviceRejected) {
  // A device certified by a different root must not register.
  pki::CertificationAuthority other_ca("Rogue CA", 1024, kValidity, *rng_);
  DrmAgent rogue("rogue-01", other_ca.root_certificate(),
                 provider::plain_provider(), *rng_);
  rogue.provision(
      other_ca.issue("rogue-01", rogue.public_key(), kValidity, *rng_));
  EXPECT_EQ(rogue.register_with(tx(), kNow), AgentStatus::kRiAborted);
}

TEST_F(DrmEcosystem, TamperedRoFailsMacCheck) {
  dcf::Dcf dcf = setup_content("mac", 1000);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:mac", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);

  roap::ProtectedRo tampered = *acq;
  tampered.rights.content_id = "cid:other@content.example";
  EXPECT_EQ(device_->install_ro(tampered, kNow), AgentStatus::kMacMismatch);

  roap::ProtectedRo bad_mac = *acq;
  bad_mac.mac[0] ^= 1;
  EXPECT_EQ(device_->install_ro(bad_mac, kNow), AgentStatus::kMacMismatch);

  roap::ProtectedRo bad_keys = *acq;
  bad_keys.wrapped_keys[140] ^= 1;  // inside C2
  EXPECT_EQ(device_->install_ro(bad_keys, kNow), AgentStatus::kUnwrapFailed);
}

TEST_F(DrmEcosystem, RoForAnotherDeviceCannotBeInstalled) {
  setup_content("stolen", 1000);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:stolen", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);

  DrmAgent thief("thief-01", ca_->root_certificate(),
                 provider::plain_provider(), *rng_);
  thief.provision(
      ca_->issue("thief-01", thief.public_key(), kValidity, *rng_));
  ASSERT_EQ(thief.register_with(tx(), kNow), AgentStatus::kOk);
  // C1 was encrypted for device-01's key; the thief's RSADP yields a wrong
  // KEK and the AES-UNWRAP integrity check catches it.
  EXPECT_EQ(thief.install_ro(*acq, kNow), AgentStatus::kUnwrapFailed);
}

TEST_F(DrmEcosystem, TamperedDcfFailsHashCheck) {
  dcf::Dcf dcf = setup_content("hash", 2000);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:hash", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);

  Bytes wire = dcf.serialize();
  wire[wire.size() - 1] ^= 1;  // flip a payload byte
  dcf::Dcf tampered = dcf::Dcf::parse(wire);
  agent::ConsumeResult r =
      device_->consume(tampered, rel::PermissionType::kPlay, kNow);
  EXPECT_EQ(r.status, AgentStatus::kDcfHashMismatch);

  // The original still plays.
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(DrmEcosystem, ConsumeWithoutInstalledRo) {
  dcf::Dcf dcf = setup_content("orphan", 500);
  agent::ConsumeResult r =
      device_->consume(dcf, rel::PermissionType::kPlay, kNow);
  EXPECT_EQ(r.status, AgentStatus::kNotInstalled);
}

TEST_F(DrmEcosystem, PermissionTypeEnforced) {
  dcf::Dcf dcf = setup_content("playonly", 500);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:playonly", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  agent::ConsumeResult r =
      device_->consume(dcf, rel::PermissionType::kPrint, kNow);
  EXPECT_EQ(r.status, AgentStatus::kPermissionDenied);
  EXPECT_EQ(r.decision, rel::Decision::kNoSuchPermission);
}

TEST_F(DrmEcosystem, DomainRoSharedAcrossDevices) {
  dcf::Dcf dcf = setup_content("shared", 3000, 0, /*domain_ro=*/true);

  // First device joins the domain and installs the RO.
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  EXPECT_TRUE(device_->has_domain_key("domain:home"));
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:shared", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_TRUE(acq->is_domain_ro);
  ASSERT_FALSE(acq->signature.empty());  // mandatory for domain ROs
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  // Second device: registers, joins the same domain, and can install the
  // *same* Rights Object without contacting the RI about it again.
  DrmAgent second("device-02", ca_->root_certificate(),
                  provider::plain_provider(), *rng_);
  second.provision(
      ca_->issue("device-02", second.public_key(), kValidity, *rng_));
  ASSERT_EQ(second.register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(second.join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  ASSERT_EQ(second.install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(second.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  // A device outside the domain cannot install it.
  DrmAgent outsider("device-03", ca_->root_certificate(),
                    provider::plain_provider(), *rng_);
  outsider.provision(
      ca_->issue("device-03", outsider.public_key(), kValidity, *rng_));
  ASSERT_EQ(outsider.register_with(tx(), kNow), AgentStatus::kOk);
  EXPECT_EQ(outsider.install_ro(*acq, kNow), AgentStatus::kNoDomainKey);
}

TEST_F(DrmEcosystem, DomainRoRequiresMembershipAtRi) {
  setup_content("members", 1000, 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  // Not a member yet: the RI refuses to deliver the domain RO.
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:members", kNow);
  EXPECT_EQ(acq, AgentStatus::kAccessDenied);  // merged RI-reported status
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  EXPECT_EQ(device_->acquire_ro(tx(), "ri.example", "ro:members", kNow),
            AgentStatus::kOk);
}

TEST_F(DrmEcosystem, DomainMemberLimit) {
  ri_->create_domain("domain:tiny", /*max_members=*/1);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:tiny", kNow),
            AgentStatus::kOk);

  DrmAgent second("device-02", ca_->root_certificate(),
                  provider::plain_provider(), *rng_);
  second.provision(
      ca_->issue("device-02", second.public_key(), kValidity, *rng_));
  ASSERT_EQ(second.register_with(tx(), kNow), AgentStatus::kOk);
  EXPECT_EQ(second.join_domain(tx(), "ri.example", "domain:tiny", kNow),
            AgentStatus::kAccessDenied);
  // Re-joining as an existing member is idempotent.
  EXPECT_EQ(device_->join_domain(tx(), "ri.example", "domain:tiny", kNow),
            AgentStatus::kOk);
}

TEST_F(DrmEcosystem, SignedDeviceRoVerifiedAtInstall) {
  dcf::Dcf dcf = setup_content("signed", 800);
  ri_->set_sign_device_ros(true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:signed", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_FALSE(acq->signature.empty());
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);

  roap::ProtectedRo bad = *acq;
  bad.signature[5] ^= 1;
  EXPECT_EQ(device_->install_ro(bad, kNow),
            AgentStatus::kRoSignatureInvalid);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(DrmEcosystem, MultipleRosForSameContent) {
  // Two licenses for one DCF: a 1-play RO and an unlimited RO. When the
  // first is exhausted the agent falls through to the second (§2.4.3:
  // "there might be more than one Rights Object for a DCF").
  dcf::Dcf dcf = setup_content("multi", 600, /*count_limit=*/1);
  ri::LicenseOffer second_offer;
  second_offer.ro_id = "ro:multi-unlimited";
  second_offer.content_id = dcf.headers().content_id;
  second_offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  second_offer.permissions = {play};
  second_offer.kcek = *ci_->kcek_for(dcf.headers().content_id);
  ri_->add_offer(second_offer);

  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  for (const char* ro_id : {"ro:multi", "ro:multi-unlimited"}) {
    auto acq = device_->acquire_ro(tx(), "ri.example", ro_id, kNow);
    ASSERT_EQ(acq, AgentStatus::kOk);
    ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  }
  // First play consumes the limited RO, every later play the unlimited one.
  for (int i = 0; i < 4; ++i) {
    agent::ConsumeResult r =
        device_->consume(dcf, rel::PermissionType::kPlay, kNow + i);
    ASSERT_EQ(r.status, AgentStatus::kOk) << i;
    EXPECT_EQ(r.content, content_);
  }
  EXPECT_EQ(*device_->remaining_count("ro:multi", rel::PermissionType::kPlay),
            0u);
}

TEST_F(DrmEcosystem, ReinstallResetsState) {
  dcf::Dcf dcf = setup_content("reinstall", 400, /*count_limit=*/1);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:reinstall", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kPermissionDenied);
  // Re-installing the same RO resets its (device-local) usage state.
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->installed_count(), 1u);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

// Writer -> parse_in -> from_node: the RO's standalone XML wire form.
roap::ProtectedRo round_trip(const roap::ProtectedRo& ro) {
  std::string wire;
  xml::Writer w(wire);
  ro.write(w);
  xml::Arena arena;
  return roap::ProtectedRo::from_node(xml::parse_in(arena, wire));
}

TEST_F(DrmEcosystem, RoSurvivesXmlTransport) {
  // The protected RO round-trips through its XML wire form and still
  // installs and plays — proving the whole chain is carried in-band.
  dcf::Dcf dcf = setup_content("wire", 1200);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:wire", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);

  roap::ProtectedRo reparsed = round_trip(*acq);
  ASSERT_EQ(device_->install_ro(reparsed, kNow), AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

}  // namespace
}  // namespace omadrm
