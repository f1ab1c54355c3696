// Pins the exact bytes a seeded RightsIssuer answers with: the SHA-1 of
// every response wire handle() produces over one scripted run through all
// five request types and every outcome (success, device and domain ROs,
// kSessionExpired, kAbort, kSignatureInvalid, kNotRegistered,
// kUnknownRoId, kAccessDenied and kStoreFailure refusals), the RSA
// operations the RI ran for each, and the SHA-1 of the bound store's
// record image afterwards.
//
// Everything draws from one DeterministicRng, so a digest moves when the
// wire format, the RNG draw order, the RSA work or the persisted state
// of any exchange moves. A refactor of the RI that changes none of those
// keeps this test green unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/sha1.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "roap/transport.h"
#include "store/memory_store.h"

namespace omadrm {
namespace {

using agent::DrmAgent;
using roap::Envelope;
using roap::Status;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};
const std::string kRi = "ri.example";
const std::string kHome = "domain:home";

std::string sha1_hex(std::string_view bytes) {
  return to_hex(crypto::Sha1::hash(ByteView(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size())));
}

Status status_of(const Envelope& response) {
  switch (response.type()) {
    case roap::MessageType::kRiHello:
      return response.open<roap::RiHello>().status;
    case roap::MessageType::kRegistrationResponse:
      return response.open<roap::RegistrationResponse>().status;
    case roap::MessageType::kRoResponse:
      return response.open<roap::RoResponse>().status;
    case roap::MessageType::kJoinDomainResponse:
      return response.open<roap::JoinDomainResponse>().status;
    default:
      return response.open<roap::LeaveDomainResponse>().status;
  }
}

/// Counts the RSA operations the RI runs.
class CountingProvider final : public provider::PlainCryptoProvider {
 public:
  Bytes pss_sign(const rsa::PrivateKey& key, ByteView message,
                 Rng& rng) override {
    ++signs;
    return PlainCryptoProvider::pss_sign(key, message, rng);
  }
  bool pss_verify(const rsa::PublicKey& key, ByteView message,
                  ByteView signature) override {
    ++verifies;
    return PlainCryptoProvider::pss_verify(key, message, signature);
  }
  rsa::KemEncapsulation kem_encapsulate(const rsa::PublicKey& key,
                                        Rng& rng) override {
    ++encapsulations;
    return PlainCryptoProvider::kem_encapsulate(key, rng);
  }

  /// "signs/verifies/encapsulations" so far.
  std::string tally() const {
    return std::to_string(signs) + "/" + std::to_string(verifies) + "/" +
           std::to_string(encapsulations);
  }

  int signs = 0;
  int verifies = 0;
  int encapsulations = 0;
};

/// One response handle() produced.
struct Seen {
  Status status;
  std::string rsa;   // the RI's RSA operations for it, as tally() counts
  std::string sha1;  // of the response wire
};

/// Loopback onto handle() that remembers every response.
class RecordingTransport final : public roap::Transport {
 public:
  RecordingTransport(ri::RightsIssuer& ri, CountingProvider& crypto)
      : ri_(ri), crypto_(crypto) {}

  Envelope request(const Envelope& request) override {
    crypto_.signs = crypto_.verifies = crypto_.encapsulations = 0;
    Envelope response = ri_.handle(request, kNow);
    seen.push_back(
        {status_of(response), crypto_.tally(), sha1_hex(response.wire())});
    return response;
  }

  std::vector<Seen> seen;

 private:
  ri::RightsIssuer& ri_;
  CountingProvider& crypto_;
};

class RiPinnedBytes : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0x5EA1);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity, crypto_,
        *rng_);
    ASSERT_TRUE(ri_->bind_store(store_).ok());
    // One member at most, so a second device finds the domain full.
    ri_->create_domain("domain:home", /*max_members=*/1);
    add_offer("ro:song", /*domain_ro=*/false);
    add_offer("ro:album", /*domain_ro=*/true);
    alice_ = make_agent("device-alice");
    bob_ = make_agent("device-bob");
    wire_ = std::make_unique<RecordingTransport>(*ri_, crypto_);
  }

  void add_offer(const std::string& ro_id, bool domain_ro) {
    ri::LicenseOffer offer;
    offer.ro_id = ro_id;
    offer.content_id = "cid:" + ro_id + "@content.example";
    offer.dcf_hash = Bytes(20, 0x42);
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = rng_->bytes(16);
    offer.domain_ro = domain_ro;
    if (domain_ro) offer.domain_id = "domain:home";
    ri_->add_offer(std::move(offer));
  }

  std::unique_ptr<DrmAgent> make_agent(const std::string& id) {
    auto agent = std::make_unique<DrmAgent>(id, ca_->root_certificate(),
                                            provider::plain_provider(), *rng_);
    agent->provision(ca_->issue(id, agent->public_key(), kValidity, *rng_));
    return agent;
  }

  /// Sends `request` through the recording loopback; returns the status
  /// the response carries.
  template <typename Response>
  Status send(const Envelope& request) {
    return wire_->request(request).open<Response>().status;
  }

  /// A signed RoRequest from `agent`, with `edit` applied to the message.
  template <typename Edit>
  Envelope edited_ro_request(DrmAgent& agent, const std::string& ro_id,
                             Edit&& edit) {
    agent::AcquisitionSession session(agent, "ri.example", ro_id, kNow);
    auto req = session.request();
    EXPECT_TRUE(req.ok()) << req.describe();
    roap::RoRequest msg = req->open<roap::RoRequest>();
    edit(msg);
    return Envelope::wrap(msg);
  }

  store::MemoryStore store_;
  CountingProvider crypto_;
  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<DrmAgent> alice_;
  std::unique_ptr<DrmAgent> bob_;
  std::unique_ptr<RecordingTransport> wire_;
};

TEST_F(RiPinnedBytes, EveryResponseWireAndTheStoreImageAreUnchanged) {
  RecordingTransport& wire = *wire_;

  // Registration (DeviceHello + RegistrationRequest), both successes.
  ASSERT_TRUE(alice_->register_with(wire, kNow).ok());

  // RoRequest: a Device RO, then a Domain RO refused to a non-member.
  ASSERT_TRUE(alice_->acquire_ro(wire, kRi, "ro:song", kNow).ok());
  EXPECT_FALSE(alice_->acquire_ro(wire, kRi, "ro:album", kNow).ok());

  // JoinDomainRequest, then the Domain RO the member now gets.
  ASSERT_TRUE(alice_->join_domain(wire, kRi, kHome, kNow).ok());
  ASSERT_TRUE(alice_->acquire_ro(wire, kRi, "ro:album", kNow).ok());

  // RoRequest refusals: a signature that does not verify, an
  // unregistered device, an unknown RO id.
  EXPECT_EQ(send<roap::RoResponse>(edited_ro_request(
                *alice_, "ro:song",
                [](roap::RoRequest& m) { m.ro_id = "ro:other"; })),
            Status::kSignatureInvalid);
  EXPECT_EQ(send<roap::RoResponse>(edited_ro_request(
                *alice_, "ro:song",
                [](roap::RoRequest& m) { m.device_id = "device-ghost"; })),
            Status::kNotRegistered);
  EXPECT_FALSE(alice_->acquire_ro(wire, kRi, "ro:none", kNow).ok());

  // Registration refusals for a second device: a wrong RI nonce (the
  // session survives it), an unknown session, then the real request.
  agent::RegistrationSession reg(*bob_, kNow);
  auto hello = reg.hello();
  ASSERT_TRUE(hello.ok());
  const Envelope ri_hello = wire.request(*hello);
  auto rr = reg.request(ri_hello);
  ASSERT_TRUE(rr.ok()) << rr.describe();
  roap::RegistrationRequest bad_nonce = rr->open<roap::RegistrationRequest>();
  bad_nonce.ri_nonce[0] ^= 0x01;
  EXPECT_EQ(send<roap::RegistrationResponse>(Envelope::wrap(bad_nonce)),
            Status::kAbort);
  roap::RegistrationRequest gone = rr->open<roap::RegistrationRequest>();
  gone.session_id += "-gone";
  EXPECT_EQ(send<roap::RegistrationResponse>(Envelope::wrap(gone)),
            Status::kSessionExpired);
  const Envelope registered = wire.request(*rr);
  ASSERT_TRUE(reg.conclude(registered).ok());

  // JoinDomainRequest refused: the one-member domain is full.
  EXPECT_FALSE(bob_->join_domain(wire, kRi, kHome, kNow).ok());

  // kStoreFailure refusals, one per message type that persists.
  agent::RegistrationSession again(*bob_, kNow);
  auto again_hello = again.hello();
  ASSERT_TRUE(again_hello.ok());
  store_.fail_next_commits(1);
  EXPECT_EQ(send<roap::RiHello>(*again_hello), Status::kStoreFailure);
  auto again_rr = again.request(wire.request(*again_hello));
  ASSERT_TRUE(again_rr.ok()) << again_rr.describe();
  store_.fail_next_commits(1);
  EXPECT_EQ(send<roap::RegistrationResponse>(*again_rr),
            Status::kStoreFailure);
  store_.fail_next_commits(1);
  EXPECT_FALSE(alice_->leave_domain(wire, kRi, kHome, kNow).ok());
  store_.fail_next_commits(1);
  EXPECT_FALSE(alice_->join_domain(wire, kRi, kHome, kNow).ok());

  // A revoked device gets no RO and no join (kAbort), but may still leave.
  ca_->revoke(alice_->certificate().serial());
  EXPECT_FALSE(alice_->acquire_ro(wire, kRi, "ro:song", kNow).ok());
  EXPECT_FALSE(alice_->join_domain(wire, kRi, kHome, kNow).ok());
  ASSERT_TRUE(alice_->leave_domain(wire, kRi, kHome, kNow).ok());

  struct Pin {
    const char* step;
    Status status;
    const char* rsa;  // signs/verifies/encapsulations
    const char* sha1;
  };
  const std::vector<Pin> pinned = {
      {"hello", Status::kSuccess, "0/0/0",
       "f3eaa81d05bd8fc7ef27a7f8cff4a769b49c841a"},
      {"registration", Status::kSuccess, "2/2/0",
       "d80f2bf5ae4c11b7af8b67b16a8eda10760fe286"},
      {"ro device", Status::kSuccess, "1/1/1",
       "cf3d2931c5efcecb0b034449f989bc775b850a67"},
      {"ro domain, not a member", Status::kAccessDenied, "0/1/0",
       "9d66bc255248379563485474b681f80f504c138b"},
      {"join", Status::kSuccess, "1/1/1",
       "fa8a6019a0ec67605cf335d047a64ae2109de80e"},
      {"ro domain", Status::kSuccess, "2/1/0",
       "67e48286b78f42dcb729f885ba982b15e550aaf6"},
      {"ro signature invalid", Status::kSignatureInvalid, "0/1/0",
       "93f8e126cf3431083f6f7dbe73b55c3f9c60bff7"},
      {"ro not registered", Status::kNotRegistered, "0/0/0",
       "0e4e9e089e0059ba8e563569cc41a687eabd339f"},
      {"ro unknown ro id", Status::kUnknownRoId, "0/1/0",
       "54bdf0f31db035920552c62d9cbfd5e9b15173d4"},
      {"hello bob", Status::kSuccess, "0/0/0",
       "7f825f0d8d5adbba05d40e5694345eed86dc17d4"},
      {"registration wrong nonce", Status::kAbort, "0/0/0",
       "feb7a50031b7bb57bb820dd24a1afdcd11fa8eb4"},
      {"registration session expired", Status::kSessionExpired, "0/0/0",
       "b021519fa7a3e978ed19248e42d6ef7f8246c90d"},
      {"registration bob", Status::kSuccess, "2/2/0",
       "0a3dc7913a12035db26532c4e1100bcfc2e10d45"},
      {"join full domain", Status::kAccessDenied, "0/1/0",
       "7f983f9e9c50a8b58ecf8ab02c090167f418d34b"},
      {"hello store failure", Status::kStoreFailure, "0/0/0",
       "d700c59900a825c8df6bbda46e855c153a2d818a"},
      {"hello bob again", Status::kSuccess, "0/0/0",
       "5a8397c9f6b1d380124c571372d6c390339b61eb"},
      {"registration store failure", Status::kStoreFailure, "0/1/0",
       "1bad0781b82152e867eab3b62cead1ad4733186d"},
      {"leave store failure", Status::kStoreFailure, "0/1/0",
       "7c37912d352e565e2868da77f0ad48b618d909f9"},
      {"join store failure", Status::kStoreFailure, "0/1/0",
       "dabf19179ac5e4b9eba232f59885b6fc3f4b4dcf"},
      {"ro revoked", Status::kAbort, "0/0/0",
       "db2469183bd2a611a26a4a33c2b7fee5628a3bc8"},
      {"join revoked", Status::kAbort, "0/0/0",
       "2097aeb3560c14938f46a4432c2361d73c373fb1"},
      {"leave revoked", Status::kSuccess, "1/1/0",
       "b5748164e170ae6e993520b38c97d134dde18b5c"},
  };
  ASSERT_EQ(wire.seen.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(wire.seen[i].status, pinned[i].status) << pinned[i].step;
    EXPECT_EQ(wire.seen[i].rsa, pinned[i].rsa) << pinned[i].step;
    EXPECT_EQ(wire.seen[i].sha1, pinned[i].sha1) << pinned[i].step;
  }

  // The bound store's record image after the run.
  auto records = store_.load();
  ASSERT_TRUE(records.ok());
  std::string image;
  for (const store::Record& rec : *records) {
    image += rec.key;
    image += '=';
    image += to_hex(rec.value);
    image += '\n';
  }
  EXPECT_EQ(records->size(), 5u);
  EXPECT_EQ(sha1_hex(image), "aadea9f0bbe22e7a0e96bca12c918249f42cb399");
}

}  // namespace
}  // namespace omadrm
