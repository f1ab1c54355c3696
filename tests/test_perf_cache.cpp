// Tests for the ROAP hot-path reuse: per-key Montgomery contexts (rsa
// layer), chain verdicts held beside the chains they cover (pki layer),
// and their wiring into the DRM Agent / Rights Issuer — including the
// metered-op accounting that shows an accepted held verdict costs zero
// RSA operations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/content_session.h"
#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "dcf/dcf.h"
#include "bigint/montgomery.h"
#include "common/error.h"
#include "common/random.h"
#include "model/arch.h"
#include "model/ledger.h"
#include "model/metered.h"
#include "pki/authority.h"
#include "pki/chain.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "roap/transport.h"
#include "rsa/pss.h"
#include "rsa/rsa.h"
#include "oracle/bigint.h"
#include "oracle/mont_bigint.h"
#include "oracle/rsa_bigint.h"
#include "store/memory_store.h"

namespace omadrm {
namespace {

using bigint::BigInt;
using bigint::MontgomeryCtx;
using bigint::mont_test::mod_exp;
using bigint::mont_test::words_of;
using Chain = std::vector<pki::Certificate>;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

// ---------------------------------------------------------------------------
// Montgomery / RSA edge cases
// ---------------------------------------------------------------------------

const BigInt kOddModulus("0xb4c1f68f9a3d2e155f0e3a4d8b92c671");

TEST(MontgomeryEdge, EvenModulusRejected) {
  EXPECT_THROW(MontgomeryCtx(words_of(BigInt(std::uint64_t{100}))), Error);
  EXPECT_THROW(MontgomeryCtx(words_of(BigInt{})), Error);
  EXPECT_THROW(MontgomeryCtx(words_of(BigInt(-7))), Error);
}

TEST(MontgomeryEdge, ExponentZeroIsOne) {
  MontgomeryCtx ctx(words_of(kOddModulus));
  EXPECT_EQ(mod_exp(ctx, BigInt(std::uint64_t{12345}), BigInt{}),
            BigInt(std::uint64_t{1}));
  // 0^0 == 1 by the PKCS#1 convention the generic path follows too.
  EXPECT_EQ(mod_exp(ctx, BigInt{}, BigInt{}), BigInt(std::uint64_t{1}));
  // Degenerate modulus 1: everything is congruent to 0.
  MontgomeryCtx one(words_of(BigInt(std::uint64_t{1})));
  EXPECT_TRUE(mod_exp(one, BigInt{}, BigInt{}).is_zero());
}

TEST(MontgomeryEdge, BaseZero) {
  MontgomeryCtx ctx(words_of(kOddModulus));
  EXPECT_TRUE(mod_exp(ctx, BigInt{}, BigInt(std::uint64_t{17})).is_zero());
  EXPECT_TRUE(
      mod_exp(ctx, BigInt{}, BigInt("0x10001000100010001")).is_zero());
}

TEST(MontgomeryEdge, BaseMinusOne) {
  MontgomeryCtx ctx(words_of(kOddModulus));
  const BigInt minus_one = kOddModulus - BigInt(std::uint64_t{1});
  // (m-1)^even == 1, (m-1)^odd == m-1 (mod m).
  EXPECT_EQ(mod_exp(ctx, minus_one, BigInt(std::uint64_t{2})),
            BigInt(std::uint64_t{1}));
  EXPECT_EQ(mod_exp(ctx, minus_one, BigInt(std::uint64_t{65537})), minus_one);
  const BigInt big_even("0x1000000000000000000000000000");
  EXPECT_EQ(mod_exp(ctx, minus_one, big_even), BigInt(std::uint64_t{1}));
}

TEST(MontgomeryEdge, ShortAndLongExponentPathsAgree) {
  // 65537 rides the plain square-and-multiply path, big exponents the
  // 4-bit window; both must agree with the naive reference.
  DeterministicRng rng(0x5EED);
  MontgomeryCtx ctx(words_of(kOddModulus));
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::random_below(kOddModulus, rng);
    BigInt short_exp(std::uint64_t{65537});
    BigInt long_exp = BigInt::random_below(kOddModulus, rng);
    // Naive reference: square-and-multiply over plain arithmetic.
    auto reference = [&](const BigInt& b, const BigInt& e) {
      BigInt result(std::uint64_t{1});
      for (std::size_t bit = e.bit_length(); bit-- > 0;) {
        result = (result * result).mod(kOddModulus);
        if (e.bit(bit)) result = (result * b).mod(kOddModulus);
      }
      return result;
    };
    EXPECT_EQ(mod_exp(ctx, base, short_exp), reference(base, short_exp));
    EXPECT_EQ(mod_exp(ctx, base, long_exp), reference(base, long_exp));
  }
}

// ---------------------------------------------------------------------------
// Per-key Montgomery contexts: built when a key is constructed, shared by
// its copies
// ---------------------------------------------------------------------------

std::uint64_t builds() { return bigint::montgomery_ctx_builds(); }

const rsa::PrivateKey& slot_key() {
  static const rsa::PrivateKey key = [] {
    DeterministicRng rng(0x510);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

TEST(KeyForm, ConstructionBuildsEachContextOnce) {
  const rsa::PublicKey& source = slot_key().public_key();
  std::uint64_t b0 = builds();
  const rsa::PublicKey pub(source.n(), source.e());
  EXPECT_EQ(builds() - b0, 1u);  // n
  const rsa::PrivateKey priv(pub, slot_key().d(), slot_key().p(),
                             slot_key().q(), slot_key().dp(), slot_key().dq(),
                             slot_key().qinv());
  EXPECT_EQ(builds() - b0, 3u);  // p and q; n is the public key's

  b0 = builds();
  const BigInt m(std::uint64_t{0x1234567});
  const BigInt c = rsa::rsaep(pub, m);
  EXPECT_EQ(rsa::rsaep(pub, m), c);
  EXPECT_EQ(rsa::rsadp(priv, c), m);
  EXPECT_EQ(rsa::rsadp(slot_key(), c), m);
  EXPECT_EQ(builds() - b0, 0u);
}

TEST(KeyForm, CopyBuildsNoContext) {
  rsa::PublicKey pub = slot_key().public_key();
  rsa::PrivateKey priv = slot_key();
  const BigInt m(std::uint64_t{42});
  const BigInt c = rsa::rsaep(pub, m);
  ASSERT_EQ(rsa::rsadp(priv, c), m);

  const std::uint64_t b0 = builds();
  rsa::PublicKey pub_copy = pub;
  rsa::PrivateKey priv_copy = priv;
  EXPECT_EQ(rsa::rsaep(pub_copy, m), c);
  EXPECT_EQ(rsa::rsadp(priv_copy, c), m);
  rsa::PublicKey pub_moved = std::move(pub);
  rsa::PrivateKey priv_moved = std::move(priv);
  EXPECT_EQ(rsa::rsaep(pub_moved, m), c);
  EXPECT_EQ(rsa::rsadp(priv_moved, c), m);
  pub_copy = pub_moved;
  priv_copy = priv_moved;
  EXPECT_EQ(rsa::rsaep(pub_copy, m), c);
  EXPECT_EQ(rsa::rsadp(priv_copy, c), m);
  EXPECT_EQ(rsa::rsaep(priv_copy.public_key(), m), c);
  EXPECT_EQ(builds() - b0, 0u);
}

// A certificate in the profile whose subject key is (n, 65537), issued
// by `ca`: the CA signs whatever key it is handed, so the certificate's
// own signature verifies.
pki::Certificate hostile_cert(pki::CertificationAuthority& ca,
                              const BigInt& n, Rng& rng) {
  const rsa::PublicKey key(n.to_bytes_be(), Bytes{1, 0, 1});
  return ca.issue("dev:hostile", key, kValidity, rng);
}

TEST(RsaEdge, HostileEvenModulusFailsVerificationGracefully) {
  // A crafted certificate can carry an even RSA modulus, or one wider
  // than the 4096-bit RSA path; that must come back as a failed
  // verification, not as a thrown Montgomery error that unwinds through
  // the ROAP handlers.
  const BigInt one(1);
  const BigInt even = one << 512;
  const BigInt wide = (one << 4159) + one;  // 4160 bits, odd
  const rsa::PublicKey evil(even.to_bytes_be(), Bytes{1, 0, 1});
  Bytes message{1, 2, 3};
  Bytes signature(evil.byte_length(), 0x42);
  EXPECT_FALSE(rsa::pss_verify(evil, message, signature));
  EXPECT_THROW(rsa::rsaep(evil, BigInt(3)), Error);
  EXPECT_THROW(rsa::PrivateKey(evil, Bytes{1}), Error);

  // The same keys in CA-signed certificates: each decodes, keeps its
  // numbers for re-encoding, verifies no signature, and a RightsIssuer
  // handed one in a RegistrationRequest answers kSignatureInvalid (its
  // answer before keys held limbs), without throwing.
  DeterministicRng rng(0xE0E);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  ri::RightsIssuer ri("ri:e", "http://ri/roap", ca, kValidity,
                      provider::plain_provider(), rng, nullptr, 512);
  agent::DrmAgent dev("dev:e", ca.root_certificate(),
                      provider::plain_provider(), rng, 512);
  dev.provision(ca.issue("dev:e", dev.public_key(), kValidity, rng));
  for (const BigInt& n : {even, wide}) {
    const pki::Certificate cert = hostile_cert(ca, n, rng);
    const pki::Certificate decoded = pki::Certificate::from_der(cert.to_der());
    EXPECT_EQ(decoded.to_der(), cert.to_der());
    EXPECT_EQ(rsa::os2ip(decoded.subject_key().n()), n);
    EXPECT_EQ(decoded.subject_key().bit_length(), n.bit_length());
    const pki::ChainVerifier verifier(ca.root_certificate(),
                                      provider::plain_provider());
    EXPECT_EQ(
        verifier.verify(std::span<const pki::Certificate>(&decoded, 1), kNow)
            .status,
        pki::CertStatus::kValid);
    EXPECT_FALSE(rsa::pss_verify(
        decoded.subject_key(), message,
        Bytes(decoded.subject_key().byte_length(), 0x42)));

    agent::RegistrationSession session(dev, kNow);
    auto hello = session.hello();
    ASSERT_TRUE(hello.ok());
    auto request = session.request(ri.handle(*hello, kNow));
    ASSERT_TRUE(request.ok());
    auto forged = request->open<roap::RegistrationRequest>();
    forged.certificate_der = cert.to_der();
    auto response = ri.handle(roap::Envelope::wrap(forged), kNow)
                        .open<roap::RegistrationResponse>();
    EXPECT_EQ(response.status, roap::Status::kSignatureInvalid)
        << n.bit_length();
  }
}

TEST(RsaCrt, CrtAndPlainPathsAgree) {
  DeterministicRng rng(0xC47);
  rsa::PrivateKey key = rsa::generate_key(512, rng);
  ASSERT_TRUE(key.has_crt());
  const rsa::PrivateKey plain(key.public_key(), key.d());
  ASSERT_FALSE(plain.has_crt());
  EXPECT_TRUE(plain.p().empty());

  BigInt c = BigInt::random_below(rsa::os2ip(key.public_key().n()), rng);
  EXPECT_EQ(rsa::rsadp(key, c), rsa::rsadp(plain, c));
  EXPECT_EQ(rsa::rsadp(key, c), rsa::rsadp(plain, c));
  // Round trip through the public primitive.
  EXPECT_EQ(rsa::rsaep(key.public_key(), rsa::rsadp(key, c)), c);
}

// ---------------------------------------------------------------------------
// Chain verifier: RSA operations charged per walk, none per accepted
// held verdict
// ---------------------------------------------------------------------------

class ChainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0xCAFE);
    ca_ = std::make_unique<pki::CertificationAuthority>("Root", 512,
                                                        kValidity, *rng_);
    ica_ = std::make_unique<pki::SubordinateAuthority>("Mid", 512, *ca_,
                                                       kValidity, *rng_);
    leaf_key_ = rsa::generate_key(512, *rng_);
    leaf_ = ica_->issue("leaf", leaf_key_.public_key(), kValidity, *rng_);
    chain_ = {leaf_, ica_->certificate()};
  }

  /// RSAVP1 operations the metered verifiers have charged so far.
  std::uint64_t rsavp1() const {
    return ledger_.ops_by_algorithm(model::Algorithm::kRsaPublic);
  }

  model::CycleLedger ledger_{model::ArchitectureProfile::pure_software()};
  model::MeteredCryptoProvider metered_{ledger_};
  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<pki::SubordinateAuthority> ica_;
  rsa::PrivateKey leaf_key_;
  pki::Certificate leaf_;
  std::vector<pki::Certificate> chain_;
};

TEST_F(ChainFixture, EveryWalkChargesOneRsavp1PerLink) {
  pki::ChainVerifier verifier(ca_->root_certificate(), metered_);
  const pki::ChainVerdict first = verifier.verify(chain_, kNow);
  ASSERT_EQ(first.status, pki::CertStatus::kValid);
  EXPECT_EQ(first.serials.size(), 2u);
  EXPECT_EQ(rsavp1(), 2u);

  // verify() keeps nothing: the same chain again is a second walk.
  EXPECT_EQ(verifier.verify(chain_, kNow + 1000).status,
            pki::CertStatus::kValid);
  EXPECT_EQ(rsavp1(), 4u);
}

TEST_F(ChainFixture, HeldVerdictRevalidatesWithoutRsa) {
  pki::ChainVerifier verifier(ca_->root_certificate(), metered_);
  // A default verdict has not been walked: the first revalidation walks.
  pki::ChainVerdict held;
  EXPECT_EQ(verifier.revalidate(held, chain_, kNow), pki::CertStatus::kValid);
  EXPECT_EQ(held.status, pki::CertStatus::kValid);
  EXPECT_EQ(rsavp1(), 2u);

  // Every later one, inside the window, is accepted as held.
  for (std::uint64_t t = kNow; t < kNow + 5; ++t) {
    EXPECT_EQ(verifier.revalidate(held, chain_, t), pki::CertStatus::kValid);
  }
  EXPECT_EQ(rsavp1(), 2u);

  // A copy is an independent held verdict that vouches the same way.
  pki::ChainVerdict copy = held;
  EXPECT_EQ(verifier.revalidate(copy, chain_, kNow), pki::CertStatus::kValid);
  EXPECT_EQ(rsavp1(), 2u);
}

TEST_F(ChainFixture, ExpiredHeldVerdictReadsExpired) {
  pki::ChainVerifier verifier(ca_->root_certificate(), metered_);
  pki::ChainVerdict held = verifier.verify(chain_, kNow);
  ASSERT_EQ(held.status, pki::CertStatus::kValid);

  const std::uint64_t after_expiry = kValidity.not_after + 10;
  EXPECT_EQ(verifier.revalidate(held, chain_, after_expiry),
            pki::CertStatus::kExpired);
  EXPECT_EQ(held.status, pki::CertStatus::kExpired);
  EXPECT_EQ(verifier.verify(chain_, after_expiry).status,
            pki::CertStatus::kExpired);

  // A failed verdict is never accepted as held: each use walks again
  // (and the expired links fail before any RSA work).
  const std::uint64_t walked = rsavp1();
  EXPECT_EQ(verifier.revalidate(held, chain_, after_expiry),
            pki::CertStatus::kExpired);
  EXPECT_EQ(rsavp1(), walked);
}

TEST_F(ChainFixture, RevocationReachesTheHeldVerdict) {
  pki::ChainVerifier verifier(ca_->root_certificate(), metered_);
  pki::ChainVerdict held = verifier.verify(chain_, kNow);
  ASSERT_EQ(held.status, pki::CertStatus::kValid);
  const std::uint64_t walked = rsavp1();

  verifier.invalidate_serial(leaf_.serial());

  // Revocation is durable: the held verdict AND any future walk of a
  // chain containing the serial are rejected, without RSA work.
  EXPECT_EQ(verifier.revalidate(held, chain_, kNow),
            pki::CertStatus::kRevoked);
  EXPECT_EQ(held.status, pki::CertStatus::kRevoked);
  EXPECT_EQ(verifier.verify(chain_, kNow).status, pki::CertStatus::kRevoked);
  EXPECT_EQ(rsavp1(), walked);

  // A sibling chain under the same (unrevoked) intermediate still works.
  rsa::PrivateKey k2 = rsa::generate_key(512, *rng_);
  pki::Certificate leaf2 = ica_->issue("leaf-ok", k2.public_key(), kValidity,
                                       *rng_);
  EXPECT_EQ(verifier.verify(Chain{leaf2, ica_->certificate()}, kNow).status,
            pki::CertStatus::kValid);
}

TEST_F(ChainFixture, RevokingOneChainChargesNoWalkForAnother) {
  pki::ChainVerifier verifier(ca_->root_certificate(), metered_);
  pki::ChainVerdict held = verifier.verify(chain_, kNow);

  // A second chain under the same intermediate; revoke only its leaf.
  rsa::PrivateKey k2 = rsa::generate_key(512, *rng_);
  pki::Certificate leaf2 = ica_->issue("leaf2", k2.public_key(), kValidity,
                                       *rng_);
  const Chain other{leaf2, ica_->certificate()};
  pki::ChainVerdict other_held = verifier.verify(other, kNow);
  verifier.invalidate_serial(leaf2.serial());
  const std::uint64_t walked = rsavp1();

  // The unrelated held verdict keeps vouching, at no RSA cost.
  EXPECT_EQ(verifier.revalidate(held, chain_, kNow), pki::CertStatus::kValid);
  EXPECT_EQ(verifier.revalidate(held, chain_, kNow + 1),
            pki::CertStatus::kValid);
  EXPECT_EQ(verifier.revalidate(other_held, other, kNow),
            pki::CertStatus::kRevoked);
  EXPECT_EQ(rsavp1(), walked);
}

TEST_F(ChainFixture, TamperedAndMismatchedChains) {
  pki::ChainVerifier verifier(ca_->root_certificate(),
                              provider::plain_provider());

  // The leaf with the first byte of its signature flipped.
  Bytes bad_der = leaf_.to_der();
  bad_der[bad_der.size() - leaf_.signature().size()] ^= 0x01;
  const pki::Certificate tampered = pki::Certificate::from_der(bad_der);
  EXPECT_EQ(verifier.verify(Chain{tampered, ica_->certificate()}, kNow).status,
            pki::CertStatus::kBadSignature);

  // Leaf presented without its intermediate: issuer CN doesn't match root.
  EXPECT_EQ(verifier.verify(Chain{leaf_}, kNow).status,
            pki::CertStatus::kIssuerMismatch);

  EXPECT_THROW(verifier.verify({}, kNow), Error);
}

TEST_F(ChainFixture, NonCaIntermediateRejected) {
  // A root-issued *end-entity* certificate (e.g. another device's) must
  // not be able to vouch for a rogue RI as a chain intermediate.
  EXPECT_TRUE(ica_->certificate().is_ca());
  rsa::PrivateKey rogue_key = rsa::generate_key(512, *rng_);
  pki::Certificate rogue_issuer =
      ca_->issue("rogue-device", rogue_key.public_key(), kValidity, *rng_);
  EXPECT_FALSE(rogue_issuer.is_ca());

  rsa::PrivateKey fake_ri_key = rsa::generate_key(512, *rng_);
  const pki::Certificate fake_ri(pki::serial_number(999999), "rogue-device",
                                 "fake-ri", kValidity,
                                 fake_ri_key.public_key(), /*is_ca=*/false,
                                 rogue_key, *rng_);

  pki::ChainVerifier verifier(ca_->root_certificate(),
                              provider::plain_provider());
  EXPECT_EQ(verifier.verify(Chain{fake_ri, rogue_issuer}, kNow).status,
            pki::CertStatus::kIssuerMismatch);
}

TEST_F(ChainFixture, ExpiredRootRejectsOtherwiseValidChain) {
  DeterministicRng rng2(0x711);
  const pki::Validity short_root{kNow - 86400, kNow + 100};
  pki::CertificationAuthority shortca("ShortRoot", 512, short_root, rng2);
  rsa::PrivateKey lk = rsa::generate_key(512, rng2);
  pki::Certificate leaf = shortca.issue("leaf2", lk.public_key(), kValidity,
                                        rng2);

  pki::ChainVerifier verifier(shortca.root_certificate(),
                              provider::plain_provider());
  pki::ChainVerdict held = verifier.verify(Chain{leaf}, kNow);
  EXPECT_EQ(held.status, pki::CertStatus::kValid);
  // The leaf is still inside its own window, but the anchor is not: a
  // dead root must not keep vouching (the held verdict's window is the
  // intersection, so this is a walk, not an accepted verdict).
  EXPECT_EQ(verifier.revalidate(held, Chain{leaf}, kNow + 200),
            pki::CertStatus::kExpired);
}

// ---------------------------------------------------------------------------
// Agent / RI wiring: chains through ROAP, metered op accounting
// ---------------------------------------------------------------------------

TEST(CachedRoap, IntermediateChainFlowsThroughRegistration) {
  DeterministicRng rng(0x11A);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  pki::SubordinateAuthority ica("Mid", 512, ca, kValidity, rng);
  provider::PlainCryptoProvider& plain = provider::plain_provider();
  ri::RightsIssuer ri("ri:x", "http://ri/roap", ca, kValidity, plain, rng,
                      &ica, 512);
  agent::DrmAgent device("dev:x", ca.root_certificate(), plain, rng, 512);
  device.provision(ca.issue("dev:x", device.public_key(), kValidity, rng));

  roap::InProcessTransport tx(ri, kNow);
  ASSERT_EQ(device.register_with(tx, kNow), agent::AgentStatus::kOk);
  const agent::RiContext* ctx = device.ri_context("ri:x");
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->ri_chain.size(), 2u);  // RI leaf + intermediate
  EXPECT_EQ(ctx->ri_chain[1].subject_cn(), "Mid");
  EXPECT_EQ(ctx->verified_chain.status, pki::CertStatus::kValid);
  EXPECT_EQ(ctx->verified_chain.serials.size(), 2u);

  ri::LicenseOffer offer;
  offer.ro_id = "ro:x";
  offer.content_id = "cid:x";
  offer.dcf_hash = Bytes(20, 1);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);

  auto acq = device.acquire_ro(tx, "ri:x", "ro:x", kNow + 60);
  EXPECT_EQ(acq, agent::AgentStatus::kOk);

  // Acquisition after the RI certificate expires: the held verdict ages
  // out and the context is reported expired.
  auto late = device.acquire_ro(tx, "ri:x", "ro:x", kValidity.not_after + 100);
  EXPECT_EQ(late, agent::AgentStatus::kRiContextExpired);
  EXPECT_EQ(device.ri_context("ri:x")->verified_chain.status,
            pki::CertStatus::kExpired);
}

TEST(CachedRoap, MeteredRoapChargesNoChainRsaOnceVerdictsAreHeld) {
  DeterministicRng rng(0x22B);
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  model::CycleLedger ri_ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider ri_metered(ri_ledger);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  pki::SubordinateAuthority ica("Mid", 512, ca, kValidity, rng);
  ri::RightsIssuer ri("ri:m", "http://ri/roap", ca, kValidity, ri_metered,
                      rng, &ica, 512);
  agent::DrmAgent device("dev:m", ca.root_certificate(), metered, rng, 512);
  device.provision(ca.issue("dev:m", device.public_key(), kValidity, rng));
  auto agent_rsavp1 = [&] {
    return ledger.ops_by_algorithm(model::Algorithm::kRsaPublic);
  };
  auto ri_rsavp1 = [&] {
    return ri_ledger.ops_by_algorithm(model::Algorithm::kRsaPublic);
  };

  ri::LicenseOffer offer;
  offer.ro_id = "ro:m";
  offer.content_id = "cid:m";
  offer.dcf_hash = Bytes(20, 2);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);

  roap::InProcessTransport tx(ri, kNow);
  ASSERT_EQ(device.register_with(tx, kNow), agent::AgentStatus::kOk);
  // Cold registration. Agent: 2 chain RSAVP1 + OCSP + message. RI: the
  // device certificate's 1-link chain + the request signature.
  EXPECT_EQ(agent_rsavp1(), 4u);
  EXPECT_EQ(ri_rsavp1(), 2u);

  // Warm re-registration: both ends revalidate the verdicts they hold.
  // Agent: OCSP + message only. RI: the request signature only.
  ASSERT_EQ(device.register_with(tx, kNow + 1), agent::AgentStatus::kOk);
  EXPECT_EQ(agent_rsavp1(), 6u);
  EXPECT_EQ(ri_rsavp1(), 3u);

  // Each acquisition charges the agent one public op (the response
  // signature) and one private op (the request signature) — both context
  // revalidations (pre-send and at response processing) are free — and
  // the RI two public ops (the request signature and the RSAES-KEM
  // encapsulation to the device key), neither of them a chain walk.
  const std::uint64_t private0 =
      ledger.ops_by_algorithm(model::Algorithm::kRsaPrivate);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(device.acquire_ro(tx, "ri:m", "ro:m", kNow + 5 + i),
              agent::AgentStatus::kOk);
  }
  EXPECT_EQ(agent_rsavp1(), 9u);
  EXPECT_EQ(ri_rsavp1(), 9u);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPrivate),
            private0 + 3);
}

TEST(CachedRoap, RevokedRiChainReadsRevokedAtTheAgent) {
  DeterministicRng rng(0x33C);
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  provider::PlainCryptoProvider& plain = provider::plain_provider();
  ri::RightsIssuer ri("ri:r", "http://ri/roap", ca, kValidity, plain, rng,
                      nullptr, 512);
  agent::DrmAgent device("dev:r", ca.root_certificate(), metered, rng, 512);
  device.provision(ca.issue("dev:r", device.public_key(), kValidity, rng));
  ri::LicenseOffer offer;
  offer.ro_id = "ro:r";
  offer.content_id = "cid:r";
  offer.dcf_hash = Bytes(20, 6);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);

  roap::InProcessTransport tx(ri, kNow);
  ASSERT_EQ(device.register_with(tx, kNow), agent::AgentStatus::kOk);

  // The stapled OCSP response reports the revocation: the registration
  // fails, and the held verdict naming the serial stops vouching.
  ca.revoke(ri.certificate().serial());
  EXPECT_EQ(device.register_with(tx, kNow + 1),
            agent::AgentStatus::kCertificateRevoked);
  const std::uint64_t public0 =
      ledger.ops_by_algorithm(model::Algorithm::kRsaPublic);
  EXPECT_EQ(device.acquire_ro(tx, "ri:r", "ro:r", kNow + 2),
            agent::AgentStatus::kCertificateRevoked);
  EXPECT_EQ(device.ri_context("ri:r")->verified_chain.status,
            pki::CertStatus::kRevoked);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPublic), public0);

  // A device meeting the revoked RI for the first time is refused too.
  agent::DrmAgent second("dev:r2", ca.root_certificate(), plain, rng, 512);
  second.provision(ca.issue("dev:r2", second.public_key(), kValidity, rng));
  EXPECT_EQ(second.register_with(tx, kNow),
            agent::AgentStatus::kCertificateRevoked);
}

TEST(CachedRoap, ImportedContextWalksOnceThenChargesNothing) {
  DeterministicRng rng(0x44D);
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  pki::SubordinateAuthority ica("Mid", 512, ca, kValidity, rng);
  provider::PlainCryptoProvider& plain = provider::plain_provider();
  ri::RightsIssuer ri("ri:p", "http://ri/roap", ca, kValidity, plain, rng,
                      &ica, 512);
  agent::DrmAgent device("dev:p", ca.root_certificate(), plain, rng, 512);
  device.provision(ca.issue("dev:p", device.public_key(), kValidity, rng));
  roap::InProcessTransport tx(ri, kNow);
  ASSERT_EQ(device.register_with(tx, kNow), agent::AgentStatus::kOk);

  Bytes blob = device.export_state();
  agent::DrmAgent rebooted("dev:tmp", ca.root_certificate(), metered, rng,
                           512);
  rebooted.import_state(blob);

  const agent::RiContext* ctx = rebooted.ri_context("ri:p");
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->ri_chain.size(), 2u);
  EXPECT_EQ(ctx->ri_chain[1].subject_cn(), "Mid");
  // The verdict is not part of the image: the loaded context is unwalked.
  EXPECT_NE(ctx->verified_chain.status, pki::CertStatus::kValid);

  ri::LicenseOffer offer;
  offer.ro_id = "ro:p";
  offer.content_id = "cid:p";
  offer.dcf_hash = Bytes(20, 3);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);

  // First acquisition: one walk of the 2-link chain + the response
  // signature. Second: the response signature only.
  auto rsavp1 = [&] {
    return ledger.ops_by_algorithm(model::Algorithm::kRsaPublic);
  };
  EXPECT_EQ(rebooted.acquire_ro(tx, "ri:p", "ro:p", kNow + 1),
            agent::AgentStatus::kOk);
  EXPECT_EQ(rsavp1(), 3u);
  EXPECT_EQ(rebooted.acquire_ro(tx, "ri:p", "ro:p", kNow + 2),
            agent::AgentStatus::kOk);
  EXPECT_EQ(rsavp1(), 4u);
}

TEST(CachedRoap, SixtyFourDevicesAcquireWithoutBuildingContexts) {
  // Each key lives in a long-lived object (the RI's device table, the
  // agent's RiContext and trust root), so once the devices are registered
  // no acquisition builds a context, however many devices there are.
  DeterministicRng rng(0x64D);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  pki::SubordinateAuthority ica("Mid", 512, ca, kValidity, rng);
  provider::PlainCryptoProvider& plain = provider::plain_provider();
  ri::RightsIssuer ri("ri:f", "http://ri/roap", ca, kValidity, plain, rng,
                      &ica, 512);
  ri::LicenseOffer offer;
  offer.ro_id = "ro:f";
  offer.content_id = "cid:f";
  offer.dcf_hash = Bytes(20, 4);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);
  roap::InProcessTransport tx(ri, kNow);

  std::vector<std::unique_ptr<agent::DrmAgent>> devices;
  for (int i = 0; i < 64; ++i) {
    const std::string id = "dev:f" + std::to_string(i);
    auto dev = std::make_unique<agent::DrmAgent>(id, ca.root_certificate(),
                                                 plain, rng, 512);
    dev->provision(ca.issue(id, dev->public_key(), kValidity, rng));
    ASSERT_EQ(dev->register_with(tx, kNow), agent::AgentStatus::kOk) << id;
    devices.push_back(std::move(dev));
  }

  const std::uint64_t b0 = builds();
  for (int round = 0; round < 2; ++round) {
    for (auto& dev : devices) {
      ASSERT_EQ(dev->acquire_ro(tx, "ri:f", "ro:f", kNow + 1 + round),
                agent::AgentStatus::kOk)
          << dev->device_id();
    }
  }
  EXPECT_EQ(builds() - b0, 0u);
}

// ---------------------------------------------------------------------------
// Re-registration: both ends reuse the certificates they already hold
// ---------------------------------------------------------------------------

/// One RI (behind an intermediate, bound to a MemoryStore) and a catalog
/// entry; devices are minted per test.
class ReRegistration : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0x4E6);
    ca_ = std::make_unique<pki::CertificationAuthority>("Root", 512,
                                                        kValidity, *rng_);
    ica_ = std::make_unique<pki::SubordinateAuthority>("Mid", 512, *ca_,
                                                       kValidity, *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>("ri:rr", "http://ri/roap", *ca_,
                                             kValidity, ri_crypto_, *rng_,
                                             ica_.get(), 512);
    ASSERT_TRUE(ri_->bind_store(ri_store_).ok());
    ri::LicenseOffer offer;
    offer.ro_id = "ro:rr";
    offer.content_id = "cid:rr";
    offer.dcf_hash = Bytes(20, 5);
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = rng_->bytes(16);
    ri_->add_offer(offer);
    tx_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
  }

  /// A fresh key pair and certificate under `id`; minting the same id
  /// twice models a certificate renewal.
  std::unique_ptr<agent::DrmAgent> make_device(const std::string& id) {
    auto dev = std::make_unique<agent::DrmAgent>(
        id, ca_->root_certificate(), provider::plain_provider(), *rng_, 512);
    dev->provision(ca_->issue(id, dev->public_key(), kValidity, *rng_));
    return dev;
  }

  /// The RI's durable "dev/<id>" record.
  Bytes stored_device_der(const std::string& device_id) {
    auto records = ri_store_.load();
    for (const store::Record& rec : *records) {
      if (rec.key == "dev/" + device_id) return rec.value;
    }
    return {};
  }

  /// The RI's RSA operations.
  model::CycleLedger ri_ledger_{model::ArchitectureProfile::pure_software()};
  model::MeteredCryptoProvider ri_crypto_{ri_ledger_};
  store::MemoryStore ri_store_;
  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<pki::SubordinateAuthority> ica_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<roap::InProcessTransport> tx_;
};

TEST_F(ReRegistration, RepeatRegistrationsBuildNoContexts) {
  // Each device's first registration decodes the peer certificates on both
  // ends and builds their contexts; every later one reuses them.
  constexpr int kDevices = 3;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<agent::DrmAgent>> devices;
  for (int i = 0; i < kDevices; ++i) {
    devices.push_back(make_device("dev:rr" + std::to_string(i)));
  }
  std::uint64_t repeat_builds = 0;
  for (int round = 0; round <= kRounds; ++round) {
    for (auto& dev : devices) {
      const std::uint64_t b0 = builds();
      ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk)
          << dev->device_id() << " round " << round;
      if (round > 0) repeat_builds += builds() - b0;
    }
  }
  EXPECT_EQ(repeat_builds, 0u);
  EXPECT_EQ(ri_->counters().registrations,
            static_cast<std::uint64_t>(kDevices * (kRounds + 1)));
  for (auto& dev : devices) {
    EXPECT_EQ(stored_device_der(dev->device_id()),
              dev->certificate().to_der());
    EXPECT_EQ(dev->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 1),
              agent::AgentStatus::kOk);
  }
}

TEST_F(ReRegistration, RevokedDeviceResendingItsCertificateIsRefused) {
  auto dev = make_device("dev:revoked");
  ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);
  const std::uint64_t admitted = ri_->counters().registrations;

  // The identical certificate is reused, and the revocation check still
  // runs on it.
  ca_->revoke(dev->certificate().serial());
  EXPECT_EQ(dev->register_with(*tx_, kNow + 1),
            agent::AgentStatus::kRiAborted);
  EXPECT_EQ(dev->register_with(*tx_, kNow + 2),
            agent::AgentStatus::kRiAborted);
  EXPECT_EQ(ri_->counters().registrations, admitted);
}

TEST_F(ReRegistration, DeviceRevokedAfterItsCertificateWasReusedIsRefused) {
  auto dev = make_device("dev:revoked-late");
  ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);
  // The repeat registrations reuse the stored certificate and revalidate
  // the chain verdict held beside it: no chain walk, so the RI's only
  // RSAVP1 is each request's signature.
  const std::uint64_t before =
      ri_ledger_.ops_by_algorithm(model::Algorithm::kRsaPublic);
  ASSERT_EQ(dev->register_with(*tx_, kNow + 1), agent::AgentStatus::kOk);
  ASSERT_EQ(dev->register_with(*tx_, kNow + 2), agent::AgentStatus::kOk);
  EXPECT_EQ(ri_ledger_.ops_by_algorithm(model::Algorithm::kRsaPublic),
            before + 2);
  const std::uint64_t admitted = ri_->counters().registrations;

  // Revoked at the CA after the reuse: the held verdict is still current
  // as far as the verifier knows, and the revocation check refuses anyway
  // (and denylists the serial, so the held verdict reads kRevoked from
  // then on).
  ca_->revoke(dev->certificate().serial());
  EXPECT_EQ(dev->register_with(*tx_, kNow + 3),
            agent::AgentStatus::kRiAborted);
  EXPECT_EQ(dev->register_with(*tx_, kNow + 4),
            agent::AgentStatus::kRiAborted);
  EXPECT_EQ(ri_->counters().registrations, admitted);
}

TEST_F(ReRegistration, RenewedCertificateReplacesTheStoredOne) {
  auto old_dev = make_device("dev:renew");
  ASSERT_EQ(old_dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);

  // Same device id, new key pair, new certificate: decoded, not reused.
  auto renewed = make_device("dev:renew");
  ASSERT_NE(renewed->certificate().to_der(), old_dev->certificate().to_der());
  ASSERT_EQ(renewed->register_with(*tx_, kNow + 1), agent::AgentStatus::kOk);
  EXPECT_EQ(stored_device_der("dev:renew"), renewed->certificate().to_der());

  // The next RO is wrapped to the new key: only the renewed agent can
  // install it, and the old key no longer speaks for the device.
  auto ro = renewed->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 2);
  ASSERT_EQ(ro, agent::AgentStatus::kOk);
  EXPECT_EQ(renewed->install_ro(*ro, kNow + 2), agent::AgentStatus::kOk);
  EXPECT_EQ(old_dev->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 3),
            agent::AgentStatus::kSignatureInvalid);
}

TEST_F(ReRegistration, BadSignatureUnderReusedCertificateChangesNothing) {
  auto dev = make_device("dev:forged");
  ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);
  const Bytes stored = stored_device_der("dev:forged");
  const std::uint64_t admitted = ri_->counters().registrations;

  // The device's own certificate, byte-identical to the stored one, under
  // a request whose signature does not verify.
  agent::RegistrationSession session(*dev, kNow + 1);
  auto hello = session.hello();
  ASSERT_TRUE(hello.ok());
  auto request = session.request(ri_->handle(*hello, kNow + 1));
  ASSERT_TRUE(request.ok());
  auto forged = request->open<roap::RegistrationRequest>();
  ASSERT_EQ(forged.certificate_der, stored);
  forged.signature.back() ^= 0x01;
  auto response = ri_->handle(roap::Envelope::wrap(forged), kNow + 1)
                      .open<roap::RegistrationResponse>();
  EXPECT_EQ(response.status, roap::Status::kSignatureInvalid);

  EXPECT_EQ(ri_->counters().registrations, admitted);
  EXPECT_EQ(stored_device_der("dev:forged"), stored);
  EXPECT_TRUE(ri_->is_registered("dev:forged"));
  // The stored certificate still serves the device.
  EXPECT_EQ(dev->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 2),
            agent::AgentStatus::kOk);
  EXPECT_EQ(dev->register_with(*tx_, kNow + 3), agent::AgentStatus::kOk);
}

TEST_F(ReRegistration, RejectedOcspLeavesTheHeldContextUsable) {
  auto dev = make_device("dev:ocsp");
  ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);

  // The RI staples an OCSP response produced at its clock (kNow); at an
  // agent clock past kMaxOcspAge the staple is stale, after the matching
  // chain was already checked in place.
  EXPECT_EQ(dev->register_with(*tx_, kNow + agent::kMaxOcspAge + 60),
            agent::AgentStatus::kOcspInvalid);

  const agent::RiContext* ctx = dev->ri_context("ri:rr");
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->ri_chain.size(), 2u);
  EXPECT_EQ(ctx->established_at, kNow);
  EXPECT_EQ(ctx->ri_certificate().to_der(), ri_->certificate().to_der());
  EXPECT_EQ(dev->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 1),
            agent::AgentStatus::kOk);
}

TEST_F(ReRegistration, RefusedCommitLeavesTheHeldContextUsable) {
  auto dev = make_device("dev:commit");
  store::MemoryStore dev_store;
  ASSERT_TRUE(dev->bind_store(dev_store).ok());
  ASSERT_EQ(dev->register_with(*tx_, kNow), agent::AgentStatus::kOk);

  dev_store.fail_next_commits(1);
  EXPECT_EQ(dev->register_with(*tx_, kNow + 5),
            agent::AgentStatus::kStoreFailure);

  const agent::RiContext* ctx = dev->ri_context("ri:rr");
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->ri_chain.size(), 2u);
  EXPECT_EQ(ctx->established_at, kNow);
  EXPECT_EQ(dev->acquire_ro(*tx_, "ri:rr", "ro:rr", kNow + 6),
            agent::AgentStatus::kOk);
  // And the next registration commits the refreshed context.
  EXPECT_EQ(dev->register_with(*tx_, kNow + 7), agent::AgentStatus::kOk);
  EXPECT_EQ(dev->ri_context("ri:rr")->established_at, kNow + 7);
}

// ---------------------------------------------------------------------------
// Agent wiring: key schedules across RO replacement, and metered
// content-path parity (the streaming rewrite must charge the paper's
// per-access costs identically to the historical one-shot path).
// ---------------------------------------------------------------------------

struct ContentFixture {
  DeterministicRng rng{0xD00D};
  pki::CertificationAuthority ca{"Root", 512, kValidity, rng};
  ci::ContentIssuer ci{"ci", provider::plain_provider(), rng};
  ri::RightsIssuer ri{"ri:cc", "http://ri/roap", ca, kValidity,
                      provider::plain_provider(), rng, nullptr, 512};

  ri::LicenseOffer make_offer(const dcf::Dcf& dcf, const std::string& ro_id,
                              const std::string& content_id,
                              const Bytes& kcek) {
    ri::LicenseOffer offer;
    offer.ro_id = ro_id;
    offer.content_id = content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = kcek;
    return offer;
  }
};

TEST(ContentKeys, ReinstallWithNewCekDecryptsWithTheNewKey) {
  ContentFixture fx;
  agent::DrmAgent device("dev:cc", fx.ca.root_certificate(),
                         provider::plain_provider(), fx.rng, 512);
  device.provision(
      fx.ca.issue("dev:cc", device.public_key(), kValidity, fx.rng));
  roap::InProcessTransport tx(fx.ri, kNow);
  ASSERT_TRUE(device.register_with(tx, kNow).ok());

  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:cc";
  h.rights_issuer_url = fx.ri.url();
  const Bytes content = fx.rng.bytes(5000);
  dcf::Dcf dcf = fx.ci.package(h, content);
  fx.ri.add_offer(
      fx.make_offer(dcf, "ro:cc", "cid:cc", *fx.ci.kcek_for("cid:cc")));
  auto acq = device.acquire_ro(tx, "ri:cc", "ro:cc", kNow);
  ASSERT_TRUE(acq.ok());
  ASSERT_EQ(device.install_ro(*acq, kNow), agent::AgentStatus::kOk);
  for (int i = 0; i < 3; ++i) {
    const agent::ConsumeResult r =
        device.consume(dcf, rel::PermissionType::kPlay, kNow + i);
    ASSERT_EQ(r.status, agent::AgentStatus::kOk);
    EXPECT_EQ(r.content, content);
  }

  // A session opened under the first CEK, still unread when its RO is
  // replaced.
  agent::ContentSession before =
      device.open_content(dcf, rel::PermissionType::kPlay, kNow + 5);
  ASSERT_TRUE(before.ok());

  // The same content id re-packaged under a new CEK, licensed by a second
  // RI under the same RO id: installing it replaces "ro:cc".
  ci::ContentIssuer ci2{"ci2", provider::plain_provider(), fx.rng};
  const Bytes content2 = fx.rng.bytes(5000);
  dcf::Dcf dcf2 = ci2.package(h, content2);
  ASSERT_NE(*ci2.kcek_for("cid:cc"), *fx.ci.kcek_for("cid:cc"));
  ri::RightsIssuer ri2{"ri:cc2", "http://ri2/roap", fx.ca, kValidity,
                       provider::plain_provider(), fx.rng, nullptr, 512};
  ri2.add_offer(
      fx.make_offer(dcf2, "ro:cc", "cid:cc", *ci2.kcek_for("cid:cc")));
  roap::InProcessTransport tx2(ri2, kNow);
  ASSERT_TRUE(device.register_with(tx2, kNow).ok());
  auto acq2 = device.acquire_ro(tx2, "ri:cc2", "ro:cc", kNow);
  ASSERT_TRUE(acq2.ok());
  ASSERT_EQ(device.install_ro(*acq2, kNow), agent::AgentStatus::kOk);

  const agent::ConsumeResult r2 =
      device.consume(dcf2, rel::PermissionType::kPlay, kNow + 9);
  ASSERT_EQ(r2.status, agent::AgentStatus::kOk);
  EXPECT_EQ(r2.content, content2);
  // The replaced RO no longer opens the first container.
  EXPECT_EQ(device.consume(dcf, rel::PermissionType::kPlay, kNow + 10).status,
            agent::AgentStatus::kDcfHashMismatch);
  // The earlier session keeps its own schedule.
  EXPECT_EQ(before.read_all(), content);
  EXPECT_TRUE(before.ok());
}

TEST(MeteredContentPath, ConsumeChargesThePapersPerAccessCosts) {
  ContentFixture fx;
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  agent::DrmAgent device("dev:mm", fx.ca.root_certificate(), metered,
                         fx.rng, 512);
  device.provision(
      fx.ca.issue("dev:mm", device.public_key(), kValidity, fx.rng));
  roap::InProcessTransport tx(fx.ri, kNow);
  ASSERT_TRUE(device.register_with(tx, kNow).ok());

  Bytes content = fx.rng.bytes(10000);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:mm";
  h.rights_issuer_url = fx.ri.url();
  dcf::Dcf dcf = fx.ci.package(h, content);
  fx.ri.add_offer(
      fx.make_offer(dcf, "ro:mm", "cid:mm", *fx.ci.kcek_for("cid:mm")));
  auto acq = device.acquire_ro(tx, "ri:cc", "ro:mm", kNow);
  ASSERT_TRUE(acq.ok());
  ASSERT_EQ(device.install_ro(*acq, kNow), agent::AgentStatus::kOk);

  // One access = exactly the §2.4.4 charges, even though the hash is
  // served from the container cache and the decrypt streams through a
  // cached key schedule: 1 SHA-1 op over the serialized container, 3
  // AES-decrypt ops (C2dev unwrap, K_CEK unwrap, payload CBC), 1 HMAC.
  const std::uint64_t sha_ops =
      ledger.ops_by_algorithm(model::Algorithm::kSha1);
  const std::uint64_t sha_blocks =
      ledger.blocks_by_algorithm(model::Algorithm::kSha1);
  const std::uint64_t aes_ops =
      ledger.ops_by_algorithm(model::Algorithm::kAesDecrypt);
  const std::uint64_t aes_blocks =
      ledger.blocks_by_algorithm(model::Algorithm::kAesDecrypt);
  const std::uint64_t hmac_ops =
      ledger.ops_by_algorithm(model::Algorithm::kHmacSha1);

  ASSERT_EQ(device.consume(dcf, rel::PermissionType::kPlay, kNow).status,
            agent::AgentStatus::kOk);

  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kSha1), sha_ops + 1);
  EXPECT_EQ(ledger.blocks_by_algorithm(model::Algorithm::kSha1),
            sha_blocks + (dcf.serialized_size() + 15) / 16);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kAesDecrypt),
            aes_ops + 3);
  // Unwrap block charges: C2dev wraps 32 bytes -> 40-byte blob -> 24
  // blocks; K_CEK wraps 16 bytes -> 24-byte blob -> 12 blocks.
  EXPECT_EQ(ledger.blocks_by_algorithm(model::Algorithm::kAesDecrypt),
            aes_blocks + dcf.encrypted_payload().size() / 16 + 24 + 12);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kHmacSha1),
            hmac_ops + 1);

  // And a second access charges the same again — per access, per the
  // paper, cache or no cache.
  ASSERT_EQ(device.consume(dcf, rel::PermissionType::kPlay, kNow + 1).status,
            agent::AgentStatus::kOk);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kSha1), sha_ops + 2);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kAesDecrypt),
            aes_ops + 6);
}

}  // namespace
}  // namespace omadrm
