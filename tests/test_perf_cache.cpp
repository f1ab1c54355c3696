// Tests for the ROAP hot-path caches: per-key Montgomery contexts (rsa
// layer), the certificate-chain verdict cache (pki layer), and their
// wiring into the DRM Agent / Rights Issuer — including the metered-op
// accounting that shows cache hits cost zero RSA operations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/content_session.h"
#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "bigint/bigint.h"
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
#include "rsa_bigint.h"
#include "store/memory_store.h"
#include "mont_bigint.h"

namespace omadrm {
namespace {

using bigint::BigInt;
using bigint::MontgomeryCtx;
using bigint::mont_test::mod_exp;
using Chain = std::vector<pki::Certificate>;

// ---------------------------------------------------------------------------
// Montgomery / RSA edge cases
// ---------------------------------------------------------------------------

const BigInt kOddModulus("0xb4c1f68f9a3d2e155f0e3a4d8b92c671");

TEST(MontgomeryEdge, EvenModulusRejected) {
  EXPECT_THROW(MontgomeryCtx(BigInt(std::uint64_t{100})), Error);
  EXPECT_THROW(MontgomeryCtx(BigInt{}), Error);
  EXPECT_THROW(MontgomeryCtx(BigInt(-7)), Error);
}

TEST(MontgomeryEdge, ExponentZeroIsOne) {
  MontgomeryCtx ctx(kOddModulus);
  EXPECT_EQ(mod_exp(ctx, BigInt(std::uint64_t{12345}), BigInt{}),
            BigInt(std::uint64_t{1}));
  // 0^0 == 1 by the PKCS#1 convention the generic path follows too.
  EXPECT_EQ(mod_exp(ctx, BigInt{}, BigInt{}), BigInt(std::uint64_t{1}));
  // Degenerate modulus 1: everything is congruent to 0.
  MontgomeryCtx one(BigInt(std::uint64_t{1}));
  EXPECT_TRUE(mod_exp(one, BigInt{}, BigInt{}).is_zero());
}

TEST(MontgomeryEdge, BaseZero) {
  MontgomeryCtx ctx(kOddModulus);
  EXPECT_TRUE(mod_exp(ctx, BigInt{}, BigInt(std::uint64_t{17})).is_zero());
  EXPECT_TRUE(
      mod_exp(ctx, BigInt{}, BigInt("0x10001000100010001")).is_zero());
}

TEST(MontgomeryEdge, BaseMinusOne) {
  MontgomeryCtx ctx(kOddModulus);
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
  MontgomeryCtx ctx(kOddModulus);
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
// Per-key Montgomery contexts (rsa::CtxSlot)
// ---------------------------------------------------------------------------

std::uint64_t builds() { return bigint::montgomery_ctx_builds(); }

const rsa::PrivateKey& slot_key() {
  static const rsa::PrivateKey key = [] {
    DeterministicRng rng(0x510);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

TEST(CtxSlot, PublicKeyBuildsItsContextOnce) {
  const rsa::PublicKey pub = slot_key().public_key();
  const BigInt m(std::uint64_t{0x1234567});
  const std::uint64_t b0 = builds();
  const BigInt c = rsa::rsaep(pub, m);
  EXPECT_EQ(rsa::rsaep(pub, m), c);
  EXPECT_EQ(builds() - b0, 1u);
  EXPECT_EQ(rsa::rsadp(slot_key(), c), m);
}

TEST(CtxSlot, CopyRebuildsMoveKeeps) {
  rsa::PublicKey pub = slot_key().public_key();
  rsa::PrivateKey priv = slot_key();
  const BigInt m(std::uint64_t{42});
  const BigInt c = rsa::rsaep(pub, m);
  ASSERT_EQ(rsa::rsadp(priv, c), m);  // both keys' slots now warm

  std::uint64_t b0 = builds();
  rsa::PublicKey pub_copy = pub;
  rsa::PrivateKey priv_copy = priv;
  EXPECT_EQ(rsa::rsaep(pub_copy, m), c);
  EXPECT_EQ(rsa::rsadp(priv_copy, c), m);
  EXPECT_EQ(builds() - b0, 3u);  // n, then p and q: copies start empty

  b0 = builds();
  rsa::PublicKey pub_moved = std::move(pub);
  rsa::PrivateKey priv_moved = std::move(priv);
  EXPECT_EQ(rsa::rsaep(pub_moved, m), c);
  EXPECT_EQ(rsa::rsadp(priv_moved, c), m);
  EXPECT_EQ(builds() - b0, 0u);  // a move carries the contexts along

  b0 = builds();
  pub_copy = pub_moved;  // copy-assignment empties the target's slot
  EXPECT_EQ(rsa::rsaep(pub_copy, m), c);
  EXPECT_EQ(builds() - b0, 1u);
}

TEST(CtxSlot, OverwrittenFieldsRebuildAndStayCorrect) {
  DeterministicRng rng(0x0B1);
  const rsa::PrivateKey other = rsa::generate_key(512, rng);
  rsa::PublicKey pub = slot_key().public_key();
  rsa::PrivateKey priv = slot_key();
  const BigInt m(std::uint64_t{7});
  ASSERT_EQ(rsa::rsadp(priv, rsa::rsaep(pub, m)), m);  // warm both

  // Field-wise replacement: the slots still hold contexts for the old
  // moduli.
  pub.n = other.n;
  priv.n = other.n;
  priv.d = other.d;
  priv.p = other.p;
  priv.q = other.q;
  priv.dp = other.dp;
  priv.dq = other.dq;
  priv.qinv = other.qinv;
  const std::uint64_t b0 = builds();
  const BigInt c = rsa::rsaep(pub, m);
  EXPECT_EQ(rsa::rsadp(priv, c), m);
  EXPECT_EQ(builds() - b0, 3u);
  EXPECT_EQ(rsa::rsadp(other, c), m);  // c really is m^e mod other.n

  // Healed: the rebuilt contexts stay.
  const std::uint64_t b1 = builds();
  EXPECT_EQ(rsa::rsadp(priv, rsa::rsaep(pub, m)), m);
  EXPECT_EQ(builds() - b1, 0u);
}

TEST(RsaEdge, HostileEvenModulusFailsVerificationGracefully) {
  // A crafted certificate can carry an even RSA modulus; that must come
  // back as a failed verification, not as a thrown Montgomery error that
  // unwinds through the ROAP handlers.
  rsa::PublicKey evil;
  evil.n = BigInt(std::uint64_t{1}) << 512;  // even
  evil.e = BigInt(std::uint64_t{65537});
  Bytes message{1, 2, 3};
  Bytes signature(evil.byte_length(), 0x42);
  EXPECT_FALSE(rsa::pss_verify(evil, message, signature));
}

TEST(RsaCrt, CrtAndPlainPathsAgree) {
  DeterministicRng rng(0xC47);
  rsa::PrivateKey key = rsa::generate_key(512, rng);
  ASSERT_TRUE(key.has_crt);
  rsa::PrivateKey plain = key;
  plain.has_crt = false;

  BigInt c = BigInt::random_below(key.n, rng);
  EXPECT_EQ(rsa::rsadp(key, c), rsa::rsadp(plain, c));
  EXPECT_EQ(rsa::rsadp(key, c), rsa::rsadp(plain, c));
  // Round trip through the public primitive.
  EXPECT_EQ(rsa::rsaep(key.public_key(), rsa::rsadp(key, c)), c);
}

// ---------------------------------------------------------------------------
// Chain verifier
// ---------------------------------------------------------------------------

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

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

  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<pki::SubordinateAuthority> ica_;
  rsa::PrivateKey leaf_key_;
  pki::Certificate leaf_;
  std::vector<pki::Certificate> chain_;
};

TEST_F(ChainFixture, CacheHitReturnsIdenticalVerdict) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  auto first = verifier.verify(chain_, kNow);
  ASSERT_EQ(first->status, pki::CertStatus::kValid);
  EXPECT_EQ(first->serials.size(), 2u);
  EXPECT_EQ(first->leaf_subject_cn, "leaf");

  auto second = verifier.verify(chain_, kNow + 1000);
  EXPECT_EQ(first.get(), second.get());  // the very same verdict object
  EXPECT_EQ(verifier.stats().hits, 1u);
  EXPECT_EQ(verifier.stats().misses, 1u);
}

TEST_F(ChainFixture, RevalidateUsesHandleWithoutHashing) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  auto handle = verifier.verify(chain_, kNow);
  auto again = verifier.revalidate(handle, chain_, kNow + 5);
  EXPECT_EQ(handle.get(), again.get());
  EXPECT_EQ(verifier.stats().hits, 1u);

  // A null handle falls back to the fingerprint lookup.
  auto from_cache = verifier.revalidate(nullptr, chain_, kNow);
  EXPECT_EQ(from_cache.get(), handle.get());
  EXPECT_EQ(verifier.stats().hits, 2u);
}

TEST_F(ChainFixture, ExpiredChainIsNotServedFromCache) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  auto valid = verifier.verify(chain_, kNow);
  ASSERT_EQ(valid->status, pki::CertStatus::kValid);

  const std::uint64_t after_expiry = kValidity.not_after + 10;
  auto expired = verifier.verify(chain_, after_expiry);
  EXPECT_EQ(expired->status, pki::CertStatus::kExpired);
  EXPECT_GE(verifier.stats().invalidations, 1u);  // stale entry dropped

  // The stale handle is rejected by revalidate as well.
  auto handle_result = verifier.revalidate(valid, chain_, after_expiry);
  EXPECT_EQ(handle_result->status, pki::CertStatus::kExpired);

  // Failure verdicts are never cached.
  verifier.reset_stats();
  verifier.verify(chain_, after_expiry);
  verifier.verify(chain_, after_expiry);
  EXPECT_EQ(verifier.stats().hits, 0u);
}

TEST_F(ChainFixture, RevocationInvalidatesCachedVerdict) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  auto handle = verifier.verify(chain_, kNow);
  ASSERT_EQ(handle->status, pki::CertStatus::kValid);

  verifier.invalidate_serial(leaf_.serial());
  EXPECT_EQ(verifier.stats().invalidations, 1u);

  // Revocation is durable: the cached verdict, outstanding handles, AND
  // any future walk of a chain containing the serial are all rejected.
  auto after = verifier.revalidate(handle, chain_, kNow);
  EXPECT_EQ(after->status, pki::CertStatus::kRevoked);
  auto again = verifier.verify(chain_, kNow);
  EXPECT_EQ(again->status, pki::CertStatus::kRevoked);
  EXPECT_EQ(verifier.stats().hits, 0u);

  // A sibling chain under the same (unrevoked) intermediate still works.
  rsa::PrivateKey k2 = rsa::generate_key(512, *rng_);
  pki::Certificate leaf2 = ica_->issue("leaf-ok", k2.public_key(), kValidity,
                                       *rng_);
  EXPECT_EQ(
      verifier.verify(Chain{leaf2, ica_->certificate()}, kNow)->status,
      pki::CertStatus::kValid);
}

TEST_F(ChainFixture, TamperedAndMismatchedChains) {
  pki::ChainVerifier verifier(ca_->root_certificate());

  pki::Certificate tampered = leaf_;
  Bytes bad_sig = tampered.signature();
  bad_sig[0] ^= 0x01;
  tampered.set_signature(bad_sig);
  EXPECT_EQ(
      verifier.verify(Chain{tampered, ica_->certificate()}, kNow)->status,
      pki::CertStatus::kBadSignature);

  // Leaf presented without its intermediate: issuer CN doesn't match root.
  EXPECT_EQ(verifier.verify(Chain{leaf_}, kNow)->status,
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
  pki::Certificate fake_ri(BigInt(std::uint64_t{999999}), "rogue-device",
                           "fake-ri", kValidity, fake_ri_key.public_key());
  fake_ri.set_signature(rsa::pss_sign(rogue_key, fake_ri.tbs_der(), *rng_));

  pki::ChainVerifier verifier(ca_->root_certificate());
  EXPECT_EQ(verifier.verify(Chain{fake_ri, rogue_issuer}, kNow)->status,
            pki::CertStatus::kIssuerMismatch);
}

TEST_F(ChainFixture, ExpiredRootRejectsOtherwiseValidChain) {
  DeterministicRng rng2(0x711);
  const pki::Validity short_root{kNow - 86400, kNow + 100};
  pki::CertificationAuthority shortca("ShortRoot", 512, short_root, rng2);
  rsa::PrivateKey lk = rsa::generate_key(512, rng2);
  pki::Certificate leaf = shortca.issue("leaf2", lk.public_key(), kValidity,
                                        rng2);

  pki::ChainVerifier verifier(shortca.root_certificate());
  EXPECT_EQ(verifier.verify(Chain{leaf}, kNow)->status,
            pki::CertStatus::kValid);
  // The leaf is still inside its own window, but the anchor is not: a
  // dead root must not keep vouching (and the cached verdict's window is
  // the intersection, so this is a recompute, not a stale hit).
  EXPECT_EQ(verifier.verify(Chain{leaf}, kNow + 200)->status,
            pki::CertStatus::kExpired);
}

TEST_F(ChainFixture, EpochRestampKeepsHandlesAlive) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  auto handle = verifier.verify(chain_, kNow);

  // A second chain under the same intermediate, then revoke only it:
  // the epoch bump retires all handles, but our entry survives the map.
  rsa::PrivateKey k2 = rsa::generate_key(512, *rng_);
  pki::Certificate leaf2 = ica_->issue("leaf2", k2.public_key(), kValidity,
                                       *rng_);
  verifier.verify(Chain{leaf2, ica_->certificate()}, kNow);
  verifier.invalidate_serial(leaf2.serial());

  // Stale-epoch handle falls back to the map hit, which re-stamps the
  // surviving verdict…
  auto r1 = verifier.revalidate(handle, chain_, kNow);
  EXPECT_EQ(r1.get(), handle.get());
  // …so the next revalidation rides the O(1) handle path again.
  auto r2 = verifier.revalidate(r1, chain_, kNow);
  EXPECT_EQ(r2.get(), handle.get());
  pki::ChainCacheStats s = verifier.stats();
  EXPECT_EQ(s.misses, 2u);  // only the two initial walks
  EXPECT_EQ(s.hits, 2u);
}

TEST_F(ChainFixture, DisabledVerifierNeverCaches) {
  pki::ChainVerifier verifier(ca_->root_certificate());
  verifier.set_enabled(false);
  auto a = verifier.verify(chain_, kNow);
  auto b = verifier.verify(chain_, kNow);
  EXPECT_EQ(a->status, pki::CertStatus::kValid);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(verifier.stats().hits, 0u);
  EXPECT_EQ(verifier.stats().misses, 2u);
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
  ASSERT_NE(ctx->verified_chain, nullptr);
  EXPECT_EQ(ctx->verified_chain->status, pki::CertStatus::kValid);

  // Registration verified the 2-link chain once (a miss); nothing has hit
  // the cache yet.
  EXPECT_EQ(device.chain_verifier().stats().misses, 1u);

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
  // Context revalidation rode the verdict handle — once before sending,
  // once at response processing: two hits, no second walk.
  EXPECT_EQ(device.chain_verifier().stats().hits, 2u);
  EXPECT_EQ(device.chain_verifier().stats().misses, 1u);

  // Acquisition after the RI certificate expires: the cached verdict ages
  // out and the context is reported expired.
  auto late = device.acquire_ro(tx, "ri:x", "ro:x", kValidity.not_after + 100);
  EXPECT_EQ(late, agent::AgentStatus::kRiContextExpired);
}

TEST(CachedRoap, MeteredAcquisitionChargesNoChainRsa) {
  DeterministicRng rng(0x22B);
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  pki::SubordinateAuthority ica("Mid", 512, ca, kValidity, rng);
  ri::RightsIssuer ri("ri:m", "http://ri/roap", ca, kValidity,
                      provider::plain_provider(), rng, &ica, 512);
  agent::DrmAgent device("dev:m", ca.root_certificate(), metered, rng, 512);
  device.provision(ca.issue("dev:m", device.public_key(), kValidity, rng));

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
  // Registration with a 2-link chain: 2 chain RSAVP1 + OCSP + message.
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPublic), 4u);
  const std::uint64_t reg_private =
      ledger.ops_by_algorithm(model::Algorithm::kRsaPrivate);

  ASSERT_EQ(device.acquire_ro(tx, "ri:m", "ro:m", kNow + 5),
            agent::AgentStatus::kOk);
  // The cached acquisition charges exactly one public (response signature)
  // and one private (request signature) op — both context revalidations
  // (pre-send and at response processing) were free.
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPublic), 5u);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPrivate),
            reg_private + 1);

  // With the verdict cache disabled the same exchange re-walks the chain
  // at both revalidation points: four extra RSAVP1 ops per acquisition.
  device.chain_verifier().set_enabled(false);
  ASSERT_EQ(device.acquire_ro(tx, "ri:m", "ro:m", kNow + 10),
            agent::AgentStatus::kOk);
  EXPECT_EQ(ledger.ops_by_algorithm(model::Algorithm::kRsaPublic), 10u);
  device.chain_verifier().set_enabled(true);
}

TEST(CachedRoap, RevokedRiInvalidatesAgentCache) {
  DeterministicRng rng(0x33C);
  pki::CertificationAuthority ca("Root", 512, kValidity, rng);
  provider::PlainCryptoProvider& plain = provider::plain_provider();
  ri::RightsIssuer ri("ri:r", "http://ri/roap", ca, kValidity, plain, rng,
                      nullptr, 512);
  agent::DrmAgent device("dev:r", ca.root_certificate(), plain, rng, 512);
  device.provision(ca.issue("dev:r", device.public_key(), kValidity, rng));

  roap::InProcessTransport tx(ri, kNow);
  ASSERT_EQ(device.register_with(tx, kNow), agent::AgentStatus::kOk);

  ca.revoke(ri.certificate().serial());
  agent::DrmAgent second("dev:r2", ca.root_certificate(), plain, rng, 512);
  second.provision(ca.issue("dev:r2", second.public_key(), kValidity, rng));
  EXPECT_EQ(second.register_with(tx, kNow),
            agent::AgentStatus::kCertificateRevoked);
  // The revoked chain verdict was cached during the attempt, then
  // invalidated when the OCSP staple reported the revocation.
  EXPECT_EQ(second.chain_verifier().stats().invalidations, 1u);
}

TEST(CachedRoap, PersistedContextKeepsChain) {
  DeterministicRng rng(0x44D);
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
  agent::DrmAgent rebooted("dev:tmp", ca.root_certificate(), plain, rng, 512);
  rebooted.import_state(blob);

  const agent::RiContext* ctx = rebooted.ri_context("ri:p");
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->ri_chain.size(), 2u);
  EXPECT_EQ(ctx->ri_chain[1].subject_cn(), "Mid");

  ri::LicenseOffer offer;
  offer.ro_id = "ro:p";
  offer.content_id = "cid:p";
  offer.dcf_hash = Bytes(20, 3);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  ri.add_offer(offer);

  // The imported context re-verifies (miss) and then serves hits.
  EXPECT_EQ(rebooted.acquire_ro(tx, "ri:p", "ro:p", kNow + 1),
            agent::AgentStatus::kOk);
  EXPECT_EQ(rebooted.acquire_ro(tx, "ri:p", "ro:p", kNow + 2),
            agent::AgentStatus::kOk);
  EXPECT_GE(rebooted.chain_verifier().stats().hits, 1u);
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
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri:rr", "http://ri/roap", *ca_, kValidity, provider::plain_provider(),
        *rng_, ica_.get(), 512);
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
  // the chain verdict held beside it: no chain walk.
  const pki::ChainCacheStats before = ri_->device_chain_verifier().stats();
  ASSERT_EQ(dev->register_with(*tx_, kNow + 1), agent::AgentStatus::kOk);
  ASSERT_EQ(dev->register_with(*tx_, kNow + 2), agent::AgentStatus::kOk);
  EXPECT_EQ(ri_->device_chain_verifier().stats().misses, before.misses);
  const std::uint64_t admitted = ri_->counters().registrations;

  // Revoked at the CA after the reuse: the held verdict is still current
  // as far as the verifier knows, and the revocation check refuses anyway.
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
// AES context cache (content path)
// ---------------------------------------------------------------------------

TEST(AesContextCache, HitsMissesAndLru) {
  DeterministicRng rng(0xAE5);
  agent::AesContextCache cache(2);

  const Bytes k1 = rng.bytes(16);
  const Bytes k2 = rng.bytes(16);
  const Bytes k3 = rng.bytes(16);

  auto a = cache.get(k1, "ro:1");
  auto b = cache.get(k1, "ro:1");
  EXPECT_EQ(a.get(), b.get());  // same shared schedule
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Fill to capacity, then evict the least recently used (k2: k1 was
  // refreshed by the hit above, then k3 lands on top).
  (void)cache.get(k2, "ro:2");
  (void)cache.get(k1, "ro:1");
  (void)cache.get(k3, "ro:3");
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  auto c = cache.get(k2, "ro:2");  // k2 must rebuild
  EXPECT_EQ(cache.stats().misses, 4u);

  // Evicted handles keep working — sessions pin their schedules.
  std::uint8_t pt[16] = {1, 2, 3};
  std::uint8_t ct[16];
  a->encrypt_block(pt, ct);
  std::uint8_t back[16];
  a->decrypt_block(ct, back);
  EXPECT_EQ(std::memcmp(pt, back, 16), 0);
  (void)c;
}

TEST(AesContextCache, InvalidationAndDisable) {
  DeterministicRng rng(0xAE6);
  agent::AesContextCache cache(8);
  const Bytes k1 = rng.bytes(16);
  const Bytes k2 = rng.bytes(16);

  (void)cache.get(k1, "ro:x");
  (void)cache.get(k2, "ro:y");
  cache.invalidate_ro("ro:x");
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.get(k1, "ro:x");  // rebuilt after invalidation
  EXPECT_EQ(cache.stats().misses, 3u);
  (void)cache.get(k2, "ro:y");  // untouched entry still hits
  EXPECT_EQ(cache.stats().hits, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);

  agent::AesContextCache off(0);
  auto a = off.get(k1, "ro:x");
  auto b = off.get(k1, "ro:x");
  EXPECT_NE(a.get(), b.get());  // every get builds fresh
  EXPECT_EQ(off.size(), 0u);
}

// ---------------------------------------------------------------------------
// Agent wiring: cache across consume calls, invalidation on RO replace,
// and metered content-path parity (the streaming rewrite must charge the
// paper's per-access costs identically to the historical one-shot path).
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

TEST(AesContextCache, AgentConsumeHitsAndReinstallInvalidates) {
  ContentFixture fx;
  agent::DrmAgent device("dev:cc", fx.ca.root_certificate(),
                         provider::plain_provider(), fx.rng, 512);
  device.provision(
      fx.ca.issue("dev:cc", device.public_key(), kValidity, fx.rng));
  roap::InProcessTransport tx(fx.ri, kNow);
  ASSERT_TRUE(device.register_with(tx, kNow).ok());

  Bytes content = fx.rng.bytes(5000);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:cc";
  h.rights_issuer_url = fx.ri.url();
  dcf::Dcf dcf = fx.ci.package(h, content);
  fx.ri.add_offer(
      fx.make_offer(dcf, "ro:cc", "cid:cc", *fx.ci.kcek_for("cid:cc")));

  auto acq = device.acquire_ro(tx, "ri:cc", "ro:cc", kNow);
  ASSERT_TRUE(acq.ok());
  ASSERT_EQ(device.install_ro(*acq, kNow), agent::AgentStatus::kOk);

  // First access builds the schedule, later accesses ride the cache.
  device.aes_context_cache().reset_stats();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        device.consume(dcf, rel::PermissionType::kPlay, kNow + i).status,
        agent::AgentStatus::kOk);
  }
  EXPECT_EQ(device.aes_context_cache().stats().misses, 1u);
  EXPECT_EQ(device.aes_context_cache().stats().hits, 2u);

  // Reinstalling the RO (same id) drops its cached schedule.
  ASSERT_EQ(device.install_ro(*acq, kNow), agent::AgentStatus::kOk);
  EXPECT_GE(device.aes_context_cache().stats().invalidations, 1u);
  ASSERT_EQ(device.consume(dcf, rel::PermissionType::kPlay, kNow + 9).status,
            agent::AgentStatus::kOk);
  EXPECT_EQ(device.aes_context_cache().stats().misses, 2u);
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
