// Tests for certificates, the CA, chain validation, and OCSP.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "pki/authority.h"
#include "pki/certificate.h"
#include "pki/ocsp.h"
#include "provider/provider.h"
#include "rsa/pss.h"

namespace omadrm::pki {
namespace {

using omadrm::DeterministicRng;

constexpr std::uint64_t kNow = 1100000000;
const Validity kValidity{kNow - 86400, kNow + 365 * 86400};

class PkiFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new DeterministicRng(0xCA);
    ca_ = new CertificationAuthority("Test Root CA", 1024, kValidity, *rng_);
    subject_key_ = new rsa::PrivateKey(rsa::generate_key(1024, *rng_));
  }
  static void TearDownTestSuite() {
    delete ca_;
    delete subject_key_;
    delete rng_;
  }

  static CertificationAuthority& ca() { return *ca_; }
  static const rsa::PrivateKey& subject_key() { return *subject_key_; }
  static Rng& rng() { return *rng_; }
  static provider::CryptoProvider& plain_crypto() {
    static provider::PlainCryptoProvider plain;
    return plain;
  }

 private:
  static DeterministicRng* rng_;
  static CertificationAuthority* ca_;
  static rsa::PrivateKey* subject_key_;
};

DeterministicRng* PkiFixture::rng_ = nullptr;
CertificationAuthority* PkiFixture::ca_ = nullptr;
rsa::PrivateKey* PkiFixture::subject_key_ = nullptr;

TEST_F(PkiFixture, RootIsSelfSignedAndValid) {
  const Certificate& root = ca().root_certificate();
  EXPECT_TRUE(root.is_self_signed());
  EXPECT_EQ(root.serial().to_dec(), "1");
  EXPECT_EQ(verify_certificate(root, root.subject_key(), root.subject_cn(),
                               kNow),
            CertStatus::kValid);
}

TEST_F(PkiFixture, IssueAndVerifyLeaf) {
  Certificate leaf = ca().issue("device-xyz", subject_key().public_key(),
                                kValidity, rng());
  EXPECT_EQ(leaf.issuer_cn(), "Test Root CA");
  EXPECT_EQ(leaf.subject_cn(), "device-xyz");
  EXPECT_FALSE(leaf.is_self_signed());
  EXPECT_EQ(verify_certificate(leaf, ca().public_key(), "Test Root CA", kNow),
            CertStatus::kValid);
  EXPECT_EQ(validate_against_root(leaf, ca().root_certificate(), kNow),
            CertStatus::kValid);
}

TEST_F(PkiFixture, SerialsIncrement) {
  Certificate a = ca().issue("a", subject_key().public_key(), kValidity,
                             rng());
  Certificate b = ca().issue("b", subject_key().public_key(), kValidity,
                             rng());
  EXPECT_LT(a.serial(), b.serial());
}

TEST_F(PkiFixture, DerRoundTrip) {
  Certificate leaf =
      ca().issue("roundtrip", subject_key().public_key(), kValidity, rng());
  Bytes der = leaf.to_der();
  Certificate parsed = Certificate::from_der(der);
  EXPECT_EQ(parsed.subject_cn(), "roundtrip");
  EXPECT_EQ(parsed.issuer_cn(), leaf.issuer_cn());
  EXPECT_EQ(parsed.serial(), leaf.serial());
  EXPECT_EQ(parsed.validity().not_before, leaf.validity().not_before);
  EXPECT_EQ(parsed.validity().not_after, leaf.validity().not_after);
  EXPECT_EQ(parsed.subject_key().n, leaf.subject_key().n);
  EXPECT_EQ(parsed.signature(), leaf.signature());
  // The parsed certificate still verifies.
  EXPECT_EQ(verify_certificate(parsed, ca().public_key(), "Test Root CA",
                               kNow),
            CertStatus::kValid);
}

TEST_F(PkiFixture, TbsIsStable) {
  Certificate leaf =
      ca().issue("stable", subject_key().public_key(), kValidity, rng());
  EXPECT_EQ(leaf.tbs_der(), Certificate::from_der(leaf.to_der()).tbs_der());
}

TEST_F(PkiFixture, DetectsTamperedCertificate) {
  Certificate leaf =
      ca().issue("tamper", subject_key().public_key(), kValidity, rng());
  Bytes der = leaf.to_der();
  // Flip a byte inside the subject name region.
  for (std::size_t i = 40; i < der.size(); i += 97) {
    Bytes bad = der;
    bad[i] ^= 0x01;
    Certificate parsed;
    try {
      parsed = Certificate::from_der(bad);
    } catch (const Error&) {
      continue;  // structurally broken is also an acceptable detection
    }
    EXPECT_NE(verify_certificate(parsed, ca().public_key(), "Test Root CA",
                                 kNow),
              CertStatus::kValid)
        << "byte " << i;
  }
}

TEST_F(PkiFixture, ValidityWindowEnforced) {
  Certificate leaf =
      ca().issue("window", subject_key().public_key(), kValidity, rng());
  EXPECT_EQ(verify_certificate(leaf, ca().public_key(), "Test Root CA",
                               kValidity.not_before - 10),
            CertStatus::kNotYetValid);
  EXPECT_EQ(verify_certificate(leaf, ca().public_key(), "Test Root CA",
                               kValidity.not_after + 10),
            CertStatus::kExpired);
}

TEST_F(PkiFixture, IssuerMismatchDetected) {
  Certificate leaf =
      ca().issue("mismatch", subject_key().public_key(), kValidity, rng());
  EXPECT_EQ(verify_certificate(leaf, ca().public_key(), "Another CA", kNow),
            CertStatus::kIssuerMismatch);
}

TEST_F(PkiFixture, WrongIssuerKeyRejected) {
  Certificate leaf =
      ca().issue("wrongkey", subject_key().public_key(), kValidity, rng());
  EXPECT_EQ(verify_certificate(leaf, subject_key().public_key(),
                               "Test Root CA", kNow),
            CertStatus::kBadSignature);
}

TEST_F(PkiFixture, UnsignedCertificateCannotSerialize) {
  Certificate cert(bigint::BigInt(9), "i", "s", kValidity,
                   subject_key().public_key());
  EXPECT_THROW(cert.to_der(), Error);
}

TEST_F(PkiFixture, RevocationTracking) {
  Certificate leaf =
      ca().issue("revoke-me", subject_key().public_key(), kValidity, rng());
  EXPECT_FALSE(ca().is_revoked(leaf.serial()));
  ca().revoke(leaf.serial());
  EXPECT_TRUE(ca().is_revoked(leaf.serial()));
}

TEST_F(PkiFixture, OcspGoodRevokedUnknown) {
  Certificate leaf =
      ca().issue("ocsp-leaf", subject_key().public_key(), kValidity, rng());
  DeterministicRng local(7);

  OcspRequest req{leaf.serial(), local.bytes(14)};
  OcspResponse resp = ca().ocsp_respond(req, kNow, rng(), plain_crypto());
  EXPECT_EQ(resp.status(), OcspCertStatus::kGood);
  EXPECT_TRUE(resp.verify(ca().public_key(), req, kNow, 3600));

  ca().revoke(leaf.serial());
  OcspResponse resp2 = ca().ocsp_respond(req, kNow, rng(), plain_crypto());
  EXPECT_EQ(resp2.status(), OcspCertStatus::kRevoked);

  OcspRequest unknown{bigint::BigInt(99999), local.bytes(14)};
  OcspResponse resp3 = ca().ocsp_respond(unknown, kNow, rng(), plain_crypto());
  EXPECT_EQ(resp3.status(), OcspCertStatus::kUnknown);
}

TEST_F(PkiFixture, OcspDerRoundTrip) {
  DeterministicRng local(8);
  OcspRequest req{bigint::BigInt(2), local.bytes(14)};
  OcspResponse resp = ca().ocsp_respond(req, kNow, rng(), plain_crypto());
  OcspResponse parsed = OcspResponse::from_der(resp.to_der());
  EXPECT_EQ(parsed.serial(), resp.serial());
  EXPECT_EQ(parsed.status(), resp.status());
  EXPECT_EQ(parsed.produced_at(), resp.produced_at());
  EXPECT_EQ(parsed.nonce(), resp.nonce());
  EXPECT_TRUE(parsed.verify(ca().public_key(), req, kNow, 3600));

  OcspRequest req_rt = OcspRequest::from_der(req.to_der());
  EXPECT_EQ(req_rt.serial, req.serial);
  EXPECT_EQ(req_rt.nonce, req.nonce);
}

TEST_F(PkiFixture, OcspBindingChecks) {
  DeterministicRng local(9);
  OcspRequest req{bigint::BigInt(2), local.bytes(14)};
  OcspResponse resp = ca().ocsp_respond(req, kNow, rng(), plain_crypto());

  // Wrong nonce.
  OcspRequest other{bigint::BigInt(2), local.bytes(14)};
  EXPECT_FALSE(resp.verify(ca().public_key(), other, kNow, 3600));
  // Wrong serial.
  OcspRequest wrong_serial{bigint::BigInt(3), req.nonce};
  EXPECT_FALSE(resp.verify(ca().public_key(), wrong_serial, kNow, 3600));
  // Stale.
  EXPECT_FALSE(resp.verify(ca().public_key(), req, kNow + 7200, 3600));
  // From the future.
  EXPECT_FALSE(resp.verify(ca().public_key(), req, kNow - 10, 3600));
  // Wrong responder key.
  EXPECT_FALSE(resp.verify(subject_key().public_key(), req, kNow, 3600));
}

}  // namespace
}  // namespace omadrm::pki
