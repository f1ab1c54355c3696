// Tests for certificates, the CA, chain validation, and OCSP.
#include <gtest/gtest.h>

#include <algorithm>

#include "asn1/der.h"
#include "common/error.h"
#include "common/random.h"
#include "oracle/rsa_bigint.h"
#include "pki/authority.h"
#include "pki/certificate.h"
#include "pki/chain.h"
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
  EXPECT_EQ(root.serial(), serial_number(1));
  EXPECT_EQ(root.serial(), Bytes{1});
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
  EXPECT_LT(rsa::os2ip(a.serial()), rsa::os2ip(b.serial()));
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
  EXPECT_TRUE(std::ranges::equal(parsed.subject_key().n(),
                                 leaf.subject_key().n()));
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

// `cert` re-encoded with its serial INTEGER spelled with two redundant
// leading zero octets; the rest of the DER is unchanged.
Bytes with_padded_serial(const Certificate& cert) {
  asn1::Decoder outer(cert.to_der());
  asn1::Decoder body = outer.read_sequence();
  const Bytes tbs_der = body.read_raw_tlv();
  const Bytes sig_alg = body.read_raw_tlv();
  const Bytes sig = body.read_raw_tlv();
  asn1::Decoder tbs_outer(tbs_der);
  asn1::Decoder tbs = tbs_outer.read_sequence();
  const ByteView serial =
      tbs.read_tlv(static_cast<std::uint8_t>(asn1::Tag::kInteger));
  asn1::Encoder padded;
  padded.write_tlv(static_cast<std::uint8_t>(asn1::Tag::kInteger),
                   concat({Bytes{0, 0}, serial}));
  Bytes fields = padded.take();
  while (!tbs.at_end()) {
    const Bytes tlv = tbs.read_raw_tlv();
    fields.insert(fields.end(), tlv.begin(), tlv.end());
  }
  asn1::Encoder new_tbs;
  new_tbs.write_sequence(fields);
  asn1::Encoder out;
  out.write_sequence(concat({new_tbs.bytes(), sig_alg, sig}));
  return out.take();
}

TEST_F(PkiFixture, NonMinimalSerialIsTheMinimalSerial) {
  Certificate leaf =
      ca().issue("padded", subject_key().public_key(), kValidity, rng());
  const Bytes der = with_padded_serial(leaf);
  ASSERT_NE(der, leaf.to_der());
  const Certificate odd = Certificate::from_der(der);
  EXPECT_EQ(odd.serial(), leaf.serial());
  // The signed bytes are the canonical TBS, so the signature holds.
  EXPECT_EQ(odd.tbs_der(), leaf.tbs_der());
  EXPECT_EQ(odd.to_der(), leaf.to_der());
  EXPECT_EQ(validate_against_root(odd, ca().root_certificate(), kNow),
            CertStatus::kValid);

  // Revoking the minimal serial catches the padded spelling, at the CA
  // and in a chain verifier's denylist.
  ChainVerifier verifier(ca().root_certificate(), provider::plain_provider());
  const std::span<const Certificate> chain(&odd, 1);
  ChainVerdict held = verifier.verify(chain, kNow);
  ASSERT_EQ(held.status, CertStatus::kValid);
  verifier.invalidate_serial(leaf.serial());
  EXPECT_EQ(verifier.revalidate(held, chain, kNow), CertStatus::kRevoked);
  EXPECT_EQ(verifier.verify(chain, kNow).status, CertStatus::kRevoked);
  ca().revoke(leaf.serial());
  EXPECT_TRUE(ca().is_revoked(odd.serial()));
}

TEST_F(PkiFixture, UnsignedCertificateCannotSerialize) {
  Certificate cert(serial_number(9), "i", "s", kValidity,
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

  OcspRequest unknown{serial_number(99999), local.bytes(14)};
  OcspResponse resp3 = ca().ocsp_respond(unknown, kNow, rng(), plain_crypto());
  EXPECT_EQ(resp3.status(), OcspCertStatus::kUnknown);
}

TEST_F(PkiFixture, OcspDerRoundTrip) {
  DeterministicRng local(8);
  OcspRequest req{serial_number(2), local.bytes(14)};
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
  OcspRequest req{serial_number(2), local.bytes(14)};
  OcspResponse resp = ca().ocsp_respond(req, kNow, rng(), plain_crypto());

  // Wrong nonce.
  OcspRequest other{serial_number(2), local.bytes(14)};
  EXPECT_FALSE(resp.verify(ca().public_key(), other, kNow, 3600));
  // Wrong serial.
  OcspRequest wrong_serial{serial_number(3), req.nonce};
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
