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

  /// The one way to verify a certificate: a walk of the one-link chain
  /// against the fixture's root.
  static CertStatus check(const Certificate& cert,
                          std::uint64_t now = kNow) {
    const ChainVerifier verifier(ca().root_certificate(),
                                 provider::plain_provider());
    return verifier.verify(std::span<const Certificate>(&cert, 1), now)
        .status;
  }

  /// The one OCSP check, against the root key unless told otherwise.
  static OcspCheck check(const OcspResponse& resp, const Serial& serial,
                         ByteView nonce, std::uint64_t now = kNow) {
    return check(resp, serial, nonce, now, ca().public_key());
  }
  static OcspCheck check(const OcspResponse& resp, const Serial& serial,
                         ByteView nonce, std::uint64_t now,
                         const rsa::PublicKey& responder) {
    return check_ocsp(resp, serial, nonce, responder, now, 3600,
                      provider::plain_provider());
  }

 private:
  static DeterministicRng* rng_;
  static CertificationAuthority* ca_;
  static rsa::PrivateKey* subject_key_;
};

DeterministicRng* PkiFixture::rng_ = nullptr;
CertificationAuthority* PkiFixture::ca_ = nullptr;
rsa::PrivateKey* PkiFixture::subject_key_ = nullptr;

bool same_bytes(ByteView a, ByteView b) { return std::ranges::equal(a, b); }

TEST_F(PkiFixture, RootIsSelfSignedAndValid) {
  const Certificate& root = ca().root_certificate();
  EXPECT_TRUE(root.is_self_signed());
  EXPECT_TRUE(root.is_ca());
  EXPECT_EQ(root.serial(), serial_number(1));
  EXPECT_EQ(root.serial(), Bytes{1});
  // Walked as a one-link chain, the root's self-signature checks.
  EXPECT_EQ(check(root), CertStatus::kValid);
}

TEST_F(PkiFixture, IssueAndVerifyLeaf) {
  Certificate leaf = ca().issue("device-xyz", subject_key().public_key(),
                                kValidity, rng());
  EXPECT_EQ(leaf.issuer_cn(), "Test Root CA");
  EXPECT_EQ(leaf.subject_cn(), "device-xyz");
  EXPECT_FALSE(leaf.is_self_signed());
  EXPECT_FALSE(leaf.is_ca());
  EXPECT_EQ(check(leaf), CertStatus::kValid);
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
  EXPECT_TRUE(same_bytes(parsed.signature(), leaf.signature()));
  EXPECT_EQ(parsed.to_der(), der);
  // The parsed certificate still verifies.
  EXPECT_EQ(check(parsed), CertStatus::kValid);
}

TEST_F(PkiFixture, TbsIsAViewIntoTheDer) {
  Certificate leaf =
      ca().issue("stable", subject_key().public_key(), kValidity, rng());
  EXPECT_TRUE(same_bytes(leaf.tbs_der(),
                         Certificate::from_der(leaf.to_der()).tbs_der()));
  // The signed bytes and the signature sit inside the one encoding the
  // certificate keeps: nothing is re-encoded to check it.
  const Bytes& der = leaf.to_der();
  EXPECT_GT(leaf.tbs_der().data(), der.data());
  EXPECT_LT(leaf.tbs_der().data() + leaf.tbs_der().size(),
            leaf.signature().data());
  EXPECT_EQ(leaf.signature().data() + leaf.signature().size(),
            der.data() + der.size());
  EXPECT_EQ(leaf.signature().size(), ca().public_key().byte_length());
}

TEST_F(PkiFixture, DefaultCertificateHasNoDer) {
  const Certificate none;
  EXPECT_TRUE(none.to_der().empty());
  EXPECT_TRUE(none.tbs_der().empty());
  EXPECT_TRUE(none.signature().empty());
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
    EXPECT_NE(check(parsed), CertStatus::kValid) << "byte " << i;
  }
}

TEST_F(PkiFixture, ValidityWindowEnforced) {
  Certificate leaf =
      ca().issue("window", subject_key().public_key(), kValidity, rng());
  EXPECT_EQ(check(leaf, kValidity.not_before - 10),
            CertStatus::kNotYetValid);
  EXPECT_EQ(check(leaf, kValidity.not_after + 10), CertStatus::kExpired);
}

TEST_F(PkiFixture, IssuerMismatchDetected) {
  // Signed by a key that is not the root's, naming another issuer.
  const Certificate leaf(serial_number(77), "Another CA", "mismatch",
                         kValidity, subject_key().public_key(),
                         /*is_ca=*/false, subject_key(), rng());
  EXPECT_EQ(check(leaf), CertStatus::kIssuerMismatch);
}

TEST_F(PkiFixture, WrongIssuerKeyRejected) {
  // Names the root as its issuer but was signed by another key.
  const Certificate leaf(serial_number(78), "Test Root CA", "wrongkey",
                         kValidity, subject_key().public_key(),
                         /*is_ca=*/false, subject_key(), rng());
  EXPECT_EQ(check(leaf), CertStatus::kBadSignature);
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
  EXPECT_TRUE(same_bytes(odd.tbs_der(), leaf.tbs_der()));
  EXPECT_EQ(odd.to_der(), leaf.to_der());
  ChainVerifier verifier(ca().root_certificate(), provider::plain_provider());
  const std::span<const Certificate> chain(&odd, 1);
  ChainVerdict held = verifier.verify(chain, kNow);
  EXPECT_EQ(held.status, CertStatus::kValid);

  // Revoking the minimal serial catches the padded spelling, at the CA
  // and in a chain verifier's denylist.
  verifier.invalidate_serial(leaf.serial());
  EXPECT_EQ(verifier.revalidate(held, chain, kNow), CertStatus::kRevoked);
  EXPECT_EQ(verifier.verify(chain, kNow).status, CertStatus::kRevoked);
  ca().revoke(leaf.serial());
  EXPECT_TRUE(ca().is_revoked(odd.serial()));
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
  const Bytes nonce = local.bytes(14);

  OcspResponse resp = ca().ocsp_respond(leaf.serial(), nonce, kNow, rng(),
                                        provider::plain_provider());
  EXPECT_EQ(resp.status(), OcspCertStatus::kGood);
  EXPECT_EQ(check(resp, leaf.serial(), nonce), OcspCheck::kGood);

  ca().revoke(leaf.serial());
  OcspResponse resp2 = ca().ocsp_respond(leaf.serial(), nonce, kNow, rng(),
                                         provider::plain_provider());
  EXPECT_EQ(resp2.status(), OcspCertStatus::kRevoked);
  EXPECT_EQ(check(resp2, leaf.serial(), nonce), OcspCheck::kRevoked);

  const Serial unknown = serial_number(99999);
  OcspResponse resp3 = ca().ocsp_respond(unknown, nonce, kNow, rng(),
                                         provider::plain_provider());
  EXPECT_EQ(resp3.status(), OcspCertStatus::kUnknown);
  EXPECT_EQ(check(resp3, unknown, nonce), OcspCheck::kInvalid);
}

TEST_F(PkiFixture, OcspDerRoundTrip) {
  DeterministicRng local(8);
  const Bytes nonce = local.bytes(14);
  OcspResponse resp = ca().ocsp_respond(serial_number(2), nonce, kNow, rng(),
                                        provider::plain_provider());
  OcspResponse parsed = OcspResponse::from_der(resp.to_der());
  EXPECT_EQ(parsed.serial(), resp.serial());
  EXPECT_EQ(parsed.status(), resp.status());
  EXPECT_EQ(parsed.produced_at(), resp.produced_at());
  EXPECT_EQ(parsed.nonce(), resp.nonce());
  EXPECT_EQ(parsed.to_der(), resp.to_der());
  EXPECT_TRUE(same_bytes(parsed.tbs_der(), resp.tbs_der()));
  EXPECT_EQ(check(parsed, serial_number(2), nonce), OcspCheck::kGood);
}

TEST_F(PkiFixture, OcspBindingChecks) {
  DeterministicRng local(9);
  const Bytes nonce = local.bytes(14);
  const Serial serial = serial_number(2);
  OcspResponse resp = ca().ocsp_respond(serial, nonce, kNow, rng(),
                                        provider::plain_provider());
  ASSERT_EQ(check(resp, serial, nonce), OcspCheck::kGood);

  // Wrong nonce.
  EXPECT_EQ(check(resp, serial, local.bytes(14)), OcspCheck::kInvalid);
  // Wrong serial.
  EXPECT_EQ(check(resp, serial_number(3), nonce), OcspCheck::kInvalid);
  // Stale.
  EXPECT_EQ(check(resp, serial, nonce, kNow + 7200), OcspCheck::kInvalid);
  // From the future.
  EXPECT_EQ(check(resp, serial, nonce, kNow - 10), OcspCheck::kInvalid);
  // Wrong responder key.
  EXPECT_EQ(check(resp, serial, nonce, kNow, subject_key().public_key()),
            OcspCheck::kInvalid);
  // A flipped signature byte.
  Bytes bad = resp.to_der();
  bad.back() ^= 0x01;
  EXPECT_EQ(check(OcspResponse::from_der(bad), serial, nonce),
            OcspCheck::kInvalid);
}

TEST_F(PkiFixture, OcspRevokedOnlyWhenGenuinelySigned) {
  // A "revoked" answer signed by another key is invalid, not a
  // revocation: the status is believed only after the signature holds.
  DeterministicRng local(10);
  const Bytes nonce = local.bytes(14);
  const Serial serial = serial_number(2);
  const OcspResponse forged(serial, OcspCertStatus::kRevoked, kNow, nonce,
                            "Test Root CA", subject_key(), rng(),
                            provider::plain_provider());
  EXPECT_EQ(check(forged, serial, nonce), OcspCheck::kInvalid);
  EXPECT_EQ(check(forged, serial, nonce, kNow, subject_key().public_key()),
            OcspCheck::kRevoked);
}

}  // namespace
}  // namespace omadrm::pki
