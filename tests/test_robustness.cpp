// Robustness suite: every parser in the stack is fed mutated and garbage
// input. The contract is uniform — malformed input either throws
// omadrm::Error or yields an object that subsequently fails verification;
// nothing crashes, loops, or silently succeeds with corrupted security
// state. (Deterministic mutation fuzzing: every run exercises the same
// inputs.)
#include <gtest/gtest.h>

#include "agent/drm_agent.h"
#include "asn1/der.h"
#include "ci/content_issuer.h"
#include "common/base64.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "dcf/dcf.h"
#include "pki/authority.h"
#include "pki/chain.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/messages.h"
#include "roap/transport.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm {
namespace {

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

/// Applies `n` random single-byte mutations.
Bytes mutate(Bytes data, Rng& rng, int n = 1) {
  for (int i = 0; i < n && !data.empty(); ++i) {
    std::size_t pos = rng.uniform(data.size());
    switch (rng.uniform(3)) {
      case 0: data[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255)); break;
      case 1: data.erase(data.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      default:
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<std::uint8_t>(rng.uniform(256)));
    }
  }
  return data;
}

std::string ro_wire(const roap::ProtectedRo& ro) {
  std::string wire;
  xml::Writer w(wire);
  ro.write(w);
  return wire;
}

roap::ProtectedRo parse_ro(std::string_view wire) {
  xml::Arena arena;
  return roap::ProtectedRo::from_node(xml::parse_in(arena, wire));
}

TEST(Robustness, XmlParserNeverCrashesOnMutations) {
  DeterministicRng rng(0xF00);
  std::string wire;
  xml::Writer w(wire);
  w.open("roap:roRequest");
  w.attr("id", "x");
  w.text_element("roap:deviceID", "device & <friends>");
  w.close();
  xml::Arena arena;
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 500; ++i) {
    Bytes m = mutate(to_bytes(wire), rng, 1 + static_cast<int>(rng.uniform(4)));
    const std::string doc = to_string(m);
    arena.reset();
    try {
      (void)xml::parse_in(arena, doc);
      ++parsed;  // structurally still valid XML — fine
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, 500);
}

TEST(Robustness, XmlParserOnRandomGarbage) {
  DeterministicRng rng(0xF01);
  xml::Arena arena;
  for (int i = 0; i < 300; ++i) {
    Bytes garbage = rng.bytes(1 + rng.uniform(200));
    const std::string doc = to_string(garbage);
    arena.reset();
    try {
      (void)xml::parse_in(arena, doc);
    } catch (const Error&) {
      // expected almost always
    }
  }
  SUCCEED();
}

TEST(Robustness, DerDecoderOnMutatedCertificates) {
  DeterministicRng rng(0xF02);
  pki::CertificationAuthority ca("Fuzz CA", 512, kValidity, rng);
  rsa::PrivateKey leaf_key = rsa::generate_key(512, rng);
  pki::Certificate cert =
      ca.issue("leaf", leaf_key.public_key(), kValidity, rng);
  Bytes der = cert.to_der();
  const pki::ChainVerifier verifier(ca.root_certificate(),
                                    provider::plain_provider());

  int structurally_ok_but_invalid = 0;
  for (int i = 0; i < 400; ++i) {
    Bytes m = mutate(der, rng);
    try {
      pki::Certificate parsed = pki::Certificate::from_der(m);
      // Structure survived the mutation: the signature must not.
      pki::CertStatus status =
          verifier.verify(std::span<const pki::Certificate>(&parsed, 1), kNow)
              .status;
      if (status == pki::CertStatus::kValid) {
        // Only acceptable if the mutation did not change any covered byte
        // (possible when insert+erase cancel out); re-serialize to check.
        EXPECT_EQ(parsed.to_der(), der) << "mutation " << i;
      } else {
        ++structurally_ok_but_invalid;
      }
    } catch (const Error&) {
      // rejected at parse — fine
    }
  }
  EXPECT_GT(structurally_ok_but_invalid, 0);
}

TEST(Robustness, DerDecoderOnRandomGarbage) {
  DeterministicRng rng(0xF03);
  for (int i = 0; i < 300; ++i) {
    Bytes garbage = rng.bytes(1 + rng.uniform(120));
    try {
      asn1::Decoder d(garbage);
      (void)d.read_sequence();
    } catch (const Error&) {
    }
    try {
      pki::Certificate::from_der(garbage);
    } catch (const Error&) {
    }
    try {
      pki::OcspResponse::from_der(garbage);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, DcfParserOnMutations) {
  DeterministicRng rng(0xF04);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:fuzz";
  h.rights_issuer_url = "http://ri/";
  dcf::Dcf d = dcf::make_dcf(h, rng.bytes(500), rng.bytes(16), rng.bytes(16));
  Bytes wire = d.serialize();
  Bytes original_hash = d.hash();

  for (int i = 0; i < 400; ++i) {
    Bytes m = mutate(wire, rng);
    try {
      dcf::Dcf parsed = dcf::Dcf::parse(m);
      // Parsed fine: then the DCF hash binding must catch the change,
      // unless the mutations cancelled out byte-for-byte.
      if (parsed.hash() == original_hash) {
        EXPECT_EQ(parsed.serialize(), wire);
      }
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

class RoMutationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0xF05);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ci_ = std::make_unique<ci::ContentIssuer>(
        "c.example", provider::plain_provider(), *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity,
        provider::plain_provider(), *rng_);
    device_ = std::make_unique<agent::DrmAgent>(
        "device-01", ca_->root_certificate(), provider::plain_provider(),
        *rng_);
    device_->provision(
        ca_->issue("device-01", device_->public_key(), kValidity, *rng_));

    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = "cid:fuzz@c.example";
    h.rights_issuer_url = ri_->url();
    dcf::Dcf dcf = ci_->package(h, rng_->bytes(800));

    ri::LicenseOffer offer;
    offer.ro_id = "ro:fuzz";
    offer.content_id = h.content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = *ci_->kcek_for(h.content_id);
    ri_->add_offer(offer);

    roap::InProcessTransport transport(*ri_, kNow);
    ASSERT_EQ(device_->register_with(transport, kNow),
              agent::AgentStatus::kOk);
    auto acq = device_->acquire_ro(transport, "ri.example", "ro:fuzz", kNow);
    ASSERT_EQ(acq, agent::AgentStatus::kOk);
    ro_wire_ = ro_wire(*acq);
  }

  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ci::ContentIssuer> ci_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<agent::DrmAgent> device_;
  std::string ro_wire_;
};

TEST_F(RoMutationFixture, MutatedProtectedRoNeverInstallsCleanly) {
  DeterministicRng mut_rng(0xF06);
  int installed_identical = 0, refused = 0;
  for (int i = 0; i < 250; ++i) {
    Bytes m = mutate(to_bytes(ro_wire_), mut_rng,
                     1 + static_cast<int>(mut_rng.uniform(3)));
    roap::ProtectedRo ro;
    try {
      ro = parse_ro(to_string(m));
    } catch (const Error&) {
      ++refused;
      continue;
    }
    agent::AgentStatus status = device_->install_ro(ro, kNow);
    if (status == agent::AgentStatus::kOk) {
      // Installing is only legitimate when the document is semantically
      // unchanged (e.g. whitespace/mutation cancelled out).
      EXPECT_EQ(ro_wire(ro), ro_wire_) << "mutation " << i;
      ++installed_identical;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(installed_identical + refused, 250);
  EXPECT_GT(refused, 200);
}

TEST_F(RoMutationFixture, MutatedAgentStateNeverImportsSilently) {
  ASSERT_EQ(device_->install_ro(parse_ro(ro_wire_), kNow),
            agent::AgentStatus::kOk);
  Bytes image = device_->export_state();
  DeterministicRng mut_rng(0xF07);
  for (int i = 0; i < 150; ++i) {
    Bytes m = mutate(image, mut_rng, 1 + static_cast<int>(mut_rng.uniform(3)));
    agent::DrmAgent scratch("scratch", ca_->root_certificate(),
                            provider::plain_provider(), *rng_, 512);
    try {
      scratch.import_state(m);
      // Import succeeded: state must be internally consistent enough to
      // re-export without crashing.
      Bytes roundtrip = scratch.export_state();
      EXPECT_FALSE(roundtrip.empty());
    } catch (const Error&) {
      // rejected — fine
    }
  }
  SUCCEED();
}

TEST(Robustness, Base64AndHexGarbage) {
  DeterministicRng rng(0xF08);
  for (int i = 0; i < 200; ++i) {
    Bytes garbage = rng.bytes(1 + rng.uniform(64));
    std::string s = to_string(garbage);
    try {
      base64_decode(s);
    } catch (const Error&) {
    }
    try {
      from_hex(s);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, RoapMessagesFromForeignXml) {
  // Structurally valid XML documents that are not the expected message
  // must be rejected with kFormat, not crash.
  const char* docs[] = {
      "<roap:roResponse status=\"Success\"/>",
      "<roap:registrationResponse status=\"Bogus\"/>",
      "<roap:protectedRO><o-ex:rights/></roap:protectedRO>",
      "<roap:joinDomainResponse status=\"Success\">"
      "<roap:domainID>d</roap:domainID>"
      "<roap:generation>99999999999999</roap:generation>"
      "<roap:domainKey>AAAA</roap:domainKey></roap:joinDomainResponse>",
  };
  for (const char* doc : docs) {
    xml::Arena arena;
    const xml::Node& e = xml::parse_in(arena, doc);
    bool threw = false;
    try {
      (void)roap::RoResponse::from_node(e);
    } catch (const Error&) {
      threw = true;
    }
    try {
      (void)roap::RegistrationResponse::from_node(e);
    } catch (const Error&) {
      threw = true;
    }
    try {
      (void)roap::ProtectedRo::from_node(e);
    } catch (const Error&) {
      threw = true;
    }
    try {
      (void)roap::JoinDomainResponse::from_node(e);
    } catch (const Error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << doc;
  }
}

}  // namespace
}  // namespace omadrm
