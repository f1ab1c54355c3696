// Tests for ROAP message serialization and signature payload semantics.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "roap/messages.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::roap {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;

std::string wire_of(const auto& msg) {
  std::string wire;
  xml::Writer w(wire);
  msg.write(w);
  return wire;
}

// Writer -> parse_in -> from_node: the serialize/parse path every
// envelope takes.
template <typename Msg>
Msg round_trip(const Msg& msg) {
  const std::string wire = wire_of(msg);
  xml::Arena arena;
  return Msg::from_node(xml::parse_in(arena, wire));
}

rel::Rights sample_rights() {
  rel::Rights r;
  r.ro_id = "ro:1";
  r.content_id = "cid:x";
  r.dcf_hash = from_hex("00112233445566778899aabbccddeeff00112233");
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  play.constraint.count = 3;
  r.permissions = {play};
  return r;
}

TEST(StatusNames, RoundTrip) {
  for (auto s : {Status::kSuccess, Status::kAbort, Status::kNotRegistered,
                 Status::kSignatureInvalid, Status::kUnknownRoId,
                 Status::kAccessDenied}) {
    EXPECT_EQ(status_from_string(to_string(s)), s);
  }
  EXPECT_THROW(status_from_string("Nope"), Error);
}

TEST(DeviceHello, XmlRoundTrip) {
  DeterministicRng rng(1);
  DeviceHello h;
  h.device_id = "device-01";
  h.algorithms = {"SHA-1", "AES-128-CBC"};
  h.device_nonce = rng.bytes(kNonceLen);
  DeviceHello back = round_trip(h);
  EXPECT_EQ(back.device_id, h.device_id);
  EXPECT_EQ(back.algorithms, h.algorithms);
  EXPECT_EQ(back.device_nonce, h.device_nonce);
}

TEST(RiHello, XmlRoundTrip) {
  DeterministicRng rng(2);
  RiHello h;
  h.status = Status::kSuccess;
  h.ri_id = "ri.example";
  h.session_id = "s-1";
  h.algorithms = {"RSA-PSS"};
  h.ri_nonce = rng.bytes(kNonceLen);
  RiHello back = round_trip(h);
  EXPECT_EQ(back.ri_id, h.ri_id);
  EXPECT_EQ(back.session_id, h.session_id);
  EXPECT_EQ(back.ri_nonce, h.ri_nonce);
}

TEST(RegistrationRequest, XmlRoundTripAndPayload) {
  DeterministicRng rng(3);
  RegistrationRequest r;
  r.session_id = "s-9";
  r.device_id = "device-01";
  r.device_nonce = rng.bytes(kNonceLen);
  r.ri_nonce = rng.bytes(kNonceLen);
  r.certificate_der = rng.bytes(500);
  r.ocsp_nonce = rng.bytes(kNonceLen);

  Bytes unsigned_payload = r.payload();
  r.signature = rng.bytes(128);
  // The signature never covers itself.
  EXPECT_EQ(r.payload(), unsigned_payload);

  RegistrationRequest back = round_trip(r);
  EXPECT_EQ(back.session_id, r.session_id);
  EXPECT_EQ(back.certificate_der, r.certificate_der);
  EXPECT_EQ(back.signature, r.signature);
  EXPECT_EQ(back.payload(), unsigned_payload);
}

TEST(RegistrationResponse, XmlRoundTrip) {
  DeterministicRng rng(4);
  RegistrationResponse r;
  r.status = Status::kSuccess;
  r.session_id = "s-9";
  r.ri_id = "ri.example";
  r.ri_url = "http://ri.example/roap";
  r.ri_certificate_der = rng.bytes(480);
  r.ocsp_response_der = rng.bytes(200);
  r.signature = rng.bytes(128);
  RegistrationResponse back = round_trip(r);
  EXPECT_EQ(back.ri_url, r.ri_url);
  EXPECT_EQ(back.ocsp_response_der, r.ocsp_response_der);
  EXPECT_EQ(back.payload(), r.payload());
}

TEST(ProtectedRo, XmlRoundTripDeviceRo) {
  DeterministicRng rng(5);
  ProtectedRo ro;
  ro.rights = sample_rights();
  ro.wrapped_keys = rng.bytes(168);
  ro.enc_kcek = rng.bytes(24);
  ro.mac = rng.bytes(20);
  ro.ri_id = "ri.example";
  ProtectedRo back = round_trip(ro);
  EXPECT_EQ(back.rights, ro.rights);
  EXPECT_EQ(back.wrapped_keys, ro.wrapped_keys);
  EXPECT_EQ(back.enc_kcek, ro.enc_kcek);
  EXPECT_EQ(back.mac, ro.mac);
  EXPECT_FALSE(back.is_domain_ro);
  EXPECT_TRUE(back.signature.empty());
}

TEST(ProtectedRo, XmlRoundTripDomainRo) {
  DeterministicRng rng(6);
  ProtectedRo ro;
  ro.rights = sample_rights();
  ro.wrapped_keys = rng.bytes(40);
  ro.enc_kcek = rng.bytes(24);
  ro.mac = rng.bytes(20);
  ro.ri_id = "ri.example";
  ro.is_domain_ro = true;
  ro.domain_id = "domain:home";
  ro.signature = rng.bytes(128);
  ProtectedRo back = round_trip(ro);
  EXPECT_TRUE(back.is_domain_ro);
  EXPECT_EQ(back.domain_id, "domain:home");
  EXPECT_EQ(back.signature, ro.signature);
}

TEST(ProtectedRo, MacPayloadBindsAllProtectedFields) {
  DeterministicRng rng(7);
  ProtectedRo ro;
  ro.rights = sample_rights();
  ro.wrapped_keys = rng.bytes(40);
  ro.enc_kcek = rng.bytes(24);
  ro.ri_id = "ri.example";
  Bytes base = ro.mac_payload();

  ProtectedRo changed = ro;
  changed.wrapped_keys[0] ^= 1;
  EXPECT_NE(changed.mac_payload(), base);

  changed = ro;
  changed.enc_kcek[0] ^= 1;
  EXPECT_NE(changed.mac_payload(), base);

  changed = ro;
  changed.rights.ro_id = "ro:other";
  EXPECT_NE(changed.mac_payload(), base);

  changed = ro;
  changed.ri_id = "evil.example";
  EXPECT_NE(changed.mac_payload(), base);

  // The signature covers the MAC as well.
  ProtectedRo with_mac = ro;
  with_mac.mac = rng.bytes(20);
  EXPECT_NE(with_mac.signed_payload(), ro.signed_payload());
}

TEST(RoRequestResponse, XmlRoundTrip) {
  DeterministicRng rng(8);
  RoRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.ro_id = "ro:1";
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);
  RoRequest req_back = round_trip(req);
  EXPECT_EQ(req_back.ro_id, req.ro_id);
  EXPECT_TRUE(req_back.domain_id.empty());
  EXPECT_EQ(req_back.payload(), req.payload());

  RoResponse resp;
  resp.status = Status::kSuccess;
  resp.device_id = req.device_id;
  resp.ri_id = req.ri_id;
  resp.device_nonce = req.device_nonce;
  ProtectedRo ro;
  ro.rights = sample_rights();
  ro.wrapped_keys = rng.bytes(168);
  ro.enc_kcek = rng.bytes(24);
  ro.mac = rng.bytes(20);
  ro.ri_id = req.ri_id;
  resp.ros = {ro};
  resp.signature = rng.bytes(128);
  RoResponse resp_back = round_trip(resp);
  ASSERT_EQ(resp_back.ros.size(), 1u);
  EXPECT_EQ(resp_back.ros[0].rights, ro.rights);
  EXPECT_EQ(resp_back.payload(), resp.payload());
}

TEST(RoResponse, ErrorStatusWithoutRos) {
  RoResponse resp;
  resp.status = Status::kUnknownRoId;
  resp.device_id = "d";
  resp.ri_id = "r";
  resp.device_nonce = Bytes(kNonceLen, 0);
  RoResponse back = round_trip(resp);
  EXPECT_EQ(back.status, Status::kUnknownRoId);
  EXPECT_TRUE(back.ros.empty());
}

TEST(JoinDomain, XmlRoundTrip) {
  DeterministicRng rng(9);
  JoinDomainRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.domain_id = "domain:home";
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);
  JoinDomainRequest req_back = round_trip(req);
  EXPECT_EQ(req_back.domain_id, req.domain_id);
  EXPECT_EQ(req_back.payload(), req.payload());

  JoinDomainResponse resp;
  resp.status = Status::kSuccess;
  resp.domain_id = req.domain_id;
  resp.generation = 3;
  resp.wrapped_domain_key = rng.bytes(152);
  resp.signature = rng.bytes(128);
  JoinDomainResponse resp_back = round_trip(resp);
  EXPECT_EQ(resp_back.generation, 3u);
  EXPECT_EQ(resp_back.wrapped_domain_key, resp.wrapped_domain_key);
  EXPECT_EQ(resp_back.payload(), resp.payload());
}

TEST(LeaveDomain, XmlRoundTrip) {
  DeterministicRng rng(11);
  LeaveDomainRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.domain_id = "domain:home";
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);
  LeaveDomainRequest back = round_trip(req);
  EXPECT_EQ(back.domain_id, req.domain_id);
  EXPECT_EQ(back.payload(), req.payload());

  LeaveDomainResponse resp;
  resp.status = Status::kSuccess;
  resp.domain_id = req.domain_id;
  resp.device_nonce = req.device_nonce;
  resp.signature = rng.bytes(128);
  LeaveDomainResponse rback = round_trip(resp);
  EXPECT_EQ(rback.device_nonce, resp.device_nonce);
  EXPECT_EQ(rback.payload(), resp.payload());
}

TEST(Trigger, XmlRoundTrip) {
  RoAcquisitionTrigger t;
  t.ri_id = "ri.example";
  t.ri_url = "http://ri.example/roap";
  t.ro_id = "ro:42";
  t.content_id = "cid:song@x";
  RoAcquisitionTrigger back = round_trip(t);
  EXPECT_EQ(back.ro_id, "ro:42");
  EXPECT_TRUE(back.domain_id.empty());

  t.domain_id = "domain:home";
  RoAcquisitionTrigger back2 = round_trip(t);
  EXPECT_EQ(back2.domain_id, "domain:home");
}

TEST(ProtectedRo, DomainGenerationRoundTripsAndIsMacProtected) {
  DeterministicRng rng(12);
  ProtectedRo ro;
  ro.rights = sample_rights();
  ro.wrapped_keys = rng.bytes(40);
  ro.enc_kcek = rng.bytes(24);
  ro.mac = rng.bytes(20);
  ro.ri_id = "ri.example";
  ro.is_domain_ro = true;
  ro.domain_id = "domain:home";
  ro.domain_generation = 3;
  ProtectedRo back = round_trip(ro);
  EXPECT_EQ(back.domain_generation, 3u);

  ProtectedRo other = ro;
  other.domain_generation = 4;
  EXPECT_NE(other.mac_payload(), ro.mac_payload());
}

TEST(Messages, WrongRootElementRejected) {
  xml::Arena arena;
  const xml::Node& wrong = xml::parse_in(arena, "<roap:other/>");
  EXPECT_THROW(DeviceHello::from_node(wrong), Error);
  EXPECT_THROW(RiHello::from_node(wrong), Error);
  EXPECT_THROW(RegistrationRequest::from_node(wrong), Error);
  EXPECT_THROW(RegistrationResponse::from_node(wrong), Error);
  EXPECT_THROW(RoRequest::from_node(wrong), Error);
  EXPECT_THROW(RoResponse::from_node(wrong), Error);
  EXPECT_THROW(JoinDomainRequest::from_node(wrong), Error);
  EXPECT_THROW(JoinDomainResponse::from_node(wrong), Error);
  EXPECT_THROW(ProtectedRo::from_node(wrong), Error);
}

TEST(Messages, SerializedFormIsParsableXml) {
  // The wire form is a plain XML document; re-parse through the XML layer.
  DeterministicRng rng(10);
  RoRequest req;
  req.device_id = "d";
  req.ri_id = "r";
  req.ro_id = "ro:1";
  req.device_nonce = rng.bytes(kNonceLen);
  const std::string wire = wire_of(req);
  xml::Arena arena;
  EXPECT_EQ(xml::parse_in(arena, wire).name(), "roap:roRequest");
}

}  // namespace
}  // namespace omadrm::roap
