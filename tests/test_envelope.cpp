// Envelope / wire-boundary tests: every ROAP message type survives a full
// serialize→parse round trip bit-identically (field equality), and
// malformed wire input — truncated documents, wrong root elements,
// type-confused opens, stripped signatures — is rejected cleanly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::roap {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;

rel::Rights sample_rights(DeterministicRng& rng) {
  rel::Rights r;
  r.ro_id = "ro:rt";
  r.content_id = "cid:rt@example";
  r.dcf_hash = rng.bytes(20);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  play.constraint.count = 7;
  r.permissions = {play};
  return r;
}

ProtectedRo sample_ro(DeterministicRng& rng, bool domain) {
  ProtectedRo ro;
  ro.rights = sample_rights(rng);
  ro.wrapped_keys = rng.bytes(domain ? 40 : 168);
  ro.enc_kcek = rng.bytes(24);
  ro.mac = rng.bytes(20);
  ro.ri_id = "ri.example";
  if (domain) {
    ro.is_domain_ro = true;
    ro.domain_id = "domain:home";
    ro.domain_generation = 3;
    ro.signature = rng.bytes(128);
  }
  return ro;
}

// Writer -> parse_in -> from_node on the raw document, without the
// envelope (the storage / out-of-band path).
template <typename Msg>
Msg raw_round_trip(const Msg& msg, std::string& wire) {
  xml::Writer w(wire);
  msg.write(w);
  xml::Arena arena;
  return Msg::from_node(xml::parse_in(arena, wire));
}

/// parse(serialize(msg)) must equal msg, via the envelope boundary and
/// via the raw document.
template <typename Msg>
void expect_round_trip(const Msg& msg) {
  // Through the envelope (the transport path).
  Envelope env = Envelope::wrap(msg);
  Envelope back = Envelope::from_wire(env.wire());
  EXPECT_EQ(back.type(), MessageTraits<Msg>::kType);
  EXPECT_EQ(back.template open<Msg>(), msg);
  // Through the raw document (storage / out-of-band path).
  std::string wire;
  EXPECT_EQ(raw_round_trip(msg, wire), msg);
  EXPECT_EQ(wire, env.wire());
}

TEST(EnvelopeRoundTrip, EveryMessageType) {
  DeterministicRng rng(0xE1);

  DeviceHello hello;
  hello.device_id = "device-01";
  hello.algorithms = {"SHA-1", "RSA-PSS", "KDF2"};
  hello.device_nonce = rng.bytes(kNonceLen);
  expect_round_trip(hello);

  RiHello ri_hello;
  ri_hello.status = Status::kSuccess;
  ri_hello.ri_id = "ri.example";
  ri_hello.session_id = "s-17";
  ri_hello.algorithms = {"SHA-1"};
  ri_hello.ri_nonce = rng.bytes(kNonceLen);
  expect_round_trip(ri_hello);

  RegistrationRequest reg_req;
  reg_req.session_id = "s-17";
  reg_req.device_id = "device-01";
  reg_req.device_nonce = rng.bytes(kNonceLen);
  reg_req.ri_nonce = rng.bytes(kNonceLen);
  reg_req.certificate_der = rng.bytes(480);
  reg_req.ocsp_nonce = rng.bytes(kNonceLen);
  reg_req.signature = rng.bytes(128);
  expect_round_trip(reg_req);

  RegistrationResponse reg_resp;
  reg_resp.status = Status::kSuccess;
  reg_resp.session_id = "s-17";
  reg_resp.ri_id = "ri.example";
  reg_resp.ri_url = "http://ri.example/roap";
  reg_resp.ri_certificate_der = rng.bytes(500);
  reg_resp.ri_certificate_chain_der = {rng.bytes(490), rng.bytes(470)};
  reg_resp.ocsp_response_der = rng.bytes(220);
  reg_resp.signature = rng.bytes(128);
  expect_round_trip(reg_resp);

  RoRequest ro_req;
  ro_req.device_id = "device-01";
  ro_req.ri_id = "ri.example";
  ro_req.ro_id = "ro:rt";
  ro_req.domain_id = "domain:home";
  ro_req.device_nonce = rng.bytes(kNonceLen);
  ro_req.signature = rng.bytes(128);
  expect_round_trip(ro_req);

  RoResponse ro_resp;
  ro_resp.status = Status::kSuccess;
  ro_resp.device_id = "device-01";
  ro_resp.ri_id = "ri.example";
  ro_resp.device_nonce = ro_req.device_nonce;
  ro_resp.ros = {sample_ro(rng, false), sample_ro(rng, true)};
  ro_resp.signature = rng.bytes(128);
  expect_round_trip(ro_resp);

  JoinDomainRequest join_req;
  join_req.device_id = "device-01";
  join_req.ri_id = "ri.example";
  join_req.domain_id = "domain:home";
  join_req.device_nonce = rng.bytes(kNonceLen);
  join_req.signature = rng.bytes(128);
  expect_round_trip(join_req);

  JoinDomainResponse join_resp;
  join_resp.status = Status::kSuccess;
  join_resp.domain_id = "domain:home";
  join_resp.generation = 5;
  join_resp.wrapped_domain_key = rng.bytes(152);
  join_resp.signature = rng.bytes(128);
  expect_round_trip(join_resp);

  LeaveDomainRequest leave_req;
  leave_req.device_id = "device-01";
  leave_req.ri_id = "ri.example";
  leave_req.domain_id = "domain:home";
  leave_req.device_nonce = rng.bytes(kNonceLen);
  leave_req.signature = rng.bytes(128);
  expect_round_trip(leave_req);

  LeaveDomainResponse leave_resp;
  leave_resp.status = Status::kSuccess;
  leave_resp.domain_id = "domain:home";
  leave_resp.device_nonce = leave_req.device_nonce;
  leave_resp.signature = rng.bytes(128);
  expect_round_trip(leave_resp);

  RoAcquisitionTrigger trigger;
  trigger.ri_id = "ri.example";
  trigger.ri_url = "http://ri.example/roap";
  trigger.ro_id = "ro:rt";
  trigger.content_id = "cid:rt@example";
  trigger.domain_id = "domain:home";
  expect_round_trip(trigger);
}

TEST(EnvelopeRoundTrip, FailureStatusesRoundTrip) {
  // Error responses (no payload, no signature) are wire documents too.
  for (Status st : {Status::kAbort, Status::kNotRegistered,
                    Status::kSignatureInvalid, Status::kUnknownRoId,
                    Status::kAccessDenied}) {
    RoResponse resp;
    resp.status = st;
    resp.device_id = "d";
    resp.ri_id = "r";
    resp.device_nonce = Bytes(kNonceLen, 0x5a);
    expect_round_trip(resp);
  }
}

TEST(EnvelopeRoundTrip, OptionalFieldsAbsent) {
  DeterministicRng rng(0xE2);
  // Unsigned device RO, no domain fields, empty algorithm lists.
  ProtectedRo ro = sample_ro(rng, false);
  RoResponse resp;
  resp.status = Status::kSuccess;
  resp.device_id = "d";
  resp.ri_id = "r";
  resp.device_nonce = rng.bytes(kNonceLen);
  resp.ros = {ro};
  expect_round_trip(resp);

  DeviceHello hello;
  hello.device_id = "d";
  hello.device_nonce = rng.bytes(kNonceLen);
  expect_round_trip(hello);

  RoRequest req;  // no domain, no signature
  req.device_id = "d";
  req.ri_id = "r";
  req.ro_id = "ro:1";
  req.device_nonce = rng.bytes(kNonceLen);
  expect_round_trip(req);
}

TEST(EnvelopeMalformed, TruncatedDocumentsRejected) {
  DeterministicRng rng(0xE3);
  RoRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.ro_id = "ro:1";
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);
  const std::string wire = Envelope::wrap(req).wire();

  // Every strict prefix must be rejected at the boundary (truncation can
  // never silently yield a message).
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, wire.size() / 4,
                          wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(Envelope::from_wire(wire.substr(0, len)), Error)
        << "prefix length " << len;
  }
}

TEST(EnvelopeMalformed, UnknownRootRejected) {
  EXPECT_THROW(Envelope::from_wire("<roap:fooRequest/>"), Error);
  EXPECT_THROW(Envelope::from_wire("<o-ex:rights/>"), Error);
  EXPECT_THROW(Envelope::from_wire("plain text"), Error);
  EXPECT_THROW(Envelope::from_wire(""), Error);
}

TEST(EnvelopeMalformed, OpenChecksTypeBeforeParsing) {
  DeviceHello hello;
  hello.device_id = "d";
  hello.device_nonce = Bytes(kNonceLen, 1);
  Envelope env = Envelope::wrap(hello);
  EXPECT_EQ(env.type(), MessageType::kDeviceHello);
  // Opening as a different message is a type error (kProtocol), and must
  // not be confused with a parse error.
  try {
    (void)env.open<RoResponse>();
    FAIL() << "type-confused open succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  // The correct open still works afterwards.
  EXPECT_EQ(env.open<DeviceHello>(), hello);
}

TEST(EnvelopeMalformed, MissingRequiredChildRejected) {
  // Structurally valid XML with the right root but gutted content must be
  // rejected when opened (required children absent).
  Envelope env = Envelope::from_wire("<roap:registrationRequest/>");
  EXPECT_EQ(env.type(), MessageType::kRegistrationRequest);
  EXPECT_THROW((void)env.open<RegistrationRequest>(), Error);

  Envelope ro = Envelope::from_wire(
      "<roap:roResponse status=\"Success\"></roap:roResponse>");
  EXPECT_THROW((void)ro.open<RoResponse>(), Error);
}

TEST(EnvelopeMalformed, SignatureStrippingIsDetectable) {
  DeterministicRng rng(0xE4);
  RoRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.ro_id = "ro:1";
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);

  // An attacker removing <roap:signature> still yields a parseable
  // document (the element is optional on the wire so unsigned drafts can
  // be built) — but the parsed message visibly has no signature, which
  // every verifier treats as invalid.
  std::string wire(Envelope::wrap(req).wire());
  const std::string_view close_tag = "</roap:signature>";
  const std::size_t begin = wire.find("<roap:signature>");
  const std::size_t end = wire.find(close_tag);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  wire.erase(begin, end + close_tag.size() - begin);
  RoRequest stripped = Envelope::from_wire(wire).open<RoRequest>();
  EXPECT_TRUE(stripped.signature.empty());
  EXPECT_NE(stripped, req);
  // And the signed payload is unchanged by stripping — what was signed is
  // exactly what survives.
  EXPECT_EQ(stripped.payload(), req.payload());
}

TEST(EnvelopeMalformed, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(MessageType::kRegistrationRequest),
               "RegistrationRequest");
  EXPECT_STREQ(root_element(MessageType::kRegistrationRequest),
               "roap:registrationRequest");
  EXPECT_TRUE(is_request(MessageType::kRoRequest));
  EXPECT_FALSE(is_request(MessageType::kRoResponse));
  EXPECT_FALSE(is_request(MessageType::kRoAcquisitionTrigger));
}

// ---------------------------------------------------------------------------
// Envelope value semantics over the pooled buffers: the retained DOM
// aliases the retained wire bytes, so moves must keep it valid, copies
// must re-derive it, and recycled buffers must never leak content
// between envelopes.
// ---------------------------------------------------------------------------

RoRequest sample_request(DeterministicRng& rng, const std::string& ro_id) {
  RoRequest req;
  req.device_id = "device-01";
  req.ri_id = "ri.example";
  req.ro_id = ro_id;
  req.device_nonce = rng.bytes(kNonceLen);
  req.signature = rng.bytes(128);
  return req;
}

TEST(EnvelopeSemantics, MoveKeepsParsedViewValid) {
  DeterministicRng rng(0xD1);
  RoRequest req = sample_request(rng, "ro:move");
  Envelope a = Envelope::wrap(req);
  const std::string wire = a.wire();
  Envelope b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_THROW(a.doc(), Error);
  EXPECT_EQ(b.wire(), wire);
  EXPECT_EQ(b.open<RoRequest>(), req);
  Envelope c;
  c = std::move(b);
  EXPECT_EQ(c.open<RoRequest>(), req);
}

TEST(EnvelopeSemantics, CopyReparsesIndependently) {
  DeterministicRng rng(0xD2);
  RoRequest req = sample_request(rng, "ro:copy");
  Envelope a = Envelope::wrap(req);
  Envelope b = a;
  EXPECT_EQ(a.wire(), b.wire());
  // Destroying the original must not invalidate the copy's DOM.
  a = Envelope();
  EXPECT_EQ(b.open<RoRequest>(), req);
}

TEST(EnvelopeSemantics, RecycledBuffersDoNotLeakContent) {
  DeterministicRng rng(0xD3);
  // Churn envelopes through the pool with different payload sizes; each
  // must see exactly its own message.
  for (int i = 0; i < 100; ++i) {
    RoRequest req = sample_request(
        rng, "ro:churn-" + std::string(static_cast<std::size_t>(i % 7), 'x') +
                 std::to_string(i));
    Envelope env = Envelope::wrap(req);
    Envelope back = Envelope::from_wire(env.wire());
    ASSERT_EQ(back.open<RoRequest>(), req) << "iteration " << i;
  }
}

TEST(EnvelopeSemantics, WrapParsesItsOwnBytes) {
  // The invariant the transport relies on: an envelope's DOM is the
  // parse of its serialized bytes, so wrap() and from_wire() agree.
  DeterministicRng rng(0xD4);
  RoRequest req = sample_request(rng, "ro:inv");
  Envelope wrapped = Envelope::wrap(req);
  Envelope rewired = Envelope::from_wire(wrapped.wire());
  EXPECT_EQ(wrapped.type(), rewired.type());
  EXPECT_EQ(wrapped.doc().name(), rewired.doc().name());
  EXPECT_EQ(wrapped.open<RoRequest>(), rewired.open<RoRequest>());
}

}  // namespace
}  // namespace omadrm::roap
