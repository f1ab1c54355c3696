#include "roap/messages.h"

#include "common/base64.h"
#include "common/error.h"

namespace omadrm::roap {

using omadrm::Error;
using omadrm::ErrorKind;
using omadrm::StatusCode;
using xml::Node;
using xml::Writer;

const char* to_string(Status s) {
  switch (s) {
    case Status::kSuccess: return "Success";
    case Status::kAbort: return "Abort";
    case Status::kNotRegistered: return "NotRegistered";
    case Status::kSignatureInvalid: return "SignatureInvalid";
    case Status::kUnknownRoId: return "UnknownRoId";
    case Status::kAccessDenied: return "AccessDenied";
    case Status::kSessionExpired: return "SessionExpired";
    case Status::kStoreFailure: return "StoreFailure";
  }
  return "Abort";
}

omadrm::StatusCode status_code(Status s) {
  switch (s) {
    case Status::kSuccess: return StatusCode::kOk;
    case Status::kAbort: return StatusCode::kRiAborted;
    case Status::kNotRegistered: return StatusCode::kNotRegistered;
    case Status::kSignatureInvalid: return StatusCode::kSignatureInvalid;
    case Status::kUnknownRoId: return StatusCode::kUnknownRoId;
    case Status::kAccessDenied: return StatusCode::kAccessDenied;
    case Status::kSessionExpired: return StatusCode::kSessionExpired;
    case Status::kStoreFailure: return StatusCode::kStoreFailure;
  }
  return StatusCode::kRiAborted;
}

Status status_from_string(std::string_view s) {
  if (s == "Success") return Status::kSuccess;
  if (s == "Abort") return Status::kAbort;
  if (s == "NotRegistered") return Status::kNotRegistered;
  if (s == "SignatureInvalid") return Status::kSignatureInvalid;
  if (s == "UnknownRoId") return Status::kUnknownRoId;
  if (s == "AccessDenied") return Status::kAccessDenied;
  if (s == "SessionExpired") return Status::kSessionExpired;
  if (s == "StoreFailure") return Status::kStoreFailure;
  throw Error(ErrorKind::kFormat,
              "roap: unknown status '" + std::string(s) + "'");
}

namespace {

// ---------------------------------------------------------------------------
// Serialization helpers. Each message's write() (Writer) and from_node()
// (zero-copy Node DOM) are the single source of truth for its wire shape.
// ---------------------------------------------------------------------------

Bytes get_b64(const Node& e, const char* name) {
  return base64_decode(e.child_text(name));
}

Bytes get_b64_optional(const Node& e, const char* name) {
  const auto* c = e.child(name);
  return c ? base64_decode(c->text()) : Bytes{};
}

void write_algorithms(Writer& w, const std::vector<std::string>& algs) {
  w.open("roap:supportedAlgorithms");
  for (const auto& a : algs) w.text_element("roap:algorithm", a);
  w.close();
}

std::vector<std::string> get_algorithms(const Node& e) {
  std::vector<std::string> out;
  if (const auto* list = e.child("roap:supportedAlgorithms")) {
    for (const auto* a : list->children_named("roap:algorithm")) {
      out.emplace_back(a->text());
    }
  }
  return out;
}

std::uint32_t parse_u32(std::string_view s) {
  std::uint64_t v = 0;
  if (s.empty()) throw Error(ErrorKind::kFormat, "roap: empty number");
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw Error(ErrorKind::kFormat,
                  "roap: bad number '" + std::string(s) + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffull) {
      throw Error(ErrorKind::kFormat, "roap: number overflow");
    }
  }
  return static_cast<std::uint32_t>(v);
}

void expect_root(const Node& e, std::string_view root) {
  if (e.name() != root) {
    throw Error(ErrorKind::kFormat,
                "roap: expected <" + std::string(root) + ">");
  }
}

// Thread-local scratch for payload() — the canonical unsigned
// serialization is streamed here, hashed/compared by the caller, and the
// buffer's capacity is reused by every later payload on the thread.
std::string& payload_scratch() {
  thread_local std::string s;
  return s;
}

template <typename Msg>
Bytes payload_of(const Msg& m) {
  std::string& s = payload_scratch();
  Writer w(s);
  m.write_payload(w);
  return to_bytes(s);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProtectedRo
// ---------------------------------------------------------------------------

Bytes ProtectedRo::mac_payload() const {
  Bytes rights_bytes = to_bytes(rights.serialize());
  Bytes id_bytes = to_bytes(
      ri_id + "|" +
      (is_domain_ro ? domain_id + "#" + std::to_string(domain_generation)
                    : ""));
  return concat({rights_bytes, wrapped_keys, enc_kcek, id_bytes});
}

Bytes ProtectedRo::signed_payload() const {
  return concat({mac_payload(), mac});
}

void ProtectedRo::write(Writer& w) const {
  w.open("roap:protectedRO");
  rights.write(w);
  w.b64_element("roap:encKey", wrapped_keys);
  w.b64_element("roap:encCEK", enc_kcek);
  w.b64_element("roap:mac", mac);
  w.text_element("roap:riID", ri_id);
  if (is_domain_ro) {
    w.text_element("roap:domainID", domain_id);
    w.u64_element("roap:domainGeneration", domain_generation);
  }
  if (!signature.empty()) {
    w.b64_element("roap:signature", signature);
  }
  w.close();
}

ProtectedRo ProtectedRo::from_node(const Node& e) {
  expect_root(e, "roap:protectedRO");
  ProtectedRo out;
  out.rights = rel::Rights::from_node(e.require_child("o-ex:rights"));
  out.wrapped_keys = get_b64(e, "roap:encKey");
  out.enc_kcek = get_b64(e, "roap:encCEK");
  out.mac = get_b64(e, "roap:mac");
  out.ri_id = e.child_text("roap:riID");
  if (const auto* d = e.child("roap:domainID")) {
    out.is_domain_ro = true;
    out.domain_id = d->text();
    if (const auto* g = e.child("roap:domainGeneration")) {
      out.domain_generation = parse_u32(g->text());
    }
  }
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

// ---------------------------------------------------------------------------
// DeviceHello / RiHello
// ---------------------------------------------------------------------------

void DeviceHello::write(Writer& w) const {
  w.open("roap:deviceHello");
  w.text_element("roap:deviceID", device_id);
  write_algorithms(w, algorithms);
  w.b64_element("roap:nonce", device_nonce);
  w.close();
}

DeviceHello DeviceHello::from_node(const Node& e) {
  expect_root(e, "roap:deviceHello");
  DeviceHello out;
  out.device_id = e.child_text("roap:deviceID");
  out.algorithms = get_algorithms(e);
  out.device_nonce = get_b64(e, "roap:nonce");
  return out;
}

void RiHello::write(Writer& w) const {
  w.open("roap:riHello");
  w.attr("status", to_string(status));
  w.text_element("roap:riID", ri_id);
  w.text_element("roap:sessionID", session_id);
  write_algorithms(w, algorithms);
  w.b64_element("roap:nonce", ri_nonce);
  w.close();
}

RiHello RiHello::from_node(const Node& e) {
  expect_root(e, "roap:riHello");
  RiHello out;
  out.status = status_from_string(e.require_attr("status"));
  out.ri_id = e.child_text("roap:riID");
  out.session_id = e.child_text("roap:sessionID");
  out.algorithms = get_algorithms(e);
  out.ri_nonce = get_b64(e, "roap:nonce");
  return out;
}

// ---------------------------------------------------------------------------
// RegistrationRequest / RegistrationResponse
// ---------------------------------------------------------------------------

namespace {

void write_registration_request(const RegistrationRequest& m, Writer& w,
                                bool with_signature) {
  w.open("roap:registrationRequest");
  w.text_element("roap:sessionID", m.session_id);
  w.text_element("roap:deviceID", m.device_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  w.b64_element("roap:riNonce", m.ri_nonce);
  w.b64_element("roap:certificate", m.certificate_der);
  w.b64_element("roap:ocspNonce", m.ocsp_nonce);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void RegistrationRequest::write(Writer& w) const {
  write_registration_request(*this, w, true);
}

void RegistrationRequest::write_payload(Writer& w) const {
  write_registration_request(*this, w, false);
}

Bytes RegistrationRequest::payload() const { return payload_of(*this); }

RegistrationRequest RegistrationRequest::from_node(const Node& e) {
  expect_root(e, "roap:registrationRequest");
  RegistrationRequest out;
  out.session_id = e.child_text("roap:sessionID");
  out.device_id = e.child_text("roap:deviceID");
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  out.ri_nonce = get_b64(e, "roap:riNonce");
  out.certificate_der = get_b64(e, "roap:certificate");
  out.ocsp_nonce = get_b64(e, "roap:ocspNonce");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

namespace {

void write_registration_response(const RegistrationResponse& m, Writer& w,
                                 bool with_signature) {
  w.open("roap:registrationResponse");
  w.attr("status", to_string(m.status));
  w.text_element("roap:sessionID", m.session_id);
  w.text_element("roap:riID", m.ri_id);
  w.text_element("roap:riURL", m.ri_url);
  w.b64_element("roap:certificate", m.ri_certificate_der);
  for (const Bytes& der : m.ri_certificate_chain_der) {
    w.b64_element("roap:chainCertificate", der);
  }
  w.b64_element("roap:ocspResponse", m.ocsp_response_der);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void RegistrationResponse::write(Writer& w) const {
  write_registration_response(*this, w, true);
}

void RegistrationResponse::write_payload(Writer& w) const {
  write_registration_response(*this, w, false);
}

Bytes RegistrationResponse::payload() const { return payload_of(*this); }

RegistrationResponse RegistrationResponse::from_node(const Node& e) {
  expect_root(e, "roap:registrationResponse");
  RegistrationResponse out;
  out.status = status_from_string(e.require_attr("status"));
  out.session_id = e.child_text("roap:sessionID");
  out.ri_id = e.child_text("roap:riID");
  out.ri_url = e.child_text("roap:riURL");
  out.ri_certificate_der = get_b64(e, "roap:certificate");
  for (const auto* c : e.children_named("roap:chainCertificate")) {
    out.ri_certificate_chain_der.push_back(base64_decode(c->text()));
  }
  out.ocsp_response_der = get_b64(e, "roap:ocspResponse");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

// ---------------------------------------------------------------------------
// RoRequest / RoResponse
// ---------------------------------------------------------------------------

namespace {

void write_ro_request(const RoRequest& m, Writer& w, bool with_signature) {
  w.open("roap:roRequest");
  w.text_element("roap:deviceID", m.device_id);
  w.text_element("roap:riID", m.ri_id);
  w.text_element("roap:roID", m.ro_id);
  if (!m.domain_id.empty()) w.text_element("roap:domainID", m.domain_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void RoRequest::write(Writer& w) const { write_ro_request(*this, w, true); }

void RoRequest::write_payload(Writer& w) const {
  write_ro_request(*this, w, false);
}

Bytes RoRequest::payload() const { return payload_of(*this); }

RoRequest RoRequest::from_node(const Node& e) {
  expect_root(e, "roap:roRequest");
  RoRequest out;
  out.device_id = e.child_text("roap:deviceID");
  out.ri_id = e.child_text("roap:riID");
  out.ro_id = e.child_text("roap:roID");
  if (const auto* d = e.child("roap:domainID")) out.domain_id = d->text();
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

namespace {

void write_ro_response(const RoResponse& m, Writer& w, bool with_signature) {
  w.open("roap:roResponse");
  w.attr("status", to_string(m.status));
  w.text_element("roap:deviceID", m.device_id);
  w.text_element("roap:riID", m.ri_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  for (const auto& ro : m.ros) {
    ro.write(w);
  }
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void RoResponse::write(Writer& w) const { write_ro_response(*this, w, true); }

void RoResponse::write_payload(Writer& w) const {
  write_ro_response(*this, w, false);
}

Bytes RoResponse::payload() const { return payload_of(*this); }

RoResponse RoResponse::from_node(const Node& e) {
  expect_root(e, "roap:roResponse");
  RoResponse out;
  out.status = status_from_string(e.require_attr("status"));
  out.device_id = e.child_text("roap:deviceID");
  out.ri_id = e.child_text("roap:riID");
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  for (const auto* ro : e.children_named("roap:protectedRO")) {
    out.ros.push_back(ProtectedRo::from_node(*ro));
  }
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

// ---------------------------------------------------------------------------
// JoinDomainRequest / JoinDomainResponse
// ---------------------------------------------------------------------------

namespace {

void write_join_domain_request(const JoinDomainRequest& m, Writer& w,
                               bool with_signature) {
  w.open("roap:joinDomainRequest");
  w.text_element("roap:deviceID", m.device_id);
  w.text_element("roap:riID", m.ri_id);
  w.text_element("roap:domainID", m.domain_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void JoinDomainRequest::write(Writer& w) const {
  write_join_domain_request(*this, w, true);
}

void JoinDomainRequest::write_payload(Writer& w) const {
  write_join_domain_request(*this, w, false);
}

Bytes JoinDomainRequest::payload() const { return payload_of(*this); }

JoinDomainRequest JoinDomainRequest::from_node(const Node& e) {
  expect_root(e, "roap:joinDomainRequest");
  JoinDomainRequest out;
  out.device_id = e.child_text("roap:deviceID");
  out.ri_id = e.child_text("roap:riID");
  out.domain_id = e.child_text("roap:domainID");
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

namespace {

void write_join_domain_response(const JoinDomainResponse& m, Writer& w,
                                bool with_signature) {
  w.open("roap:joinDomainResponse");
  w.attr("status", to_string(m.status));
  w.text_element("roap:domainID", m.domain_id);
  w.u64_element("roap:generation", m.generation);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  w.b64_element("roap:domainKey", m.wrapped_domain_key);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void JoinDomainResponse::write(Writer& w) const {
  write_join_domain_response(*this, w, true);
}

void JoinDomainResponse::write_payload(Writer& w) const {
  write_join_domain_response(*this, w, false);
}

Bytes JoinDomainResponse::payload() const { return payload_of(*this); }

JoinDomainResponse JoinDomainResponse::from_node(const Node& e) {
  expect_root(e, "roap:joinDomainResponse");
  JoinDomainResponse out;
  out.status = status_from_string(e.require_attr("status"));
  out.domain_id = e.child_text("roap:domainID");
  out.generation = parse_u32(e.child_text("roap:generation"));
  out.device_nonce = get_b64_optional(e, "roap:deviceNonce");
  out.wrapped_domain_key = get_b64(e, "roap:domainKey");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

// ---------------------------------------------------------------------------
// LeaveDomainRequest / LeaveDomainResponse
// ---------------------------------------------------------------------------

namespace {

void write_leave_domain_request(const LeaveDomainRequest& m, Writer& w,
                                bool with_signature) {
  w.open("roap:leaveDomainRequest");
  w.text_element("roap:deviceID", m.device_id);
  w.text_element("roap:riID", m.ri_id);
  w.text_element("roap:domainID", m.domain_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void LeaveDomainRequest::write(Writer& w) const {
  write_leave_domain_request(*this, w, true);
}

void LeaveDomainRequest::write_payload(Writer& w) const {
  write_leave_domain_request(*this, w, false);
}

Bytes LeaveDomainRequest::payload() const { return payload_of(*this); }

LeaveDomainRequest LeaveDomainRequest::from_node(const Node& e) {
  expect_root(e, "roap:leaveDomainRequest");
  LeaveDomainRequest out;
  out.device_id = e.child_text("roap:deviceID");
  out.ri_id = e.child_text("roap:riID");
  out.domain_id = e.child_text("roap:domainID");
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

namespace {

void write_leave_domain_response(const LeaveDomainResponse& m, Writer& w,
                                 bool with_signature) {
  w.open("roap:leaveDomainResponse");
  w.attr("status", to_string(m.status));
  w.text_element("roap:domainID", m.domain_id);
  w.b64_element("roap:deviceNonce", m.device_nonce);
  if (with_signature && !m.signature.empty()) {
    w.b64_element("roap:signature", m.signature);
  }
  w.close();
}

}  // namespace

void LeaveDomainResponse::write(Writer& w) const {
  write_leave_domain_response(*this, w, true);
}

void LeaveDomainResponse::write_payload(Writer& w) const {
  write_leave_domain_response(*this, w, false);
}

Bytes LeaveDomainResponse::payload() const { return payload_of(*this); }

LeaveDomainResponse LeaveDomainResponse::from_node(const Node& e) {
  expect_root(e, "roap:leaveDomainResponse");
  LeaveDomainResponse out;
  out.status = status_from_string(e.require_attr("status"));
  out.domain_id = e.child_text("roap:domainID");
  out.device_nonce = get_b64(e, "roap:deviceNonce");
  out.signature = get_b64_optional(e, "roap:signature");
  return out;
}

// ---------------------------------------------------------------------------
// RoAcquisitionTrigger
// ---------------------------------------------------------------------------

void RoAcquisitionTrigger::write(Writer& w) const {
  w.open("roap:roAcquisitionTrigger");
  w.text_element("roap:riID", ri_id);
  w.text_element("roap:riURL", ri_url);
  w.text_element("roap:roID", ro_id);
  w.text_element("roap:contentID", content_id);
  if (!domain_id.empty()) w.text_element("roap:domainID", domain_id);
  w.close();
}

RoAcquisitionTrigger RoAcquisitionTrigger::from_node(const Node& e) {
  expect_root(e, "roap:roAcquisitionTrigger");
  RoAcquisitionTrigger out;
  out.ri_id = e.child_text("roap:riID");
  out.ri_url = e.child_text("roap:riURL");
  out.ro_id = e.child_text("roap:roID");
  out.content_id = e.child_text("roap:contentID");
  if (const auto* d = e.child("roap:domainID")) out.domain_id = d->text();
  return out;
}

}  // namespace omadrm::roap
