// ROAP — the Rights Object Acquisition Protocol (OMA DRM 2 §ROAP).
//
// Message set implemented here, as XML documents exchanged between the DRM
// Agent and the Rights Issuer:
//
//   4-pass Registration:  DeviceHello → RiHello →
//                         RegistrationRequest → RegistrationResponse
//   2-pass RO acquisition: RoRequest → RoResponse
//   2-pass domain join:    JoinDomainRequest → JoinDomainResponse
//
// Requests from the device and responses from the RI are signed with
// RSASSA-PSS over the canonical serialization of the message *without* its
// <signature> element — the terminal-side sign/verify operations are
// precisely the RSA private/public ops the paper's registration and
// acquisition phases charge (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rel/rights.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::roap {

/// ROAP nonces: 14 random bytes (the spec's default size).
inline constexpr std::size_t kNonceLen = 14;

enum class Status : std::uint8_t {
  kSuccess,
  kAbort,
  kNotRegistered,
  kSignatureInvalid,
  kUnknownRoId,
  kAccessDenied,
  /// The pending registration session named by the request no longer
  /// exists (TTL garbage collection, supersession, or an RI restart that
  /// lost the RAM-only half). Distinct from kAbort so a retrying device
  /// knows to restart cleanly from DeviceHello with fresh nonces instead
  /// of treating the handshake as refused.
  kSessionExpired,
  /// The RI's durable store refused the commit this request required; no
  /// state changed and no grant was made. Retriable: the device may try
  /// again once the store recovers. Stateless service is unaffected.
  kStoreFailure,
};

const char* to_string(Status s);
Status status_from_string(std::string_view s);

/// Maps a wire-level status into the unified code space of
/// omadrm::StatusCode (kSuccess -> kOk, kAbort -> kRiAborted, the rest
/// one-to-one). Callers attach direction context ("reported by RI") via
/// Result's context string.
omadrm::StatusCode status_code(Status s);

// ---------------------------------------------------------------------------
// Protected Rights Object (paper Figure 2/3): rights + C = C1‖C2 + MAC +
// optional RI signature (mandatory for Domain ROs).
// ---------------------------------------------------------------------------
struct ProtectedRo {
  rel::Rights rights;
  /// Device RO: C = C1 (RSA-KEM, key-length bytes) ‖ C2 (AES-WRAP of
  /// K_MAC‖K_REK under the KDF2-derived KEK). Domain RO: a single AES-WRAP
  /// of K_MAC‖K_REK under the domain key K_D (no RSA — that is what lets
  /// every domain member unwrap it, paper §2.3).
  Bytes wrapped_keys;
  /// E_KREK(K_CEK): the content key wrapped under the rights key — the
  /// two-layer chain of the paper's Figure 2 that decouples content from
  /// rights without re-encrypting the DCF.
  Bytes enc_kcek;
  Bytes mac;        // HMAC-SHA1 over mac_payload() with K_MAC
  Bytes signature;  // optional RSASSA-PSS by the RI over signed_payload()
  std::string ri_id;
  bool is_domain_ro = false;
  std::string domain_id;
  /// Domain key generation this RO was wrapped under; a device holding an
  /// older generation must re-join before it can install the RO.
  std::uint32_t domain_generation = 0;

  /// Canonical bytes covered by the MAC (rights + wrapped keys + identity).
  Bytes mac_payload() const;
  /// Canonical bytes covered by the RI signature (mac_payload + mac).
  Bytes signed_payload() const;

  bool operator==(const ProtectedRo&) const = default;
  /// Streams `<roap:protectedRO>` into `w` with no temporaries.
  void write(xml::Writer& w) const;
  static ProtectedRo from_node(const xml::Node& e);
};

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------
struct DeviceHello {
  std::string device_id;
  std::vector<std::string> algorithms;  // advertised capabilities
  Bytes device_nonce;

  bool operator==(const DeviceHello&) const = default;
  void write(xml::Writer& w) const;
  static DeviceHello from_node(const xml::Node& e);
};

struct RiHello {
  Status status = Status::kSuccess;
  std::string ri_id;
  std::string session_id;
  std::vector<std::string> algorithms;  // selected algorithms
  Bytes ri_nonce;

  bool operator==(const RiHello&) const = default;
  void write(xml::Writer& w) const;
  static RiHello from_node(const xml::Node& e);
};

struct RegistrationRequest {
  std::string session_id;
  std::string device_id;
  Bytes device_nonce;
  Bytes ri_nonce;        // echoed from RiHello (freshness binding)
  Bytes certificate_der;  // the device certificate
  Bytes ocsp_nonce;       // nonce the RI must use in the stapled response
  Bytes signature;

  /// Bytes the signature covers (message without <signature>).
  Bytes payload() const;
  bool operator==(const RegistrationRequest&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static RegistrationRequest from_node(const xml::Node& e);
};

struct RegistrationResponse {
  Status status = Status::kSuccess;
  std::string session_id;
  std::string ri_id;
  std::string ri_url;
  Bytes ri_certificate_der;
  /// Intermediate CA certificates completing the chain from the RI
  /// certificate up to (but excluding) the device's trust root, closest
  /// to the leaf first. Empty when the root signed the RI directly.
  std::vector<Bytes> ri_certificate_chain_der;
  Bytes ocsp_response_der;  // stapled OCSP response for the RI cert
  Bytes signature;

  Bytes payload() const;
  bool operator==(const RegistrationResponse&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static RegistrationResponse from_node(const xml::Node& e);
};

// ---------------------------------------------------------------------------
// RO acquisition
// ---------------------------------------------------------------------------
struct RoRequest {
  std::string device_id;
  std::string ri_id;
  std::string ro_id;
  std::string domain_id;  // empty for device ROs
  Bytes device_nonce;
  Bytes signature;

  Bytes payload() const;
  bool operator==(const RoRequest&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static RoRequest from_node(const xml::Node& e);
};

struct RoResponse {
  Status status = Status::kSuccess;
  std::string device_id;
  std::string ri_id;
  Bytes device_nonce;  // echoed
  std::vector<ProtectedRo> ros;
  Bytes signature;

  Bytes payload() const;
  bool operator==(const RoResponse&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static RoResponse from_node(const xml::Node& e);
};

// ---------------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------------
struct JoinDomainRequest {
  std::string device_id;
  std::string ri_id;
  std::string domain_id;
  Bytes device_nonce;
  Bytes signature;

  Bytes payload() const;
  bool operator==(const JoinDomainRequest&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static JoinDomainRequest from_node(const xml::Node& e);
};

struct JoinDomainResponse {
  Status status = Status::kSuccess;
  std::string domain_id;
  std::uint32_t generation = 0;
  Bytes device_nonce;        // echoed (freshness binding for the join)
  Bytes wrapped_domain_key;  // RSA-KEM C transporting K_D to the device
  Bytes signature;

  Bytes payload() const;
  bool operator==(const JoinDomainResponse&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static JoinDomainResponse from_node(const xml::Node& e);
};

struct LeaveDomainRequest {
  std::string device_id;
  std::string ri_id;
  std::string domain_id;
  Bytes device_nonce;
  Bytes signature;

  Bytes payload() const;
  bool operator==(const LeaveDomainRequest&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static LeaveDomainRequest from_node(const xml::Node& e);
};

struct LeaveDomainResponse {
  Status status = Status::kSuccess;
  std::string domain_id;
  Bytes device_nonce;  // echoed
  Bytes signature;

  Bytes payload() const;
  bool operator==(const LeaveDomainResponse&) const = default;
  void write(xml::Writer& w) const;
  /// Streams the message without its <roap:signature> element — the
  /// canonical byte string the signature covers.
  void write_payload(xml::Writer& w) const;
  static LeaveDomainResponse from_node(const xml::Node& e);
};

// ---------------------------------------------------------------------------
// Triggers — lightweight unauthenticated XML documents the RI pushes (e.g.
// via WAP push) to make the DRM Agent start a ROAP exchange. The agent
// treats them as hints only; all security comes from the triggered
// protocol itself.
// ---------------------------------------------------------------------------
struct RoAcquisitionTrigger {
  std::string ri_id;
  std::string ri_url;
  std::string ro_id;
  std::string content_id;
  std::string domain_id;  // non-empty: a domain RO needing membership

  bool operator==(const RoAcquisitionTrigger&) const = default;
  void write(xml::Writer& w) const;
  static RoAcquisitionTrigger from_node(const xml::Node& e);
};

}  // namespace omadrm::roap
