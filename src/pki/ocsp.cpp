#include "pki/ocsp.h"

#include "asn1/der.h"
#include "asn1/oid.h"
#include "common/error.h"
#include "rsa/pss.h"

namespace omadrm::pki {

using asn1::Decoder;
using asn1::Encoder;
using omadrm::Error;
using omadrm::ErrorKind;

const char* to_string(OcspCertStatus s) {
  switch (s) {
    case OcspCertStatus::kGood: return "good";
    case OcspCertStatus::kRevoked: return "revoked";
    case OcspCertStatus::kUnknown: return "unknown";
  }
  return "?";
}

Bytes OcspRequest::to_der() const {
  Encoder body;
  body.write_integer(serial);
  body.write_octet_string(nonce);
  Encoder out;
  out.write_sequence(body.bytes());
  return out.take();
}

OcspRequest OcspRequest::from_der(ByteView der) {
  Decoder outer(der);
  Decoder seq = outer.read_sequence();
  OcspRequest out;
  out.serial = seq.read_integer();
  out.nonce = seq.read_octet_string();
  if (!seq.at_end() || !outer.at_end()) {
    throw Error(ErrorKind::kFormat, "ocsp request: trailing bytes");
  }
  return out;
}

OcspResponse::OcspResponse(Serial serial, OcspCertStatus status,
                           std::uint64_t produced_at, Bytes nonce,
                           std::string responder_cn)
    : serial_(std::move(serial)),
      status_(status),
      produced_at_(produced_at),
      nonce_(std::move(nonce)),
      responder_cn_(std::move(responder_cn)) {}

Bytes OcspResponse::tbs_der() const {
  Encoder body;
  body.write_oid(asn1::oid::kOcspBasic);
  body.write_integer(serial_);
  body.write_integer(static_cast<std::int64_t>(status_));
  body.write_utc_time(produced_at_);
  body.write_octet_string(nonce_);
  body.write_utf8_string(responder_cn_);
  Encoder out;
  out.write_sequence(body.bytes());
  return out.take();
}

Bytes OcspResponse::to_der() const {
  if (signature_.empty()) {
    throw Error(ErrorKind::kState, "ocsp response: not signed yet");
  }
  Encoder sig;
  sig.write_bit_string(signature_);
  Encoder out;
  out.write_sequence(concat({tbs_der(), sig.bytes()}));
  return out.take();
}

OcspResponse OcspResponse::from_der(ByteView der) {
  Decoder outer(der);
  Decoder resp = outer.read_sequence();
  Decoder tbs = resp.read_sequence();
  if (tbs.read_oid() != asn1::oid::kOcspBasic) {
    throw Error(ErrorKind::kFormat, "ocsp: unexpected response type");
  }
  OcspResponse out;
  out.serial_ = tbs.read_integer();
  std::int64_t status = tbs.read_small_integer();
  if (status < 0 || status > 2) {
    throw Error(ErrorKind::kFormat, "ocsp: bad status value");
  }
  out.status_ = static_cast<OcspCertStatus>(status);
  out.produced_at_ = tbs.read_utc_time();
  out.nonce_ = tbs.read_octet_string();
  out.responder_cn_ = tbs.read_utf8_string();
  out.signature_ = resp.read_bit_string();
  if (!resp.at_end() || !outer.at_end()) {
    throw Error(ErrorKind::kFormat, "ocsp response: trailing bytes");
  }
  return out;
}

bool OcspResponse::verify(const rsa::PublicKey& responder_key,
                          const OcspRequest& request, std::uint64_t now,
                          std::uint64_t max_age) const {
  if (!(serial_ == request.serial)) return false;
  if (!ct_equal(nonce_, request.nonce)) return false;
  if (produced_at_ > now) return false;           // from the future
  if (now - produced_at_ > max_age) return false;  // stale
  return rsa::pss_verify(responder_key, tbs_der(), signature_);
}

}  // namespace omadrm::pki
