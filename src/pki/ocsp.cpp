#include "pki/ocsp.h"

#include "asn1/der.h"
#include "asn1/oid.h"
#include "common/error.h"
#include "provider/provider.h"

namespace omadrm::pki {

using asn1::Decoder;
using asn1::Encoder;
using omadrm::Error;
using omadrm::ErrorKind;

OcspResponse::OcspResponse(Serial serial, OcspCertStatus status,
                           std::uint64_t produced_at, Bytes nonce,
                           std::string responder_cn,
                           const rsa::PrivateKey& responder_key, Rng& rng,
                           provider::CryptoProvider& crypto)
    : serial_(std::move(serial)),
      status_(status),
      produced_at_(produced_at),
      nonce_(std::move(nonce)),
      responder_cn_(std::move(responder_cn)) {
  const Bytes tbs = encode_tbs();
  der_ = SignedDer(tbs, {}, crypto.pss_sign(responder_key, tbs, rng));
}

Bytes OcspResponse::encode_tbs() const {
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
  const Bytes signature = resp.read_bit_string();
  if (!resp.at_end() || !outer.at_end()) {
    throw Error(ErrorKind::kFormat, "ocsp response: trailing bytes");
  }
  out.der_ = SignedDer(out.encode_tbs(), {}, signature);
  return out;
}

OcspCheck check_ocsp(const OcspResponse& response, const Serial& serial,
                     ByteView nonce, const rsa::PublicKey& responder_key,
                     std::uint64_t now, std::uint64_t max_age,
                     provider::CryptoProvider& crypto) {
  if (!(response.serial() == serial)) return OcspCheck::kInvalid;
  if (!ct_equal(response.nonce(), nonce)) return OcspCheck::kInvalid;
  if (response.produced_at() > now ||            // from the future
      now - response.produced_at() > max_age) {  // stale
    return OcspCheck::kInvalid;
  }
  if (!crypto.pss_verify(responder_key, response.tbs_der(),
                         response.signature())) {
    return OcspCheck::kInvalid;
  }
  switch (response.status()) {
    case OcspCertStatus::kGood: return OcspCheck::kGood;
    case OcspCertStatus::kRevoked: return OcspCheck::kRevoked;
    default: return OcspCheck::kInvalid;
  }
}

}  // namespace omadrm::pki
