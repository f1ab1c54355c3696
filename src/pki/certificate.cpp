#include "pki/certificate.h"

#include "asn1/der.h"
#include "asn1/oid.h"
#include "common/error.h"
#include "rsa/pss.h"

namespace omadrm::pki {

using asn1::Decoder;
using asn1::Encoder;
using omadrm::Error;
using omadrm::ErrorKind;

namespace {

// Name ::= SEQUENCE { SET { SEQUENCE { OID cn, UTF8String value } } }
Bytes encode_name(const std::string& cn) {
  Encoder attr;
  attr.write_oid(asn1::oid::kCommonName);
  attr.write_utf8_string(cn);
  Encoder attr_seq;
  attr_seq.write_sequence(attr.bytes());
  Encoder rdn_set;
  rdn_set.write_set(attr_seq.bytes());
  Encoder name;
  name.write_sequence(rdn_set.bytes());
  return name.take();
}

std::string decode_name(Decoder& d) {
  Decoder name = d.read_sequence();
  Decoder rdn = name.read_set();
  Decoder attr = rdn.read_sequence();
  std::string oid = attr.read_oid();
  if (oid != asn1::oid::kCommonName) {
    throw Error(ErrorKind::kFormat, "certificate: expected commonName");
  }
  return attr.read_utf8_string();
}

Bytes encode_spki(const rsa::PublicKey& key) {
  Encoder rsa_key;
  rsa_key.write_integer(key.n());
  rsa_key.write_integer(key.e());
  Encoder rsa_key_seq;
  rsa_key_seq.write_sequence(rsa_key.bytes());

  Encoder alg;
  alg.write_oid(asn1::oid::kRsaEncryption);
  alg.write_null();
  Encoder alg_seq;
  alg_seq.write_sequence(alg.bytes());

  Encoder spki;
  spki.write_bit_string(rsa_key_seq.bytes());
  Encoder out;
  out.write_sequence(concat({alg_seq.bytes(), spki.bytes()}));
  return out.take();
}

rsa::PublicKey decode_spki(Decoder& d) {
  Decoder spki = d.read_sequence();
  Decoder alg = spki.read_sequence();
  std::string oid = alg.read_oid();
  if (oid != asn1::oid::kRsaEncryption) {
    throw Error(ErrorKind::kFormat, "certificate: unsupported key algorithm");
  }
  alg.read_null();
  Bytes key_der = spki.read_bit_string();
  Decoder key_outer(key_der);
  Decoder key_seq = key_outer.read_sequence();
  const Bytes n = key_seq.read_integer();
  const Bytes e = key_seq.read_integer();
  return rsa::PublicKey(n, e);
}

Bytes encode_sig_alg() {
  Encoder alg;
  alg.write_oid(asn1::oid::kRsassaPss);
  Encoder out;
  out.write_sequence(alg.bytes());
  return out.take();
}

Serial minimal_serial(ByteView be) {
  const ByteView v = strip_leading_zeros(be);
  return Serial(v.begin(), v.end());
}

}  // namespace

Serial serial_number(std::uint64_t v) {
  std::uint8_t be[8];
  store_be64(v, be);
  return minimal_serial(be);
}

Certificate::Certificate(ByteView serial, std::string issuer_cn,
                         std::string subject_cn, Validity validity,
                         rsa::PublicKey subject_key)
    : serial_(minimal_serial(serial)),
      issuer_cn_(std::move(issuer_cn)),
      subject_cn_(std::move(subject_cn)),
      validity_(validity),
      subject_key_(std::move(subject_key)) {}

Bytes Certificate::tbs_der() const {
  Encoder body;
  body.write_integer(serial_);
  Bytes sig_alg = encode_sig_alg();
  Bytes issuer = encode_name(issuer_cn_);
  Bytes subject = encode_name(subject_cn_);

  Encoder validity;
  validity.write_utc_time(validity_.not_before);
  validity.write_utc_time(validity_.not_after);
  Encoder validity_seq;
  validity_seq.write_sequence(validity.bytes());

  Bytes spki = encode_spki(subject_key_);

  Encoder tail;
  if (is_ca_) tail.write_boolean(true);

  Encoder tbs;
  tbs.write_sequence(concat({body.bytes(), sig_alg, issuer,
                             validity_seq.bytes(), subject, spki,
                             tail.bytes()}));
  return tbs.take();
}

void Certificate::refresh_der() {
  der_.clear();
  if (signature_.empty()) return;
  Encoder sig;
  sig.write_bit_string(signature_);
  Encoder out;
  out.write_sequence(concat({tbs_der(), encode_sig_alg(), sig.bytes()}));
  der_ = out.take();
}

const Bytes& Certificate::to_der() const {
  if (der_.empty()) {
    throw Error(ErrorKind::kState, "certificate: not signed yet");
  }
  return der_;
}

Certificate Certificate::from_der(ByteView der) {
  Decoder outer(der);
  Decoder cert = outer.read_sequence();
  if (!outer.at_end()) {
    throw Error(ErrorKind::kFormat, "certificate: trailing bytes");
  }

  Decoder tbs = cert.read_sequence();
  Certificate out;
  out.serial_ = tbs.read_integer();
  {
    Decoder alg = tbs.read_sequence();
    if (alg.read_oid() != asn1::oid::kRsassaPss) {
      throw Error(ErrorKind::kFormat,
                  "certificate: unsupported signature algorithm");
    }
  }
  out.issuer_cn_ = decode_name(tbs);
  {
    Decoder validity = tbs.read_sequence();
    out.validity_.not_before = validity.read_utc_time();
    out.validity_.not_after = validity.read_utc_time();
  }
  out.subject_cn_ = decode_name(tbs);
  out.subject_key_ = decode_spki(tbs);
  if (!tbs.at_end()) out.is_ca_ = tbs.read_boolean();

  {
    Decoder alg = cert.read_sequence();
    if (alg.read_oid() != asn1::oid::kRsassaPss) {
      throw Error(ErrorKind::kFormat,
                  "certificate: signature algorithm mismatch");
    }
  }
  out.signature_ = cert.read_bit_string();
  if (!cert.at_end()) {
    throw Error(ErrorKind::kFormat, "certificate: trailing TLVs");
  }
  out.refresh_der();
  return out;
}

const char* to_string(CertStatus s) {
  switch (s) {
    case CertStatus::kValid: return "valid";
    case CertStatus::kBadSignature: return "bad-signature";
    case CertStatus::kNotYetValid: return "not-yet-valid";
    case CertStatus::kExpired: return "expired";
    case CertStatus::kIssuerMismatch: return "issuer-mismatch";
    case CertStatus::kRevoked: return "revoked";
  }
  return "unknown";
}

CertStatus verify_certificate(const Certificate& cert,
                              const rsa::PublicKey& issuer_key,
                              const std::string& expected_issuer_cn,
                              std::uint64_t now) {
  if (cert.issuer_cn() != expected_issuer_cn) {
    return CertStatus::kIssuerMismatch;
  }
  if (now < cert.validity().not_before) return CertStatus::kNotYetValid;
  if (now > cert.validity().not_after) return CertStatus::kExpired;
  if (!rsa::pss_verify(issuer_key, cert.tbs_der(), cert.signature())) {
    return CertStatus::kBadSignature;
  }
  return CertStatus::kValid;
}

}  // namespace omadrm::pki
