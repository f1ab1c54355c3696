// X.509-profile certificates over the DER substrate.
//
// OMA DRM 2 trust is rooted in a PKI: the Certification Authority (the
// paper names CMLA as the first one) issues certificates to Rights Issuers
// and DRM Agents. We implement a focused X.509 profile: version 3 skeleton
// with serial, single-CN issuer/subject names, UTCTime validity, an RSA
// SubjectPublicKeyInfo, and an RSASSA-PSS signature over the DER-encoded
// TBS (to-be-signed) structure. That exercises the same terminal-side
// cryptographic work (SHA-1 over the TBS + RSAVP1) that the paper's cost
// model charges for certificate verification.
//
// A Certificate is an immutable signed value: it is either signed when it
// is made or decoded with from_der(), and it holds one canonical DER
// encoding, built once, whose TBS bytes are what every check hashes. The
// one way to verify a certificate is pki::ChainVerifier (pki/chain.h),
// which meters each signature through the CryptoProvider.
#pragma once

#include <cstring>
#include <set>
#include <string>

#include "common/bytes.h"
#include "common/random.h"
#include "rsa/rsa.h"

namespace omadrm::pki {

/// A certificate serial number as its minimal big-endian magnitude, the
/// form asn1::Decoder::read_integer returns: equal numbers are equal
/// bytes, however the DER spelled them.
using Serial = Bytes;

/// The serial number `v`.
Serial serial_number(std::uint64_t v);

/// Numeric order on serials: of two minimal magnitudes the shorter is the
/// smaller number, and equal lengths compare bytewise.
struct SerialLess {
  bool operator()(const Serial& a, const Serial& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return a.size() != 0 && std::memcmp(a.data(), b.data(), a.size()) < 0;
  }
};
using SerialSet = std::set<Serial, SerialLess>;

/// Validity window in Unix seconds (inclusive bounds).
struct Validity {
  std::uint64_t not_before = 0;
  std::uint64_t not_after = 0;
};

/// The DER of a signed object, SEQUENCE { tbs, algorithm, BIT STRING
/// signature }, encoded once, with views of the signed bytes and of the
/// signature inside it. Certificates and OCSP responses both keep one.
class SignedDer {
 public:
  SignedDer() = default;
  /// `algorithm` is the encoded TLVs between the TBS and the signature
  /// (empty when the profile carries none).
  SignedDer(ByteView tbs, ByteView algorithm, ByteView signature);

  const Bytes& bytes() const { return der_; }
  ByteView tbs() const {
    return ByteView(der_).subspan(tbs_begin_, tbs_size_);
  }
  ByteView signature() const { return ByteView(der_).last(sig_size_); }

 private:
  Bytes der_;
  std::size_t tbs_begin_ = 0;
  std::size_t tbs_size_ = 0;
  std::size_t sig_size_ = 0;
};

class Certificate {
 public:
  /// No certificate: empty fields and empty DER (an agent's "not
  /// provisioned" value).
  Certificate() = default;

  /// Makes a certificate signed with `issuer_key` over its TBS (one
  /// RSASSA-PSS signature, drawing its salt from `rng`). `serial` may
  /// carry leading zero octets; the certificate keeps its minimal form.
  /// `is_ca` is the profile's basicConstraints analogue: only
  /// certificates with it may act as chain intermediates. It is encoded
  /// as an optional trailing BOOLEAN, so end-entity certificates keep the
  /// legacy layout.
  Certificate(ByteView serial, std::string issuer_cn, std::string subject_cn,
              Validity validity, rsa::PublicKey subject_key, bool is_ca,
              const rsa::PrivateKey& issuer_key, Rng& rng);

  /// Decodes a certificate. The DER it keeps is this profile's canonical
  /// encoding of the decoded fields, even when the input was laxer (a
  /// serial with redundant leading zeros), so the signed bytes are the
  /// same however the certificate was spelled.
  static Certificate from_der(ByteView der);

  const Serial& serial() const { return serial_; }
  const std::string& issuer_cn() const { return issuer_cn_; }
  const std::string& subject_cn() const { return subject_cn_; }
  const Validity& validity() const { return validity_; }
  const rsa::PublicKey& subject_key() const { return subject_key_; }
  bool is_ca() const { return is_ca_; }
  bool is_self_signed() const { return issuer_cn_ == subject_cn_; }

  /// The TBSCertificate inside to_der(): the exact bytes that were signed.
  ByteView tbs_der() const { return der_.tbs(); }
  ByteView signature() const { return der_.signature(); }
  /// Full certificate DER: SEQUENCE { tbs, sigAlg, signature }. Store
  /// records and the registration reuse checks read these bytes.
  const Bytes& to_der() const { return der_.bytes(); }

 private:
  Bytes encode_tbs() const;

  Serial serial_;
  std::string issuer_cn_;
  std::string subject_cn_;
  Validity validity_;
  rsa::PublicKey subject_key_;
  bool is_ca_ = false;
  SignedDer der_;
};

/// Outcome of a certificate-chain check.
enum class CertStatus {
  kValid,
  kBadSignature,
  kNotYetValid,
  kExpired,
  kIssuerMismatch,
  kRevoked,  // reported by ChainVerifier's revocation denylist
};

}  // namespace omadrm::pki
