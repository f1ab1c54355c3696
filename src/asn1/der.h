// Minimal ASN.1 DER encoder / decoder.
//
// Covers the subset needed for the X.509-profile certificates and OCSP
// responses of the PKI substrate: BOOLEAN, INTEGER (incl. bignums),
// BIT STRING, OCTET STRING, NULL, OBJECT IDENTIFIER, UTF8String,
// PrintableString, UTCTime-as-epoch, SEQUENCE, SET, and context-specific
// constructed tags. Encoding is strict DER (definite lengths, minimal
// integer encoding); the decoder rejects non-canonical forms it can detect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace omadrm::asn1 {

enum class Tag : std::uint8_t {
  kBoolean = 0x01,
  kInteger = 0x02,
  kBitString = 0x03,
  kOctetString = 0x04,
  kNull = 0x05,
  kOid = 0x06,
  kUtf8String = 0x0c,
  kPrintableString = 0x13,
  kUtcTime = 0x17,
  kSequence = 0x30,
  kSet = 0x31,
};

/// Returns the context-specific constructed tag [n].
std::uint8_t context_tag(unsigned n);

// ---------------------------------------------------------------------------
// Encoder: append-style builder producing a DER byte string.
// ---------------------------------------------------------------------------
class Encoder {
 public:
  /// Raw TLV with an arbitrary tag byte.
  void write_tlv(std::uint8_t tag, ByteView content);

  void write_boolean(bool v);
  void write_integer(std::int64_t v);
  /// A non-negative INTEGER from its big-endian magnitude (leading zeros
  /// allowed): written minimal, with a 0x00 pad when the top bit is set.
  void write_integer(ByteView magnitude);
  void write_bit_string(ByteView bits);   // always 0 unused bits
  void write_octet_string(ByteView data);
  void write_null();
  void write_oid(const std::string& dotted);  // e.g. "1.2.840.113549.1.1.10"
  void write_utf8_string(const std::string& s);
  void write_printable_string(const std::string& s);
  void write_utc_time(std::uint64_t unix_seconds);

  /// Nests a fully-encoded child under SEQUENCE / SET / [n].
  void write_sequence(ByteView encoded_children);
  void write_set(ByteView encoded_children);
  void write_explicit(unsigned n, ByteView encoded_child);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  void write_length(std::size_t len);
  Bytes out_;
};

// ---------------------------------------------------------------------------
// Decoder: cursor over a DER byte string. All read_* methods throw
// omadrm::Error(kFormat) on malformed or unexpected input.
// ---------------------------------------------------------------------------
class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Tag byte of the next TLV without consuming it.
  std::uint8_t peek_tag() const;

  /// Reads the next TLV with the expected tag; returns its content.
  ByteView read_tlv(std::uint8_t expected_tag);

  bool read_boolean();
  std::int64_t read_small_integer();
  /// A non-negative INTEGER as its minimal big-endian magnitude (empty
  /// for zero); redundant leading zero octets are accepted and dropped.
  /// Negative and empty INTEGERs throw kFormat.
  Bytes read_integer();
  Bytes read_bit_string();
  Bytes read_octet_string();
  void read_null();
  std::string read_oid();
  std::string read_utf8_string();
  std::string read_printable_string();
  std::uint64_t read_utc_time();

  /// Enters a SEQUENCE / SET / [n]; returns a sub-decoder over its content.
  Decoder read_sequence();
  Decoder read_set();
  Decoder read_explicit(unsigned n);

  /// Consumes and returns the complete next TLV (tag + length + content),
  /// useful for re-hashing signed substructures byte-exactly.
  Bytes read_raw_tlv();

 private:
  std::uint8_t read_byte();
  std::size_t read_length();

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace omadrm::asn1
