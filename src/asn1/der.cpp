#include "asn1/der.h"

#include <cstdio>

#include "common/error.h"

namespace omadrm::asn1 {

using omadrm::Error;
using omadrm::ErrorKind;

std::uint8_t context_tag(unsigned n) {
  if (n > 30) throw Error(ErrorKind::kRange, "context tag > 30 unsupported");
  return static_cast<std::uint8_t>(0xa0 | n);
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

void Encoder::write_length(std::size_t len) {
  if (len < 0x80) {
    out_.push_back(static_cast<std::uint8_t>(len));
    return;
  }
  // Long form: count significant bytes.
  std::uint8_t buf[8];
  int n = 0;
  std::size_t v = len;
  while (v > 0) {
    buf[n++] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  out_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (int i = n; i-- > 0;) out_.push_back(buf[i]);
}

void Encoder::write_tlv(std::uint8_t tag, ByteView content) {
  out_.push_back(tag);
  write_length(content.size());
  out_.insert(out_.end(), content.begin(), content.end());
}

void Encoder::write_boolean(bool v) {
  std::uint8_t b = v ? 0xff : 0x00;
  write_tlv(static_cast<std::uint8_t>(Tag::kBoolean), ByteView(&b, 1));
}

void Encoder::write_integer(std::int64_t v) {
  // Two's-complement big-endian, minimal length.
  Bytes content;
  bool negative = v < 0;
  std::uint64_t u = static_cast<std::uint64_t>(v);
  for (int i = 7; i >= 0; --i) {
    content.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  }
  std::size_t start = 0;
  while (start + 1 < content.size()) {
    bool redundant = negative
                         ? (content[start] == 0xff && (content[start + 1] & 0x80))
                         : (content[start] == 0x00 && !(content[start + 1] & 0x80));
    if (!redundant) break;
    ++start;
  }
  write_tlv(static_cast<std::uint8_t>(Tag::kInteger),
            ByteView(content).subspan(start));
}

void Encoder::write_integer(ByteView magnitude) {
  const ByteView v = strip_leading_zeros(magnitude);
  // Zero is one 0x00 octet; a set top bit needs a 0x00 pad to stay
  // positive.
  Bytes content;
  content.reserve(v.size() + 1);
  if (v.empty() || (v[0] & 0x80)) content.push_back(0x00);
  content.insert(content.end(), v.begin(), v.end());
  write_tlv(static_cast<std::uint8_t>(Tag::kInteger), content);
}

void Encoder::write_bit_string(ByteView bits) {
  Bytes content;
  content.reserve(bits.size() + 1);
  content.push_back(0);  // no unused bits
  content.insert(content.end(), bits.begin(), bits.end());
  write_tlv(static_cast<std::uint8_t>(Tag::kBitString), content);
}

void Encoder::write_octet_string(ByteView data) {
  write_tlv(static_cast<std::uint8_t>(Tag::kOctetString), data);
}

void Encoder::write_null() {
  write_tlv(static_cast<std::uint8_t>(Tag::kNull), {});
}

void Encoder::write_oid(const std::string& dotted) {
  std::vector<std::uint64_t> arcs;
  std::uint64_t cur = 0;
  bool have_digit = false;
  for (char c : dotted) {
    if (c == '.') {
      if (!have_digit) throw Error(ErrorKind::kFormat, "OID: empty arc");
      arcs.push_back(cur);
      cur = 0;
      have_digit = false;
    } else if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint64_t>(c - '0');
      have_digit = true;
    } else {
      throw Error(ErrorKind::kFormat, "OID: invalid character");
    }
  }
  if (!have_digit) throw Error(ErrorKind::kFormat, "OID: trailing dot");
  arcs.push_back(cur);
  if (arcs.size() < 2 || arcs[0] > 2 || (arcs[0] < 2 && arcs[1] > 39)) {
    throw Error(ErrorKind::kFormat, "OID: invalid first arcs");
  }
  Bytes content;
  auto push_base128 = [&content](std::uint64_t v) {
    std::uint8_t buf[10];
    int n = 0;
    do {
      buf[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v > 0);
    for (int i = n; i-- > 0;) {
      content.push_back(static_cast<std::uint8_t>(buf[i] | (i ? 0x80 : 0)));
    }
  };
  push_base128(arcs[0] * 40 + arcs[1]);
  for (std::size_t i = 2; i < arcs.size(); ++i) push_base128(arcs[i]);
  write_tlv(static_cast<std::uint8_t>(Tag::kOid), content);
}

void Encoder::write_utf8_string(const std::string& s) {
  write_tlv(static_cast<std::uint8_t>(Tag::kUtf8String), to_bytes(s));
}

void Encoder::write_printable_string(const std::string& s) {
  write_tlv(static_cast<std::uint8_t>(Tag::kPrintableString), to_bytes(s));
}

void Encoder::write_utc_time(std::uint64_t unix_seconds) {
  // Render as YYMMDDHHMMSSZ. Civil-time conversion from days since epoch
  // (Howard Hinnant's algorithm).
  std::uint64_t days = unix_seconds / 86400;
  std::uint64_t secs = unix_seconds % 86400;
  std::int64_t z = static_cast<std::int64_t>(days) + 719468;
  std::int64_t era = z / 146097;
  std::int64_t doe = z - era * 146097;
  std::int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  std::int64_t y = yoe + era * 400;
  std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  std::int64_t mp = (5 * doy + 2) / 153;
  std::int64_t d = doy - (153 * mp + 2) / 5 + 1;
  std::int64_t m = mp + (mp < 10 ? 3 : -9);
  y += (m <= 2);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02d%02d%02d%02d%02d%02dZ",
                static_cast<int>(y % 100), static_cast<int>(m),
                static_cast<int>(d), static_cast<int>(secs / 3600),
                static_cast<int>((secs / 60) % 60),
                static_cast<int>(secs % 60));
  write_tlv(static_cast<std::uint8_t>(Tag::kUtcTime), to_bytes(buf));
}

void Encoder::write_sequence(ByteView encoded_children) {
  write_tlv(static_cast<std::uint8_t>(Tag::kSequence), encoded_children);
}

void Encoder::write_set(ByteView encoded_children) {
  write_tlv(static_cast<std::uint8_t>(Tag::kSet), encoded_children);
}

void Encoder::write_explicit(unsigned n, ByteView encoded_child) {
  write_tlv(context_tag(n), encoded_child);
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

std::uint8_t Decoder::read_byte() {
  if (pos_ >= data_.size()) {
    throw Error(ErrorKind::kFormat, "DER: unexpected end of input");
  }
  return data_[pos_++];
}

std::size_t Decoder::read_length() {
  std::uint8_t first = read_byte();
  if (first < 0x80) return first;
  std::size_t n = first & 0x7f;
  if (n == 0 || n > sizeof(std::size_t)) {
    throw Error(ErrorKind::kFormat, "DER: unsupported length form");
  }
  std::size_t len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    len = (len << 8) | read_byte();
  }
  if (len < 0x80) {
    throw Error(ErrorKind::kFormat, "DER: non-minimal length encoding");
  }
  return len;
}

std::uint8_t Decoder::peek_tag() const {
  if (pos_ >= data_.size()) {
    throw Error(ErrorKind::kFormat, "DER: peek at end of input");
  }
  return data_[pos_];
}

ByteView Decoder::read_tlv(std::uint8_t expected_tag) {
  std::uint8_t tag = read_byte();
  if (tag != expected_tag) {
    throw Error(ErrorKind::kFormat, "DER: unexpected tag");
  }
  std::size_t len = read_length();
  if (len > remaining()) {
    throw Error(ErrorKind::kFormat, "DER: length exceeds input");
  }
  ByteView content = data_.subspan(pos_, len);
  pos_ += len;
  return content;
}

Bytes Decoder::read_raw_tlv() {
  std::size_t start = pos_;
  std::uint8_t tag = read_byte();
  (void)tag;
  std::size_t len = read_length();
  if (len > remaining()) {
    throw Error(ErrorKind::kFormat, "DER: length exceeds input");
  }
  pos_ += len;
  return Bytes(data_.begin() + static_cast<std::ptrdiff_t>(start),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_));
}

bool Decoder::read_boolean() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kBoolean));
  if (c.size() != 1) throw Error(ErrorKind::kFormat, "DER: bad boolean");
  if (c[0] != 0x00 && c[0] != 0xff) {
    throw Error(ErrorKind::kFormat, "DER: non-canonical boolean");
  }
  return c[0] == 0xff;
}

std::int64_t Decoder::read_small_integer() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kInteger));
  if (c.empty() || c.size() > 8) {
    throw Error(ErrorKind::kFormat, "DER: integer size unsupported");
  }
  std::int64_t v = (c[0] & 0x80) ? -1 : 0;
  for (std::uint8_t b : c) v = (v << 8) | b;
  return v;
}

Bytes Decoder::read_integer() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kInteger));
  if (c.empty()) throw Error(ErrorKind::kFormat, "DER: empty integer");
  if (c[0] & 0x80) {
    throw Error(ErrorKind::kFormat, "DER: negative bignum unsupported");
  }
  const ByteView v = strip_leading_zeros(c);
  return Bytes(v.begin(), v.end());
}

Bytes Decoder::read_bit_string() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kBitString));
  if (c.empty() || c[0] != 0) {
    throw Error(ErrorKind::kFormat, "DER: only byte-aligned bit strings");
  }
  return Bytes(c.begin() + 1, c.end());
}

Bytes Decoder::read_octet_string() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kOctetString));
  return Bytes(c.begin(), c.end());
}

void Decoder::read_null() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kNull));
  if (!c.empty()) throw Error(ErrorKind::kFormat, "DER: non-empty null");
}

std::string Decoder::read_oid() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kOid));
  if (c.empty()) throw Error(ErrorKind::kFormat, "DER: empty OID");
  std::vector<std::uint64_t> arcs;
  std::uint64_t cur = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    cur = (cur << 7) | (c[i] & 0x7f);
    if (!(c[i] & 0x80)) {
      arcs.push_back(cur);
      cur = 0;
    } else if (i + 1 == c.size()) {
      throw Error(ErrorKind::kFormat, "DER: truncated OID arc");
    }
  }
  std::string out;
  std::uint64_t first = arcs[0];
  std::uint64_t a0 = first < 40 ? 0 : (first < 80 ? 1 : 2);
  std::uint64_t a1 = first - a0 * 40;
  out = std::to_string(a0) + "." + std::to_string(a1);
  for (std::size_t i = 1; i < arcs.size(); ++i) {
    out += "." + std::to_string(arcs[i]);
  }
  return out;
}

std::string Decoder::read_utf8_string() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kUtf8String));
  return to_string(c);
}

std::string Decoder::read_printable_string() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kPrintableString));
  return to_string(c);
}

std::uint64_t Decoder::read_utc_time() {
  ByteView c = read_tlv(static_cast<std::uint8_t>(Tag::kUtcTime));
  if (c.size() != 13 || c.back() != 'Z') {
    throw Error(ErrorKind::kFormat, "DER: bad UTCTime");
  }
  auto digit2 = [&](std::size_t i) -> int {
    if (c[i] < '0' || c[i] > '9' || c[i + 1] < '0' || c[i + 1] > '9') {
      throw Error(ErrorKind::kFormat, "DER: bad UTCTime digit");
    }
    return (c[i] - '0') * 10 + (c[i + 1] - '0');
  };
  int yy = digit2(0);
  // RFC 5280 sliding window: 00-49 => 20xx, 50-99 => 19xx.
  int year = yy < 50 ? 2000 + yy : 1900 + yy;
  int month = digit2(2), day = digit2(4);
  int hour = digit2(6), minute = digit2(8), second = digit2(10);
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 ||
      minute > 59 || second > 60) {
    throw Error(ErrorKind::kFormat, "DER: UTCTime out of range");
  }
  // Inverse of the civil-time algorithm in the encoder.
  std::int64_t y = year;
  std::int64_t m = month;
  std::int64_t d = day;
  y -= m <= 2;
  std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  std::int64_t yoe = y - era * 400;
  std::int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  std::int64_t days = era * 146097 + doe - 719468;
  return static_cast<std::uint64_t>(days) * 86400 +
         static_cast<std::uint64_t>(hour) * 3600 +
         static_cast<std::uint64_t>(minute) * 60 +
         static_cast<std::uint64_t>(second);
}

Decoder Decoder::read_sequence() {
  return Decoder(read_tlv(static_cast<std::uint8_t>(Tag::kSequence)));
}

Decoder Decoder::read_set() {
  return Decoder(read_tlv(static_cast<std::uint8_t>(Tag::kSet)));
}

Decoder Decoder::read_explicit(unsigned n) {
  return Decoder(read_tlv(context_tag(n)));
}

}  // namespace omadrm::asn1
