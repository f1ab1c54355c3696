// Tests for the DER encoder/decoder.
#include <gtest/gtest.h>

#include "asn1/der.h"
#include "asn1/oid.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "oracle/bigint.h"

namespace omadrm::asn1 {
namespace {

using bigint::BigInt;
using omadrm::Error;
using omadrm::ErrorKind;

TEST(DerEncode, ShortAndLongLengths) {
  Encoder e;
  e.write_octet_string(Bytes(5, 0xaa));
  EXPECT_EQ(to_hex(e.bytes()).substr(0, 4), "0405");

  Encoder e2;
  e2.write_octet_string(Bytes(200, 0xbb));
  // 200 > 127 -> long form: 04 81 C8.
  EXPECT_EQ(to_hex(e2.bytes()).substr(0, 6), "0481c8");

  Encoder e3;
  e3.write_octet_string(Bytes(300, 0xcc));
  EXPECT_EQ(to_hex(e3.bytes()).substr(0, 8), "0482012c");
}

TEST(DerInteger, MinimalEncoding) {
  auto enc = [](std::int64_t v) {
    Encoder e;
    e.write_integer(v);
    return to_hex(e.bytes());
  };
  EXPECT_EQ(enc(0), "020100");
  EXPECT_EQ(enc(127), "02017f");
  EXPECT_EQ(enc(128), "02020080");  // needs the leading zero
  EXPECT_EQ(enc(256), "02020100");
  EXPECT_EQ(enc(-1), "0201ff");
  EXPECT_EQ(enc(-128), "020180");
}

TEST(DerInteger, RoundTripSmall) {
  for (std::int64_t v : {0ll, 1ll, 127ll, 128ll, 255ll, 256ll, 65535ll,
                         -1ll, -127ll, -128ll, -129ll, 1234567890123ll}) {
    Encoder e;
    e.write_integer(v);
    Decoder d(e.bytes());
    EXPECT_EQ(d.read_small_integer(), v) << v;
    EXPECT_TRUE(d.at_end());
  }
}

// The oracle's DER INTEGER for v >= 0: its magnitude (one 0x00 octet for
// zero), with a 0x00 pad when the top bit is set.
Bytes oracle_der(const BigInt& v) {
  Bytes mag = v.to_bytes_be();
  if (mag[0] & 0x80) mag.insert(mag.begin(), 0x00);
  Encoder e;
  e.write_tlv(static_cast<std::uint8_t>(Tag::kInteger), mag);
  return e.take();
}

// The kind of Error `fn` throws.
template <typename Fn>
ErrorKind thrown_kind(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "no Error thrown";
  return ErrorKind::kState;
}

TEST(DerInteger, BignumRoundTripsMatchOracle) {
  DeterministicRng rng(0xDE2);
  std::vector<BigInt> values = {
      BigInt{}, BigInt(5), BigInt(0x7f), BigInt(0x80), BigInt(0xff),
      BigInt(std::string_view("0x00f1e2d3c4b5a6978812345678")),
      BigInt::random_bits(513 * 8, rng),      // 513 bytes, top bit set
      BigInt::random_bits(513 * 8 - 1, rng),  // 513 bytes, top bit clear
      BigInt::random_bits(4160, rng)};
  for (const BigInt& v : values) {
    const Bytes mag = v.is_zero() ? Bytes{} : v.to_bytes_be();
    Encoder e;
    e.write_integer(mag);
    EXPECT_EQ(e.bytes(), oracle_der(v)) << v.to_hex();
    Encoder padded;  // leading zero octets in the input change nothing
    padded.write_integer(concat({Bytes{0, 0}, mag}));
    EXPECT_EQ(padded.bytes(), e.bytes()) << v.to_hex();
    Decoder d(e.bytes());
    EXPECT_EQ(d.read_integer(), mag) << v.to_hex();
    EXPECT_TRUE(d.at_end());
  }
}

TEST(DerInteger, NonMinimalContentDecodesToTheMinimalMagnitude) {
  EXPECT_EQ(Decoder(from_hex("0203000005")).read_integer(), Bytes{5});
  EXPECT_EQ(Decoder(from_hex("020100")).read_integer(), Bytes{});
  EXPECT_EQ(Decoder(from_hex("02020000")).read_integer(), Bytes{});
  EXPECT_EQ(Decoder(from_hex("02020080")).read_integer(), Bytes{0x80});
}

TEST(DerInteger, NegativeAndEmptyBignumsThrowFormat) {
  EXPECT_EQ(thrown_kind([] { Decoder(from_hex("020180")).read_integer(); }),
            ErrorKind::kFormat);
  EXPECT_EQ(thrown_kind([] { Decoder(from_hex("0202ff05")).read_integer(); }),
            ErrorKind::kFormat);
  EXPECT_EQ(thrown_kind([] { Decoder(from_hex("0200")).read_integer(); }),
            ErrorKind::kFormat);
}

TEST(DerInteger, BignumHighBitGetsZeroPrefix) {
  Encoder e;
  e.write_integer(Bytes{0xff});
  EXPECT_EQ(to_hex(e.bytes()), "020200ff");
  Decoder d(e.bytes());
  EXPECT_EQ(d.read_integer(), Bytes{0xff});
}

TEST(DerBoolean, CanonicalOnly) {
  Encoder e;
  e.write_boolean(true);
  e.write_boolean(false);
  Decoder d(e.bytes());
  EXPECT_TRUE(d.read_boolean());
  EXPECT_FALSE(d.read_boolean());
  // 0x01 as boolean content is non-canonical DER.
  Bytes bad = from_hex("010101");
  Decoder d2(bad);
  EXPECT_THROW(d2.read_boolean(), Error);
}

TEST(DerOid, KnownEncodings) {
  Encoder e;
  e.write_oid("1.2.840.113549.1.1.10");  // RSASSA-PSS
  EXPECT_EQ(to_hex(e.bytes()), "06092a864886f70d01010a");
  Decoder d(e.bytes());
  EXPECT_EQ(d.read_oid(), "1.2.840.113549.1.1.10");
}

TEST(DerOid, Sha1Oid) {
  Encoder e;
  e.write_oid(oid::kSha1);  // 1.3.14.3.2.26
  EXPECT_EQ(to_hex(e.bytes()), "06052b0e03021a");
  Decoder d(e.bytes());
  EXPECT_EQ(d.read_oid(), "1.3.14.3.2.26");
}

TEST(DerOid, RejectsMalformed) {
  Encoder e;
  EXPECT_THROW(e.write_oid(""), Error);
  EXPECT_THROW(e.write_oid("1"), Error);
  EXPECT_THROW(e.write_oid("1..2"), Error);
  EXPECT_THROW(e.write_oid("1.2."), Error);
  EXPECT_THROW(e.write_oid("3.1"), Error);
  EXPECT_THROW(e.write_oid("1.40"), Error);
  EXPECT_THROW(e.write_oid("a.b"), Error);
}

TEST(DerStrings, RoundTrip) {
  Encoder e;
  e.write_utf8_string("hello wörld");
  e.write_printable_string("Example CA");
  Decoder d(e.bytes());
  EXPECT_EQ(d.read_utf8_string(), "hello wörld");
  EXPECT_EQ(d.read_printable_string(), "Example CA");
}

TEST(DerBitOctetNull, RoundTrip) {
  Encoder e;
  e.write_bit_string(from_hex("deadbeef"));
  e.write_octet_string(from_hex("0102"));
  e.write_null();
  Decoder d(e.bytes());
  EXPECT_EQ(d.read_bit_string(), from_hex("deadbeef"));
  EXPECT_EQ(d.read_octet_string(), from_hex("0102"));
  EXPECT_NO_THROW(d.read_null());
  EXPECT_TRUE(d.at_end());
}

TEST(DerUtcTime, RoundTripKnownDates) {
  // 2004-08-27 12:00:00 UTC and other representative instants.
  for (std::uint64_t t : {1093608000ull, 0ull, 946684800ull, 1100000000ull,
                          1735689600ull}) {
    Encoder e;
    e.write_utc_time(t);
    Decoder d(e.bytes());
    EXPECT_EQ(d.read_utc_time(), t) << t;
  }
}

TEST(DerUtcTime, EncodesCalendarFields) {
  // 2000-01-01T00:00:00Z -> "000101000000Z".
  Encoder e;
  e.write_utc_time(946684800);
  Decoder d(e.bytes());
  ByteView content(e.bytes());
  // Skip tag+length (2 bytes).
  std::string text(content.begin() + 2, content.end());
  EXPECT_EQ(text, "000101000000Z");
  (void)d;
}

TEST(DerNesting, SequenceAndExplicit) {
  Encoder inner;
  inner.write_integer(std::int64_t{42});
  inner.write_utf8_string("x");
  Encoder outer;
  outer.write_sequence(inner.bytes());
  Encoder wrapped;
  wrapped.write_explicit(3, outer.bytes());

  Decoder d(wrapped.bytes());
  Decoder exp = d.read_explicit(3);
  Decoder seq = exp.read_sequence();
  EXPECT_EQ(seq.read_small_integer(), 42);
  EXPECT_EQ(seq.read_utf8_string(), "x");
  EXPECT_TRUE(seq.at_end());
}

TEST(DerDecode, RejectsTruncatedAndTrailing) {
  Encoder e;
  e.write_octet_string(Bytes(10, 1));
  Bytes good = e.take();

  Bytes truncated(good.begin(), good.end() - 1);
  Decoder d1(truncated);
  EXPECT_THROW(d1.read_octet_string(), Error);

  Bytes oversize = good;
  oversize[1] = 0x20;  // claims more content than present
  Decoder d2(oversize);
  EXPECT_THROW(d2.read_octet_string(), Error);
}

TEST(DerDecode, RejectsWrongTag) {
  Encoder e;
  e.write_null();
  Decoder d(e.bytes());
  EXPECT_THROW(d.read_octet_string(), Error);
}

TEST(DerDecode, RejectsNonMinimalLength) {
  // 0x04 0x81 0x05 ... : long form used for a length < 0x80.
  Bytes bad = from_hex("04810500000000000000");
  Decoder d(bad);
  EXPECT_THROW(d.read_octet_string(), Error);
}

TEST(DerDecode, RawTlvPreservesBytes) {
  Encoder inner;
  inner.write_integer(std::int64_t{7});
  Encoder e;
  e.write_sequence(inner.bytes());
  e.write_null();
  Decoder d(e.bytes());
  Bytes raw = d.read_raw_tlv();
  EXPECT_EQ(to_hex(raw), "3003020107");
  EXPECT_NO_THROW(d.read_null());
}

}  // namespace
}  // namespace omadrm::asn1
