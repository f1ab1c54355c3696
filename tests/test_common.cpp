// Unit tests for the common substrate: byte helpers, hex, base64, RNG.
#include <gtest/gtest.h>

#include "common/base64.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "oracle/bigint.h"

namespace omadrm {
namespace {

TEST(Bytes, ConcatJoinsInOrder) {
  Bytes a{1, 2}, b{}, c{3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
}

TEST(Bytes, ConcatOfNothingIsEmpty) {
  EXPECT_TRUE(concat({}).empty());
}

TEST(Bytes, SliceExtractsRange) {
  Bytes v{0, 1, 2, 3, 4};
  EXPECT_EQ(slice(v, 1, 3), (Bytes{1, 2, 3}));
  EXPECT_EQ(slice(v, 0, 0), Bytes{});
  EXPECT_EQ(slice(v, 5, 0), Bytes{});
}

TEST(Bytes, SliceOutOfRangeThrows) {
  Bytes v{0, 1, 2};
  EXPECT_THROW(slice(v, 2, 2), Error);
  EXPECT_THROW(slice(v, 4, 0), Error);
}

TEST(Bytes, XorBytes) {
  Bytes a{0xff, 0x0f}, b{0x0f, 0x0f};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{0xf0, 0x00}));
  EXPECT_THROW(xor_bytes(a, Bytes{1}), Error);
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Bytes, CtEqualSemantics) {
  Bytes a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, Bytes{1, 2}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, BigEndianStores) {
  std::uint8_t buf[8];
  store_be32(0x01020304u, buf);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
  store_be64(0x0102030405060708ull, buf);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ull);
}

TEST(Hex, EncodeDecode) {
  Bytes data{0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(data), "deadbeef");
  EXPECT_EQ(from_hex("deadbeef"), data);
  EXPECT_EQ(from_hex("DEADBEEF"), data);
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), Error);
  EXPECT_THROW(from_hex("zz"), Error);
}

TEST(Bytes, StripLeadingZeros) {
  const Bytes padded{0, 0, 5, 0};
  const ByteView v = strip_leading_zeros(padded);
  EXPECT_EQ(Bytes(v.begin(), v.end()), (Bytes{5, 0}));
  EXPECT_TRUE(strip_leading_zeros(Bytes{0, 0}).empty());
  EXPECT_TRUE(strip_leading_zeros(Bytes{}).empty());
}

// The identity record's number syntax: lowercase hex with no leading
// zeros out, and in whatever the oracle's BigInt("0x" + s) accepts.
TEST(Hex, NumbersMatchTheOracle) {
  for (const char* s : {"0", "00", "1", "0001", "f", "abc", "ABC", "10001",
                        "00ff00", "8000000000000000000000000000000000001"}) {
    const bigint::BigInt want{"0x" + std::string(s)};
    const Bytes got = from_hex_number(s);
    EXPECT_EQ(got, want.is_zero() ? Bytes{} : want.to_bytes_be()) << s;
    EXPECT_EQ(to_hex_number(got), want.to_hex()) << s;
  }
  EXPECT_EQ(to_hex_number(Bytes{0, 0, 0x0a, 0xbc}), "abc");
  EXPECT_EQ(to_hex_number(Bytes{}), "0");
  for (const char* s : {"", "x", "-1", "+1", "0x1", "g", " 1", "1 "}) {
    EXPECT_THROW(bigint::BigInt("0x" + std::string(s)), Error) << s;
    EXPECT_THROW(from_hex_number(s), Error) << s;
  }
}

TEST(Base64, KnownVectors) {
  // RFC 4648 §10 test vectors.
  EXPECT_EQ(base64_encode(to_bytes("")), "");
  EXPECT_EQ(base64_encode(to_bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(to_bytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeInvertsEncode) {
  for (std::size_t len = 0; len < 64; ++len) {
    DeterministicRng rng(len);
    Bytes data = rng.bytes(len);
    EXPECT_EQ(base64_decode(base64_encode(data)), data) << "len=" << len;
  }
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_THROW(base64_decode("Zg"), Error);      // bad length
  EXPECT_THROW(base64_decode("Z==="), Error);    // too much padding
  EXPECT_THROW(base64_decode("Zm=v"), Error);    // data after padding
  EXPECT_THROW(base64_decode("Zm9$"), Error);    // invalid character
  EXPECT_THROW(base64_decode("====AAAA"), Error);  // padding not at end
}

// One case per rejection class of the strict decoder — regression tests
// for the wire hardening (whitespace laundering and non-canonical
// encodings must never round-trip silently).
TEST(Base64, RejectsBadLengths) {
  EXPECT_THROW(base64_decode("Q"), Error);
  EXPECT_THROW(base64_decode("QQQ"), Error);
  EXPECT_THROW(base64_decode("QUJDRE"), Error);
}

TEST(Base64, RejectsEmbeddedWhitespace) {
  // Lenient decoders skip whitespace; this one must not, in any group.
  EXPECT_THROW(base64_decode("QUJD IA=="), Error);   // space, inner group
  EXPECT_THROW(base64_decode("QUJD\nQUJD"), Error);  // newline
  EXPECT_THROW(base64_decode("QUJD\tQUJD"), Error);  // tab
  EXPECT_THROW(base64_decode("QUJDQU \n"), Error);   // trailing, final group
  EXPECT_THROW(base64_decode(" QUJD"), Error);       // leading
  EXPECT_THROW(base64_decode("QQ==\n"), Error);      // trailing newline
}

TEST(Base64, RejectsInvalidCharacters) {
  EXPECT_THROW(base64_decode("QUJD!A=="), Error);
  EXPECT_THROW(base64_decode("QU-D"), Error);   // url-safe alphabet
  EXPECT_THROW(base64_decode("QU_D"), Error);
  EXPECT_THROW(base64_decode(std::string("QU\0D", 4)), Error);  // NUL
}

TEST(Base64, RejectsMisplacedPadding) {
  EXPECT_THROW(base64_decode("=QQQ"), Error);
  EXPECT_THROW(base64_decode("Q=QQ"), Error);
  EXPECT_THROW(base64_decode("QQ=Q"), Error);      // data after padding
  EXPECT_THROW(base64_decode("QQ==QQQQ"), Error);  // padding before end
  EXPECT_THROW(base64_decode("===="), Error);
}

TEST(Base64, RejectsNonCanonicalTrailingBits) {
  // "QQ==" encodes {0x41}; "QR==" names the same byte with dirty
  // trailing bits and must be refused, as must the 2-byte analogue.
  EXPECT_EQ(base64_decode("QQ=="), to_bytes("A"));
  EXPECT_THROW(base64_decode("QR=="), Error);
  EXPECT_THROW(base64_decode("QQ=Q"), Error);
  EXPECT_EQ(base64_decode("QUE="), to_bytes("AA"));
  EXPECT_THROW(base64_decode("QUF="), Error);
}

TEST(Base64, IntoVariantsAppend) {
  std::string text = "prefix:";
  base64_encode_into(to_bytes("foobar"), text);
  EXPECT_EQ(text, "prefix:Zm9vYmFy");
  Bytes out = to_bytes("x");
  base64_decode_into("Zm9vYmFy", out);
  EXPECT_EQ(out, to_bytes("xfoobar"));
}

TEST(Base64, DecodeIntoRollsBackOnRejection) {
  // A rejected decode must leave the output exactly as passed in — no
  // partially decoded tail for callers that catch and continue.
  Bytes out = to_bytes("keep");
  EXPECT_THROW(base64_decode_into("QUJD!A==", out), Error);
  EXPECT_EQ(out, to_bytes("keep"));
  EXPECT_THROW(base64_decode_into("QUJDQUJD\n", out), Error);
  EXPECT_EQ(out, to_bytes("keep"));
}

TEST(Rng, DeterministicAcrossInstances) {
  DeterministicRng a(42), b(42);
  EXPECT_EQ(a.bytes(33), b.bytes(33));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiverge) {
  DeterministicRng a(1), b(2);
  EXPECT_NE(a.bytes(16), b.bytes(16));
}

TEST(Rng, UniformStaysBelowBound) {
  DeterministicRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_THROW(rng.uniform(0), Error);
}

TEST(Rng, UniformCoversRange) {
  DeterministicRng rng(9);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.uniform(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ErrorKindNames, AreStable) {
  EXPECT_STREQ(to_string(ErrorKind::kFormat), "format");
  Error e(ErrorKind::kRange, "boom");
  EXPECT_EQ(e.kind(), ErrorKind::kRange);
  EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
}

}  // namespace
}  // namespace omadrm
