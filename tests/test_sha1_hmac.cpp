// Known-answer and property tests for SHA-1 and HMAC-SHA1.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha1_accel.h"

namespace omadrm::crypto {
namespace {

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingEqualsOneShot) {
  DeterministicRng rng(1);
  Bytes data = rng.bytes(1000);
  for (std::size_t chunk : {1u, 7u, 63u, 64u, 65u, 128u, 999u}) {
    Sha1 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      std::size_t take = std::min(chunk, data.size() - off);
      h.update(ByteView(data).subspan(off, take));
    }
    EXPECT_EQ(h.finish(), Sha1::hash(data)) << "chunk=" << chunk;
  }
}

TEST(Sha1, BoundaryLengthsAroundBlockSize) {
  // Padding switches between one and two extra blocks at 56 bytes.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 127u}) {
    Bytes data(len, 0x5a);
    Sha1 a;
    a.update(data);
    EXPECT_EQ(a.finish(), Sha1::hash(data)) << "len=" << len;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, UseAfterFinishThrows) {
  Sha1 h;
  h.update(to_bytes("x"));
  h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), Error);
  EXPECT_THROW(h.finish(), Error);
}

TEST(Sha1, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha1::hash(to_bytes("a")), Sha1::hash(to_bytes("b")));
  EXPECT_NE(Sha1::hash(Bytes{0x00}), Sha1::hash(Bytes{}));
}

// Compression back ends: the portable rounds and the SHA-extension path
// must agree bit for bit. The Sha1Compress half always runs, so hosts
// without SHA-NI still cover the fallback; the Sha1Accel half skips there.

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t);

// An arbitrary mid-stream chaining value, so chained calls are checked
// from somewhere other than the IV.
void random_state(std::uint32_t state[5], std::uint64_t seed) {
  DeterministicRng rng(seed);
  for (int i = 0; i < 5; ++i) {
    state[i] = static_cast<std::uint32_t>(rng.next_u64());
  }
}

// A complete SHA-1 through one compression back end, padded here rather
// than by Sha1, so each back end is checked on its own.
Bytes hash_with(CompressFn compress, ByteView data) {
  std::uint32_t state[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                            0x10325476u, 0xc3d2e1f0u};
  const std::size_t whole = data.size() / Sha1::kBlockSize;
  if (whole > 0) compress(state, data.data(), whole);
  const std::size_t rem = data.size() - whole * Sha1::kBlockSize;
  std::uint8_t tail[2 * Sha1::kBlockSize] = {};
  if (rem > 0) std::memcpy(tail, data.data() + whole * Sha1::kBlockSize, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len =
      rem < 56 ? Sha1::kBlockSize : 2 * Sha1::kBlockSize;
  store_be64(static_cast<std::uint64_t>(data.size()) * 8,
             tail + tail_len - 8);
  compress(state, tail, tail_len / Sha1::kBlockSize);
  Bytes out(Sha1::kDigestSize);
  for (int i = 0; i < 5; ++i) store_be32(state[i], out.data() + 4 * i);
  return out;
}

Bytes hash_portable(ByteView data) {
  return hash_with(sha1_compress_portable, data);
}

Bytes hash_accel(ByteView data) {
  return hash_with(accel::sha1_compress_blocks, data);
}

TEST(Sha1Compress, PortableKnownAnswers) {
  EXPECT_EQ(to_hex(hash_portable(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(hash_portable(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(hash_portable(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(to_hex(hash_portable(Bytes(1000000, 'a'))),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// On a SHA-NI host Sha1 dispatches to the accelerated path, so these two
// compare it with the portable rounds; elsewhere they pin Sha1's own
// buffering and padding against the independent reference above.
TEST(Sha1Compress, DispatchedMatchesPortableEveryLength) {
  DeterministicRng rng(3);
  const Bytes data = rng.bytes(1100);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteView in = ByteView(data).subspan(0, len);
    ASSERT_EQ(Sha1::hash(in), hash_portable(in)) << "len=" << len;
  }
}

TEST(Sha1Compress, DispatchedStreamingMatchesPortable) {
  DeterministicRng rng(4);
  const Bytes data = rng.bytes(3 * 4096 + 100);
  const Bytes want = hash_portable(data);
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 4096u}) {
    Sha1 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(ByteView(data).subspan(off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(h.finish(), want) << "chunk=" << chunk;
  }
}

TEST(Sha1Compress, PortableChainedCallsEqualOneCall) {
  DeterministicRng rng(5);
  const Bytes data = rng.bytes(16 * Sha1::kBlockSize);
  std::uint32_t one[5];
  random_state(one, 6);
  sha1_compress_portable(one, data.data(), 16);
  for (std::size_t k = 0; k <= 16; ++k) {
    std::uint32_t split[5];
    random_state(split, 6);
    sha1_compress_portable(split, data.data(), k);
    sha1_compress_portable(split, data.data() + k * Sha1::kBlockSize, 16 - k);
    EXPECT_EQ(0, std::memcmp(one, split, sizeof one)) << "k=" << k;
  }
}

class Sha1Accel : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!accel::sha1_supported()) {
      GTEST_SKIP() << "host CPU lacks the SHA extensions; Sha1Compress.* "
                      "covers the portable fallback";
    }
  }
};

TEST_F(Sha1Accel, MatchesPortableEveryLength) {
  DeterministicRng rng(7);
  const Bytes data = rng.bytes(1100);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteView in = ByteView(data).subspan(0, len);
    ASSERT_EQ(hash_accel(in), hash_portable(in)) << "len=" << len;
  }
}

TEST_F(Sha1Accel, UnalignedSourceOffsets) {
  DeterministicRng rng(8);
  const Bytes data = rng.bytes(8 * Sha1::kBlockSize + 16);
  for (std::size_t off = 1; off <= 15; ++off) {
    std::uint32_t want[5], got[5];
    random_state(want, off);
    random_state(got, off);
    sha1_compress_portable(want, data.data() + off, 8);
    accel::sha1_compress_blocks(got, data.data() + off, 8);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof want)) << "offset=" << off;
    const ByteView in = ByteView(data).subspan(off, 8 * Sha1::kBlockSize - 3);
    EXPECT_EQ(hash_accel(in), hash_portable(in)) << "offset=" << off;
  }
}

TEST_F(Sha1Accel, MusicSizedInput) {
  DeterministicRng rng(9);
  const Bytes data = rng.bytes(3 * 1024 * 1024 + 512 * 1024 + 123);
  EXPECT_EQ(hash_accel(data), hash_portable(data));
}

TEST_F(Sha1Accel, ChainedFromNonInitialState) {
  DeterministicRng rng(10);
  const Bytes data = rng.bytes(37 * Sha1::kBlockSize);
  std::uint32_t want[5];
  random_state(want, 11);
  sha1_compress_portable(want, data.data(), 37);
  // Uneven runs: single blocks, short runs, one long run.
  for (std::size_t run : {1u, 2u, 5u, 13u, 37u}) {
    std::uint32_t got[5];
    random_state(got, 11);
    for (std::size_t done = 0; done < 37; done += run) {
      accel::sha1_compress_blocks(got, data.data() + done * Sha1::kBlockSize,
                                  std::min<std::size_t>(run, 37 - done));
    }
    EXPECT_EQ(0, std::memcmp(want, got, sizeof want)) << "run=" << run;
  }
}

// RFC 2202 HMAC-SHA1 test cases.
TEST(HmacSha1, Rfc2202Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(HmacSha1::mac(key, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(to_hex(HmacSha1::mac(to_bytes("Jefe"),
                                 to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(HmacSha1::mac(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, LongKeyIsHashedFirst) {
  // RFC 2202 case 6: 80-byte key exceeds the SHA-1 block size.
  Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(HmacSha1::mac(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1, StreamingEqualsOneShot) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(16);
  Bytes data = rng.bytes(500);
  HmacSha1 h(key);
  h.update(ByteView(data).subspan(0, 100));
  h.update(ByteView(data).subspan(100));
  EXPECT_EQ(h.finish(), HmacSha1::mac(key, data));
}

TEST(HmacSha1, ResetRestartsWithSameKey) {
  Bytes key(20, 0x0b);
  HmacSha1 h(key);
  h.update(to_bytes("junk"));
  h.finish();
  h.reset();
  h.update(to_bytes("Hi There"));
  EXPECT_EQ(to_hex(h.finish()),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("secret");
  Bytes msg = to_bytes("payload");
  Bytes tag = HmacSha1::mac(key, msg);
  EXPECT_TRUE(HmacSha1::verify(key, msg, tag));
  Bytes bad_tag = tag;
  bad_tag[0] ^= 1;
  EXPECT_FALSE(HmacSha1::verify(key, msg, bad_tag));
  EXPECT_FALSE(HmacSha1::verify(to_bytes("wrong"), msg, tag));
  EXPECT_FALSE(HmacSha1::verify(key, to_bytes("other"), tag));
  EXPECT_FALSE(HmacSha1::verify(key, msg, ByteView(tag).subspan(1)));
}

TEST(HmacSha1, KeySensitivity) {
  Bytes msg = to_bytes("same message");
  EXPECT_NE(HmacSha1::mac(to_bytes("k1"), msg),
            HmacSha1::mac(to_bytes("k2"), msg));
}

}  // namespace
}  // namespace omadrm::crypto
