// Known-answer and property tests for AES, AES-CBC/PKCS#7, and AES-WRAP,
// on every path: the host's schedule (AES-NI where the CPU has it), the
// T-table schedule of Aes::portable, and the AES-NI x4 and VAES x16 CBC
// decryption kernels called directly.
#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"
#include "crypto/aes_wrap.h"
#include "crypto/modes.h"

namespace omadrm::crypto {
namespace {

// The two key schedules an Aes can hold: the host's, and the T-table one
// every host without AES-NI takes (reachable here on any host).
enum class Path { kHost, kTable };
constexpr Path kPaths[] = {Path::kHost, Path::kTable};

const char* name(Path p) { return p == Path::kHost ? "host" : "table"; }

Aes make_aes(ByteView key, Path p) {
  return p == Path::kTable ? Aes::portable(key) : Aes(key);
}

Bytes block_encrypt(ByteView key, ByteView pt, Path p = Path::kHost) {
  const Aes aes = make_aes(key, p);
  Bytes out(16);
  aes.encrypt_block(pt.data(), out.data());
  return out;
}

Bytes block_decrypt(ByteView key, ByteView ct, Path p = Path::kHost) {
  const Aes aes = make_aes(key, p);
  Bytes out(16);
  aes.decrypt_block(ct.data(), out.data());
  return out;
}

// FIPS-197 Appendix C known-answer vectors.
TEST(Aes, Fips197Aes128) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  for (Path p : kPaths) {
    Bytes ct = block_encrypt(key, pt, p);
    EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a") << name(p);
    EXPECT_EQ(block_decrypt(key, ct, p), pt) << name(p);
  }
}

TEST(Aes, Fips197Aes192) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  for (Path p : kPaths) {
    Bytes ct = block_encrypt(key, pt, p);
    EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191") << name(p);
    EXPECT_EQ(block_decrypt(key, ct, p), pt) << name(p);
  }
}

TEST(Aes, Fips197Aes256) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  for (Path p : kPaths) {
    Bytes ct = block_encrypt(key, pt, p);
    EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089") << name(p);
    EXPECT_EQ(block_decrypt(key, ct, p), pt) << name(p);
  }
}

TEST(Aes, NistSp800_38aEcbVector) {
  Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(block_encrypt(key, pt)),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), Error);
  EXPECT_THROW(Aes(Bytes(17, 0)), Error);
  EXPECT_THROW(Aes(Bytes(0, 0)), Error);
  EXPECT_THROW(Aes(Bytes(33, 0)), Error);
  EXPECT_THROW(Aes::portable(Bytes(20, 0)), Error);
}

TEST(Aes, OneSchedulePerHost) {
  for (std::size_t len : {16u, 24u, 32u}) {
    EXPECT_EQ(Aes(Bytes(len, 7)).has_accel(), accel::cpu_supported());
    EXPECT_FALSE(Aes::portable(Bytes(len, 7)).has_accel());
    EXPECT_EQ(Aes::portable(Bytes(len, 7)).rounds(),
              static_cast<int>(len / 4 + 6));
  }
}

// On random keys of every size, the AES-NI single block (and its
// AESKEYGENASSIST / word-expansion schedules) equals the T-table block.
TEST(Aes, AesNiBlocksMatchTheTableRounds) {
  if (!accel::cpu_supported()) {
    GTEST_SKIP() << "host lacks AES-NI (aes)";
  }
  DeterministicRng rng(0xA35);
  for (std::size_t len : {16u, 24u, 32u}) {
    for (int k = 0; k < 20; ++k) {
      const Bytes key = rng.bytes(len);
      const Aes ni(key);
      const Aes table = Aes::portable(key);
      ASSERT_TRUE(ni.has_accel());
      for (int b = 0; b < 5; ++b) {
        const Bytes in = rng.bytes(16);
        std::uint8_t x[16], y[16];
        ni.encrypt_block(in.data(), x);
        table.encrypt_block(in.data(), y);
        EXPECT_EQ(std::memcmp(x, y, 16), 0) << len << "-byte key " << k;
        ni.decrypt_block(in.data(), x);
        table.decrypt_block(in.data(), y);
        EXPECT_EQ(std::memcmp(x, y, 16), 0) << len << "-byte key " << k;
      }
    }
  }
}

TEST(Aes, InPlaceOperation) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes buf = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  aes.encrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), "00112233445566778899aabbccddeeff");
}

class AesRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesRoundTrip, DecryptInvertsEncrypt) {
  DeterministicRng rng(GetParam());
  Bytes key = rng.bytes(GetParam());
  for (Path p : kPaths) {
    const Aes aes = make_aes(key, p);
    for (int i = 0; i < 50; ++i) {
      Bytes pt = rng.bytes(16);
      Bytes ct(16), back(16);
      aes.encrypt_block(pt.data(), ct.data());
      aes.decrypt_block(ct.data(), back.data());
      EXPECT_EQ(back, pt) << name(p);
      EXPECT_NE(ct, pt) << name(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesRoundTrip,
                         ::testing::Values(16, 24, 32));

TEST(Pkcs7, PadUnpadRoundTrip) {
  for (std::size_t len = 0; len < 40; ++len) {
    Bytes data(len, 0x7e);
    Bytes padded = pkcs7_pad(data, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), data.size());
    EXPECT_EQ(pkcs7_unpad(padded, 16), data);
  }
}

TEST(Pkcs7, FullBlockOfPaddingWhenAligned) {
  Bytes data(16, 1);
  Bytes padded = pkcs7_pad(data, 16);
  EXPECT_EQ(padded.size(), 32u);
  EXPECT_EQ(padded.back(), 16);
}

TEST(Pkcs7, RejectsCorruptPadding) {
  Bytes padded = pkcs7_pad(Bytes(10, 0xaa), 16);
  padded.back() = 0;
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  padded.back() = 17;
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  padded.back() = 6;
  padded[padded.size() - 2] = 5;  // inconsistent interior byte
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  EXPECT_THROW(pkcs7_unpad(Bytes{}, 16), Error);
  EXPECT_THROW(pkcs7_unpad(Bytes(15, 1), 16), Error);
}

TEST(Cbc, NistSp800_38aFirstBlock) {
  Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct = aes_cbc_encrypt(key, iv, pt);
  // First block matches the NIST vector; the second is our PKCS#7 padding.
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 16)),
            "7649abac8119b246cee98e9b12e9197d");
  EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt);
}

// NIST SP 800-38A F.2.2, F.2.4 and F.2.6: CBC decryption of all four
// blocks, AES-128, -192 and -256, on both schedules.
TEST(Cbc, NistSp800_38aDecryptVectors) {
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  struct Vector {
    const char* key;
    const char* ct;
  };
  const Vector vectors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c",
       "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
       "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"},
      {"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
       "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a"
       "571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd"},
      {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
       "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
       "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b"},
  };
  for (const Vector& v : vectors) {
    const Bytes ct = from_hex(v.ct);
    for (Path p : kPaths) {
      const Aes aes = make_aes(from_hex(v.key), p);
      Bytes out(ct.size());
      std::uint8_t chain[16];
      std::memcpy(chain, iv.data(), 16);
      cbc_decrypt_blocks(aes, chain, ct.data(), out.data(), 4);
      EXPECT_EQ(out, pt) << v.key << " " << name(p);
      EXPECT_EQ(Bytes(chain, chain + 16), Bytes(ct.end() - 16, ct.end()));
      std::memcpy(chain, iv.data(), 16);
      cbc_encrypt_blocks(aes, chain, pt.data(), out.data(), 4);
      EXPECT_EQ(out, ct) << v.key << " " << name(p);
    }
  }
}

// CBC decryption of `ct` (whole blocks) as one run on the given kernel;
// returns the plaintext followed by the final chain value.
using CbcKernel = void (*)(const std::uint8_t*, int, std::uint8_t*,
                           const std::uint8_t*, std::uint8_t*, std::size_t);

Bytes decrypt_with(CbcKernel kernel, const Aes& aes, ByteView iv,
                   ByteView ct) {
  Bytes out(ct.size() + 16);
  std::memcpy(out.data() + ct.size(), iv.data(), 16);
  kernel(aes.accel_dec_keys(), aes.rounds(), out.data() + ct.size(),
         ct.data(), out.data(), ct.size() / 16);
  return out;
}

Bytes decrypt_table(const Aes& aes, ByteView iv, ByteView ct) {
  Bytes out(ct.size() + 16);
  std::memcpy(out.data() + ct.size(), iv.data(), 16);
  cbc_decrypt_blocks(aes, out.data() + ct.size(), ct.data(), out.data(),
                     ct.size() / 16);
  return out;
}

// Portable, AES-NI x4 and (when `kernel` is the VAES one) VAES x16 agree
// on every block count from 1 to 80, for every key size, and on 3.5 MiB
// (the Music Player payload).
void check_kernel_against_table(CbcKernel kernel) {
  DeterministicRng rng(0xCBC);
  for (std::size_t len : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(len);
    const Aes host(key);
    const Aes table = Aes::portable(key);
    for (std::size_t blocks = 1; blocks <= 80; ++blocks) {
      const Bytes iv = rng.bytes(16);
      const Bytes ct = rng.bytes(16 * blocks);
      EXPECT_EQ(decrypt_with(kernel, host, iv, ct),
                decrypt_table(table, iv, ct))
          << len << "-byte key, " << blocks << " blocks";
    }
  }
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes ct = rng.bytes(3670016);
  EXPECT_EQ(decrypt_with(kernel, Aes(key), iv, ct),
            decrypt_table(Aes::portable(key), iv, ct));
}

TEST(CbcKernels, AesNiX4MatchesTheTableRounds) {
  if (!accel::cpu_supported()) {
    GTEST_SKIP() << "host lacks AES-NI (aes)";
  }
  check_kernel_against_table(&accel::cbc_decrypt_blocks);
}

TEST(CbcKernels, VaesX16MatchesTheTableRounds) {
  if (!accel::vaes_supported()) {
    GTEST_SKIP() << "host lacks VAES or AVX-512F (vaes, avx512f)";
  }
  check_kernel_against_table(&accel::cbc_decrypt_blocks_vaes);
}

// Runs split at every offset into a 16-block group carry the chain from
// one VAES call to the next.
TEST(CbcKernels, VaesRunsCarryTheChainAcrossCalls) {
  if (!accel::vaes_supported()) {
    GTEST_SKIP() << "host lacks VAES or AVX-512F (vaes, avx512f)";
  }
  DeterministicRng rng(0xCA7);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes ct = rng.bytes(16 * 64);
  const Aes aes(key);
  const Bytes whole = decrypt_table(Aes::portable(key), iv, ct);
  for (std::size_t split = 1; split < 64; ++split) {
    Bytes out(ct.size());
    std::uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    accel::cbc_decrypt_blocks_vaes(aes.accel_dec_keys(), aes.rounds(), chain,
                                   ct.data(), out.data(), split);
    accel::cbc_decrypt_blocks_vaes(aes.accel_dec_keys(), aes.rounds(), chain,
                                   ct.data() + 16 * split,
                                   out.data() + 16 * split, 64 - split);
    out.insert(out.end(), chain, chain + 16);
    EXPECT_EQ(out, whole) << "split after " << split << " blocks";
  }
}

TEST(Cbc, RoundTripVariousLengths) {
  DeterministicRng rng(33);
  Bytes key = rng.bytes(16);
  Bytes iv = rng.bytes(16);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes pt = rng.bytes(len);
    Bytes ct = aes_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size(), (len / 16 + 1) * 16);
    EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt) << "len=" << len;
  }
}

TEST(Cbc, IvChangesCiphertext) {
  DeterministicRng rng(34);
  Bytes key = rng.bytes(16);
  Bytes pt = rng.bytes(64);
  Bytes c1 = aes_cbc_encrypt(key, rng.bytes(16), pt);
  Bytes c2 = aes_cbc_encrypt(key, rng.bytes(16), pt);
  EXPECT_NE(c1, c2);
}

TEST(Cbc, RejectsBadInputs) {
  Bytes key(16, 0), iv(16, 0);
  EXPECT_THROW(aes_cbc_encrypt(key, Bytes(8, 0), Bytes{}), Error);
  EXPECT_THROW(aes_cbc_decrypt(key, iv, Bytes(15, 0)), Error);
  EXPECT_THROW(aes_cbc_decrypt(key, iv, Bytes{}), Error);
}

TEST(Cbc, TamperedCiphertextFailsPadding) {
  // Not guaranteed for arbitrary tampering, but flipping bits in the last
  // block's padding region is overwhelmingly likely to break PKCS#7.
  Bytes key(16, 1), iv(16, 2);
  Bytes pt(20, 3);
  Bytes ct = aes_cbc_encrypt(key, iv, pt);
  Bytes wrong_key(16, 9);
  EXPECT_THROW(
      {
        Bytes out = aes_cbc_decrypt(wrong_key, iv, ct);
        // If padding happened to validate, the content must still differ.
        if (out == pt) throw Error(ErrorKind::kFormat, "impossible");
      },
      Error);
}

TEST(AesWrap, Rfc3394Vector128) {
  // RFC 3394 §4.1: wrap 128 bits of key data with a 128-bit KEK.
  Bytes kek = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes data = from_hex("00112233445566778899aabbccddeeff");
  Bytes wrapped = aes_wrap(kek, data);
  EXPECT_EQ(to_hex(wrapped),
            "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5");
  auto unwrapped = aes_unwrap(kek, wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(*unwrapped, data);
}

// RFC 3394 §4.1-4.6: every KEK size with every key-data size up to it,
// wrap and unwrap, on both schedules.
TEST(AesWrap, Rfc3394AllVectors) {
  const Bytes kek = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes data = from_hex(
      "00112233445566778899aabbccddeeff000102030405060708090a0b0c0d0e0f");
  struct Vector {
    std::size_t kek_len;
    std::size_t data_len;
    const char* wrapped;
  };
  const Vector vectors[] = {
      {16, 16, "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5"},
      {24, 16, "96778b25ae6ca435f92b5b97c050aed2468ab8a17ad84e5d"},
      {32, 16, "64e8c3f9ce0f5ba263e9777905818a2a93c8191e7d6e8ae7"},
      {24, 24,
       "031d33264e15d33268f24ec260743edce1c6c7ddee725a936ba814915c6762d2"},
      {32, 24,
       "a8f9bc1612c68b3ff6e6f4fbe30e71e4769c8b80a32cb8958cd5d17d6b254da1"},
      {32, 32,
       "28c9f404c4b810f4cbccb35cfb87f8263f5786e2d80ed326cbc7f0e71a99f43b"
       "fb988b9b7a02dd21"},
  };
  for (const Vector& v : vectors) {
    const ByteView key_data = ByteView(data).first(v.data_len);
    for (Path p : kPaths) {
      const Aes aes = make_aes(ByteView(kek).first(v.kek_len), p);
      const Bytes wrapped = aes_wrap(aes, key_data);
      EXPECT_EQ(to_hex(wrapped), v.wrapped)
          << v.kek_len << "/" << v.data_len << " " << name(p);
      auto unwrapped = aes_unwrap(aes, from_hex(v.wrapped));
      ASSERT_TRUE(unwrapped.has_value())
          << v.kek_len << "/" << v.data_len << " " << name(p);
      EXPECT_EQ(*unwrapped, Bytes(key_data.begin(), key_data.end()));
    }
    EXPECT_EQ(to_hex(aes_wrap(ByteView(kek).first(v.kek_len), key_data)),
              v.wrapped);
  }
}

TEST(AesWrap, RoundTripLengths) {
  DeterministicRng rng(44);
  Bytes kek = rng.bytes(16);
  for (std::size_t len : {16u, 24u, 32u, 40u, 64u}) {
    Bytes data = rng.bytes(len);
    Bytes wrapped = aes_wrap(kek, data);
    EXPECT_EQ(wrapped.size(), len + 8);
    auto back = aes_unwrap(kek, wrapped);
    ASSERT_TRUE(back.has_value()) << "len=" << len;
    EXPECT_EQ(*back, data);
  }
}

TEST(AesWrap, WrongKekDetected) {
  DeterministicRng rng(45);
  Bytes kek = rng.bytes(16);
  Bytes other = rng.bytes(16);
  Bytes wrapped = aes_wrap(kek, rng.bytes(32));
  EXPECT_FALSE(aes_unwrap(other, wrapped).has_value());
}

TEST(AesWrap, TamperDetected) {
  DeterministicRng rng(46);
  Bytes kek = rng.bytes(16);
  Bytes wrapped = aes_wrap(kek, rng.bytes(32));
  for (Path p : kPaths) {
    const Aes aes = make_aes(kek, p);
    for (std::size_t i = 0; i < wrapped.size(); i += 7) {
      Bytes bad = wrapped;
      bad[i] ^= 0x40;
      EXPECT_FALSE(aes_unwrap(aes, bad).has_value())
          << "byte " << i << " " << name(p);
    }
  }
}

TEST(AesWrap, RejectsBadLengths) {
  Bytes kek(16, 0);
  EXPECT_THROW(aes_wrap(kek, Bytes(8, 0)), Error);    // too short
  EXPECT_THROW(aes_wrap(kek, Bytes(20, 0)), Error);   // not multiple of 8
  EXPECT_THROW(aes_unwrap(kek, Bytes(16, 0)), Error); // too short
  EXPECT_THROW(aes_unwrap(kek, Bytes(25, 0)), Error); // not multiple of 8
}

}  // namespace
}  // namespace omadrm::crypto
