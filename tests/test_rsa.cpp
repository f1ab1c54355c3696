// Tests for RSA primitives, RSASSA-PSS, and the OMA RSA-KEM key transport.
//
// Key generation for RSA-1024 is exercised once in a fixture shared across
// tests (deterministic seed), keeping the suite fast while still covering
// real-size keys.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bigint/mont_accel.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/sha1.h"
#include "rsa/kem.h"
#include "rsa/pss.h"
#include "rsa/rsa.h"
#include "rsa_bigint.h"

namespace omadrm::rsa {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;

class RsaFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DeterministicRng rng(0xD41);
    key_ = new PrivateKey(generate_key(1024, rng));
  }
  static void TearDownTestSuite() {
    delete key_;
    key_ = nullptr;
  }
  static const PrivateKey& key() { return *key_; }

 private:
  static PrivateKey* key_;
};

PrivateKey* RsaFixture::key_ = nullptr;

TEST_F(RsaFixture, GeneratedKeyShape) {
  EXPECT_EQ(key().n.bit_length(), 1024u);
  EXPECT_EQ(key().byte_length(), 128u);
  EXPECT_EQ(key().e.to_dec(), "65537");
  EXPECT_TRUE(key().has_crt);
  EXPECT_EQ(key().p * key().q, key().n);
  EXPECT_GT(key().p, key().q);
}

TEST_F(RsaFixture, EncryptDecryptRoundTrip) {
  DeterministicRng rng(1);
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::random_below(key().n, rng);
    BigInt c = rsaep(key().public_key(), m);
    EXPECT_EQ(rsadp(key(), c), m);
  }
}

TEST_F(RsaFixture, SignVerifyPrimitivesRoundTrip) {
  DeterministicRng rng(2);
  BigInt m = BigInt::random_below(key().n, rng);
  BigInt s = rsadp(key(), m);
  EXPECT_EQ(rsaep(key().public_key(), s), m);
}

TEST_F(RsaFixture, CrtMatchesPlainExponentiation) {
  DeterministicRng rng(3);
  BigInt c = BigInt::random_below(key().n, rng);
  PrivateKey plain = key();
  plain.has_crt = false;
  EXPECT_EQ(rsadp(key(), c), rsadp(plain, c));
}

// On an IFMA host rsadp runs both CRT halves as one dual exponentiation;
// its result must equal the plain c^d mod n for every key and ciphertext,
// the edges 0, 1 and n - 1 included.
TEST(RsaDualCrt, X2PathMatchesNonCrt) {
  if (!bigint::accel::ifma_supported()) {
    GTEST_SKIP() << "host lacks avx512f, avx512vl, avx512ifma or bmi2 "
                    "(or the x2 kernel is not compiled in)";
  }
  DeterministicRng rng(0x1F3D);
  for (int k = 0; k < 3; ++k) {
    const PrivateKey key = generate_key(1024, rng);
    std::vector<BigInt> cs = {BigInt{}, BigInt(1), key.n - BigInt(1)};
    for (int i = 0; i < 5; ++i) cs.push_back(BigInt::random_below(key.n, rng));
    for (const BigInt& c : cs) {
      EXPECT_EQ(rsadp(key, c), BigInt::mod_exp(c, key.d, key.n)) << k;
    }
  }
}

// A CRT key on chosen primes (p, q in either order).
PrivateKey key_from_primes(const BigInt& p, const BigInt& q) {
  const BigInt one(1);
  PrivateKey key;
  key.n = p * q;
  key.e = BigInt(65537);
  const BigInt phi = (p - one) * (q - one);
  key.d = BigInt::mod_inverse(key.e, phi);
  key.p = p;
  key.q = q;
  key.dp = key.d.mod(p - one);
  key.dq = key.d.mod(q - one);
  key.qinv = BigInt::mod_inverse(q, p);
  key.has_crt = true;
  return key;
}

// A prime of `bits` bits with p - 1 coprime to 65537.
BigInt rsa_prime(std::size_t bits, Rng& rng) {
  for (;;) {
    const BigInt p = bigint::generate_prime(bits, rng);
    if (!(p - BigInt(1)).mod(BigInt(65537)).is_zero()) return p;
  }
}

// rsadp and rsaep on the fixed-width path against BigInt::mod_exp, for
// key shapes that between them take every Montgomery back end the host
// has:
//   512/512  CRT halves of 8 words: the IFMA x2 dual exponentiation (or
//            two ADX or portable calls); the 16-word public op on ADX
//   256/256  4-word halves on the portable kernel; public op on ADX8
//   512/448  an 8-word and a 7-word half: two mod_exp calls, ADX and
//            portable; a 15-word public op on the portable kernel
//   448/512  the same with q > p, so Garner's m2 can exceed p
// Inputs: 0, 1, n - 1, p, q, small and the largest multiples of p and q
// below n, and random ones, which between them give both signs of
// m1 - m2 in Garner's step.
TEST(RsaFixedWidth, MatchesBigIntModExpOnEveryShape) {
  DeterministicRng rng(0xF1D);
  const BigInt one(1);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {512, 512}, {256, 256}, {512, 448}, {448, 512}};
  for (const auto& [pbits, qbits] : shapes) {
    const BigInt p = rsa_prime(pbits, rng);
    const BigInt q = rsa_prime(qbits, rng);
    const PrivateKey key = key_from_primes(p, q);
    const PublicKey pub = key.public_key();
    std::vector<BigInt> cs = {BigInt{},        one,     key.n - one, p,
                              q,               p + p,   q * BigInt(3),
                              p * (q - one),   q * (p - one)};
    for (int i = 0; i < 12; ++i) cs.push_back(BigInt::random_below(key.n, rng));
    int negative = 0, positive = 0;
    for (const BigInt& c : cs) {
      const BigInt want = BigInt::mod_exp(c, key.d, key.n);
      EXPECT_EQ(rsadp(key, c), want) << pbits << "/" << qbits;
      EXPECT_EQ(rsaep(pub, c), BigInt::mod_exp(c, key.e, key.n))
          << pbits << "/" << qbits;
      EXPECT_EQ(rsaep(pub, want), c) << pbits << "/" << qbits;
      const BigInt m1 = BigInt::mod_exp(c, key.dp, p);
      const BigInt m2 = BigInt::mod_exp(c, key.dq, q).mod(p);
      (m1 < m2 ? negative : positive)++;
    }
    EXPECT_GT(negative, 0) << pbits << "/" << qbits;
    EXPECT_GT(positive, 0) << pbits << "/" << qbits;
  }
}

// The octet-string surface: inputs of any length (leading zeros
// included), exactly out.size() output bytes.
TEST_F(RsaFixture, PrimitivesTakeAndFillOctetStrings) {
  Bytes c(128), m(128);
  rsaep(key().public_key(), Bytes{0, 0, 3}, c);
  Bytes padded(2, 0);
  padded.insert(padded.end(), c.begin(), c.end());
  rsadp(key(), padded, m);
  EXPECT_EQ(os2ip(m), BigInt(3));
  Bytes long_out(130);
  rsadp(key(), c, long_out);
  EXPECT_EQ(os2ip(long_out), BigInt(3));
  Bytes small(4);
  EXPECT_THROW(rsaep(key().public_key(), padded, small), Error);
}

TEST_F(RsaFixture, PrimitivesRejectOutOfRange) {
  EXPECT_THROW(rsaep(key().public_key(), key().n), Error);
  EXPECT_THROW(rsadp(key(), key().n + BigInt(1)), Error);
  EXPECT_THROW(rsaep(key().public_key(), BigInt(-1)), Error);
}

TEST(RsaSmallKeys, DifferentSizesWork) {
  for (std::size_t bits : {256u, 512u}) {
    DeterministicRng rng(bits);
    PrivateKey k = generate_key(bits, rng);
    EXPECT_EQ(k.n.bit_length(), bits);
    BigInt m(std::uint64_t{0x1234567});
    EXPECT_EQ(rsadp(k, rsaep(k.public_key(), m)), m);
  }
}

TEST(RsaKeyGen, RejectsBadSizes) {
  DeterministicRng rng(1);
  EXPECT_THROW(generate_key(32, rng), Error);
  EXPECT_THROW(generate_key(127, rng), Error);
}

TEST(I2osp, PadsAndRejects) {
  EXPECT_EQ(to_hex(i2osp(BigInt(0x1234), 4)), "00001234");
  EXPECT_EQ(to_hex(i2osp(BigInt{}, 2)), "0000");
  EXPECT_THROW(i2osp(BigInt(0x123456), 2), Error);
  EXPECT_THROW(i2osp(BigInt(-5), 4), Error);
  EXPECT_EQ(os2ip(from_hex("00001234")).to_hex(), "1234");
}

// The MGF1 mask of `seed`: XORed into zeros.
Bytes mgf1_sha1(ByteView seed, std::size_t len) {
  Bytes mask(len, 0);
  mgf1_sha1_xor(seed, mask);
  return mask;
}

TEST(Mgf1, ExpandsDeterministically) {
  Bytes seed = to_bytes("seed");
  Bytes m1 = mgf1_sha1(seed, 48);
  Bytes m2 = mgf1_sha1(seed, 48);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1.size(), 48u);
  // Prefix property mirrors the counter construction.
  EXPECT_EQ(mgf1_sha1(seed, 20),
            Bytes(m1.begin(), m1.begin() + 20));
  EXPECT_NE(mgf1_sha1(to_bytes("other"), 48), m1);
}

TEST_F(RsaFixture, PssSignVerify) {
  DeterministicRng rng(7);
  Bytes msg = to_bytes("ROAP RegistrationRequest payload");
  Bytes sig = pss_sign(key(), msg, rng);
  EXPECT_EQ(sig.size(), key().byte_length());
  EXPECT_TRUE(pss_verify(key().public_key(), msg, sig));
}

TEST_F(RsaFixture, PssRejectsTamperedMessage) {
  DeterministicRng rng(8);
  Bytes msg = to_bytes("original message");
  Bytes sig = pss_sign(key(), msg, rng);
  EXPECT_FALSE(pss_verify(key().public_key(), to_bytes("forged message"),
                          sig));
}

TEST_F(RsaFixture, PssRejectsTamperedSignature) {
  DeterministicRng rng(9);
  Bytes msg = to_bytes("message");
  Bytes sig = pss_sign(key(), msg, rng);
  for (std::size_t i = 0; i < sig.size(); i += 17) {
    Bytes bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(pss_verify(key().public_key(), msg, bad)) << "byte " << i;
  }
  EXPECT_FALSE(pss_verify(key().public_key(), msg,
                          ByteView(sig).subspan(1)));
}

TEST_F(RsaFixture, PssSignaturesAreRandomizedButBothVerify) {
  DeterministicRng rng(10);
  Bytes msg = to_bytes("salted scheme");
  Bytes s1 = pss_sign(key(), msg, rng);
  Bytes s2 = pss_sign(key(), msg, rng);
  EXPECT_NE(s1, s2);  // fresh salt each time
  EXPECT_TRUE(pss_verify(key().public_key(), msg, s1));
  EXPECT_TRUE(pss_verify(key().public_key(), msg, s2));
}

TEST_F(RsaFixture, PssWrongKeyRejects) {
  DeterministicRng rng(11);
  PrivateKey other = generate_key(512, rng);
  Bytes msg = to_bytes("message");
  Bytes sig = pss_sign(key(), msg, rng);
  EXPECT_FALSE(pss_verify(other.public_key(), msg, sig));
}

TEST(EmsaPss, EncodeVerifyDirect) {
  DeterministicRng rng(12);
  Bytes msg = to_bytes("direct encoding test");
  Bytes em(128);
  emsa_pss_encode(msg, 1023, rng, em);
  EXPECT_EQ(em.size(), 128u);
  EXPECT_EQ(em.back(), 0xbc);
  EXPECT_TRUE(emsa_pss_verify(msg, em, 1023));
  EXPECT_FALSE(emsa_pss_verify(to_bytes("other"), em, 1023));
  Bytes bad = em;
  bad[50] ^= 1;
  EXPECT_FALSE(emsa_pss_verify(msg, bad, 1023));
}

TEST(EmsaPss, KeyTooSmallThrows) {
  DeterministicRng rng(13);
  Bytes em(16);
  EXPECT_THROW(emsa_pss_encode(to_bytes("m"), 128, rng, em), Error);
}

TEST_F(RsaFixture, KemEncapsulateDecapsulate) {
  DeterministicRng rng(14);
  KemEncapsulation enc = kem_encapsulate(key().public_key(), rng);
  EXPECT_EQ(enc.c1.size(), 128u);
  EXPECT_EQ(enc.kek.size(), kKekLen);
  EXPECT_EQ(kem_decapsulate(key(), enc.c1), enc.kek);
}

// The private-key output bytes are a function of the key, the message and
// the RNG alone, whichever Montgomery kernel computed them. A seeded key
// (whose Miller-Rabin rounds also ran on the kernel), four PSS signatures
// and a KEM round trip are hashed together and pinned.
TEST_F(RsaFixture, SignatureBytesArePinned) {
  DeterministicRng rng(0x516);
  crypto::Sha1 h;
  for (std::size_t i = 0; i < 4; ++i) {
    h.update(pss_sign(key(), rng.bytes(100 + i), rng));
  }
  KemEncapsulation enc = kem_encapsulate(key().public_key(), rng);
  const Bytes kek = kem_decapsulate(key(), enc.c1);
  EXPECT_EQ(kek, enc.kek);
  h.update(enc.c1);
  h.update(kek);
  EXPECT_EQ(to_hex(h.finish()), "d932a622f79c358ba4d2cfd9029fe9c36f1ec801");
}

TEST_F(RsaFixture, KemWrapUnwrapKeys) {
  DeterministicRng rng(15);
  // K_MAC || K_REK : 32 bytes, as in the paper's Figure 3.
  Bytes key_material = rng.bytes(32);
  Bytes c = kem_wrap_keys(key().public_key(), key_material, rng);
  EXPECT_EQ(c.size(), 128u + 40u);  // C1 (1024 bit) + AES-WRAP(32B)
  auto back = kem_unwrap_keys(key(), c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, key_material);
}

TEST_F(RsaFixture, KemWrongKeyFailsCleanly) {
  DeterministicRng rng(16);
  PrivateKey other = generate_key(1024, rng);
  Bytes c = kem_wrap_keys(key().public_key(), rng.bytes(32), rng);
  EXPECT_FALSE(kem_unwrap_keys(other, c).has_value());
}

TEST_F(RsaFixture, KemTamperedCFails) {
  DeterministicRng rng(17);
  Bytes c = kem_wrap_keys(key().public_key(), rng.bytes(32), rng);
  Bytes bad = c;
  bad[130] ^= 0x80;  // inside C2
  EXPECT_FALSE(kem_unwrap_keys(key(), bad).has_value());
  EXPECT_THROW(kem_unwrap_keys(key(), ByteView(c).subspan(0, 100)), Error);
}

TEST_F(RsaFixture, KemFreshSecretsPerEncapsulation) {
  DeterministicRng rng(18);
  KemEncapsulation a = kem_encapsulate(key().public_key(), rng);
  KemEncapsulation b = kem_encapsulate(key().public_key(), rng);
  EXPECT_NE(a.c1, b.c1);
  EXPECT_NE(a.kek, b.kek);
}

}  // namespace
}  // namespace omadrm::rsa
