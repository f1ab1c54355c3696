#include "rsa/pss.h"

#include <algorithm>
#include <array>

#include "bigint/limbs.h"
#include "common/error.h"
#include "crypto/sha1.h"

namespace omadrm::rsa {

using bigint::kMaxBytes;
using crypto::Sha1;
using omadrm::Error;
using omadrm::ErrorKind;

namespace {

constexpr std::size_t kHashLen = Sha1::kDigestSize;
using Digest = std::array<std::uint8_t, kHashLen>;

// H = SHA-1(8 zero bytes || SHA-1(message) || salt): the M' hash both
// directions compute.
Digest m_prime_hash(ByteView message, ByteView salt) {
  Digest m_hash, h;
  Sha1 sha;
  sha.update(message);
  sha.finish_into(m_hash.data());
  sha.reset();
  const std::uint8_t zeros[8] = {};
  sha.update(ByteView(zeros, sizeof zeros));
  sha.update(m_hash);
  sha.update(salt);
  sha.finish_into(h.data());
  return h;
}

}  // namespace

void mgf1_sha1_xor(ByteView seed, std::span<std::uint8_t> data) {
  std::uint32_t counter = 0;
  for (std::size_t done = 0; done < data.size(); done += kHashLen) {
    Sha1 h;
    h.update(seed);
    std::uint8_t c[4];
    store_be32(counter++, c);
    h.update(ByteView(c, 4));
    Digest block;
    h.finish_into(block.data());
    const std::size_t take = std::min(kHashLen, data.size() - done);
    for (std::size_t i = 0; i < take; ++i) data[done + i] ^= block[i];
  }
}

void emsa_pss_encode(ByteView message, std::size_t em_bits, Rng& rng,
                     std::span<std::uint8_t> em) {
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em_len < kHashLen + kPssSaltLen + 2) {
    throw Error(ErrorKind::kCrypto, "pss: key too small for encoding");
  }
  if (em.size() != em_len) {
    throw Error(ErrorKind::kRange, "pss: encoding buffer is not emLen bytes");
  }
  // EM = maskedDB || H || 0xbc, where DB = PS (zeros) || 0x01 || salt.
  const std::size_t db_len = em_len - kHashLen - 1;
  const std::span<std::uint8_t> db = em.first(db_len);
  std::fill(db.begin(), db.end(), 0);
  db[db_len - kPssSaltLen - 1] = 0x01;
  const std::span<std::uint8_t> salt = db.last(kPssSaltLen);
  rng.fill(salt.data(), salt.size());
  const Digest h = m_prime_hash(message, salt);
  mgf1_sha1_xor(h, db);
  // Clear the leftmost 8*emLen - emBits bits.
  const std::size_t excess_bits = 8 * em_len - em_bits;
  if (excess_bits > 0) {
    db[0] &= static_cast<std::uint8_t>(0xff >> excess_bits);
  }
  std::copy(h.begin(), h.end(), em.subspan(db_len).begin());
  em[em_len - 1] = 0xbc;
}

bool emsa_pss_verify(ByteView message, ByteView em, std::size_t em_bits) {
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em.size() != em_len || em_len > kMaxBytes) return false;
  if (em_len < kHashLen + kPssSaltLen + 2) return false;
  if (em.back() != 0xbc) return false;

  const std::size_t db_len = em_len - kHashLen - 1;
  ByteView h = em.subspan(db_len, kHashLen);

  const std::size_t excess_bits = 8 * em_len - em_bits;
  if (excess_bits > 0 &&
      (em[0] & ~static_cast<std::uint8_t>(0xff >> excess_bits)) != 0) {
    return false;
  }

  std::array<std::uint8_t, kMaxBytes> buf;
  const std::span<std::uint8_t> db = std::span(buf).first(db_len);
  std::copy_n(em.begin(), db_len, db.begin());
  mgf1_sha1_xor(h, db);
  if (excess_bits > 0) {
    db[0] &= static_cast<std::uint8_t>(0xff >> excess_bits);
  }

  // DB must be zeros, then 0x01, then the salt.
  const std::size_t ps_len = db_len - kPssSaltLen - 1;
  for (std::size_t i = 0; i < ps_len; ++i) {
    if (db[i] != 0) return false;
  }
  if (db[ps_len] != 0x01) return false;
  return ct_equal(h, m_prime_hash(message, db.last(kPssSaltLen)));
}

Bytes pss_sign(const PrivateKey& key, ByteView message, Rng& rng) {
  const std::size_t mod_bits = key.n.bit_length();
  const std::size_t em_len = (mod_bits - 1 + 7) / 8;
  if (em_len > kMaxBytes) throw Error(ErrorKind::kCrypto, "pss: key too wide");
  std::array<std::uint8_t, kMaxBytes> em;
  emsa_pss_encode(message, mod_bits - 1, rng, std::span(em).first(em_len));
  Bytes signature(key.byte_length());
  rsadp(key, ByteView(em.data(), em_len), signature);
  return signature;
}

bool pss_verify(const PublicKey& key, ByteView message, ByteView signature) {
  const std::size_t k = key.byte_length();
  if (signature.size() != k || k > kMaxBytes) return false;
  std::array<std::uint8_t, kMaxBytes> buf;
  const std::span<std::uint8_t> m = std::span(buf).first(k);
  try {
    rsaep(key, signature, m);
  } catch (const Error&) {
    return false;  // s >= n, or a modulus the RSA path cannot use
  }
  const std::size_t mod_bits = key.n.bit_length();
  const std::size_t em_len = (mod_bits - 1 + 7) / 8;
  // EM is the low em_len bytes of m; a set byte above them fails.
  for (std::size_t i = 0; i + em_len < k; ++i) {
    if (m[i] != 0) return false;
  }
  return emsa_pss_verify(message, m.last(em_len), mod_bits - 1);
}

}  // namespace omadrm::rsa
