#include "rsa/kem.h"

#include <array>

#include "common/error.h"
#include "crypto/aes_wrap.h"
#include "crypto/kdf2.h"
#include "rsa/key_ctx.h"

namespace omadrm::rsa {

using bigint::kMaxBytes;
using omadrm::Error;
using omadrm::ErrorKind;

KemEncapsulation kem_encapsulate(const PublicKey& key, Rng& rng) {
  const PublicCtx& ctx = key.ctx.get(key);
  const std::size_t k = key.byte_length();
  const std::size_t nw = ctx.n.words();
  // Z uniform below n by rejection sampling: k random bytes with the
  // bits above n's length cleared, the draws BigInt::random_below makes.
  std::array<std::uint8_t, kMaxBytes> buf;
  const std::span<std::uint8_t> z = std::span(buf).first(k);
  const std::size_t excess_bits = 8 * k - key.n.bit_length();
  Word zw[kMaxWords];
  do {
    rng.fill(z.data(), k);
    z[0] &= static_cast<std::uint8_t>(0xff >> excess_bits);
  } while (!bigint::from_be(zw, nw, z) ||
           !bigint::less_n(zw, ctx.n.modulus(), nw));
  KemEncapsulation out;
  out.c1.resize(k);
  ctx.exp(z, out.c1, "kem: Z out of range");
  out.kek = crypto::kdf2_sha1(z, kKekLen);
  return out;
}

Bytes kem_decapsulate(const PrivateKey& key, ByteView c1) {
  const std::size_t k = key.byte_length();
  if (c1.size() != k) {
    throw Error(ErrorKind::kCrypto, "kem: C1 length != key length");
  }
  if (k > kMaxBytes) throw Error(ErrorKind::kCrypto, "kem: key too wide");
  std::array<std::uint8_t, kMaxBytes> buf;
  const std::span<std::uint8_t> z = std::span(buf).first(k);
  rsadp(key, c1, z);  // kCrypto when C1 >= n
  return crypto::kdf2_sha1(z, kKekLen);
}

Bytes kem_wrap_keys(const PublicKey& key, ByteView key_material, Rng& rng) {
  KemEncapsulation enc = kem_encapsulate(key, rng);
  Bytes c2 = crypto::aes_wrap(enc.kek, key_material);
  return concat({enc.c1, c2});
}

std::optional<Bytes> kem_unwrap_keys(const PrivateKey& key, ByteView c) {
  const std::size_t k = key.byte_length();
  if (c.size() < k + 24) {
    throw Error(ErrorKind::kCrypto, "kem: C too short");
  }
  Bytes kek = kem_decapsulate(key, c.subspan(0, k));
  return crypto::aes_unwrap(kek, c.subspan(k));
}

}  // namespace omadrm::rsa
