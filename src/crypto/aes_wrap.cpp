#include "crypto/aes_wrap.h"

#include <cstring>

#include "common/error.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"

namespace omadrm::crypto {

namespace {
// RFC 3394 initial value.
constexpr std::uint8_t kIv[8] = {0xa6, 0xa6, 0xa6, 0xa6,
                                 0xa6, 0xa6, 0xa6, 0xa6};

// XORs the step counter t into A as a big-endian 64-bit value.
void xor_counter(std::uint8_t a[8], std::uint64_t t) {
  for (int b = 0; b < 8; ++b) {
    a[7 - b] ^= static_cast<std::uint8_t>(t >> (8 * b));
  }
}

// The 6·n steps on the T-table path (hosts without AES-NI); `a` is the
// integrity register and `r` the n 8-byte blocks, updated in place.
void wrap_steps(const Aes& aes, std::uint8_t a[8], std::uint8_t* r,
                std::size_t n) {
  std::uint8_t block[16];
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(block, a, 8);
      std::memcpy(block + 8, r + 8 * i, 8);
      aes.encrypt_block(block, block);
      std::memcpy(a, block, 8);
      xor_counter(a, static_cast<std::uint64_t>(n) * j + i + 1);
      std::memcpy(r + 8 * i, block + 8, 8);
    }
  }
}

void unwrap_steps(const Aes& aes, std::uint8_t a[8], std::uint8_t* r,
                  std::size_t n) {
  std::uint8_t block[16];
  for (std::size_t j = 6; j-- > 0;) {
    for (std::size_t i = n; i-- > 0;) {
      std::memcpy(block, a, 8);
      xor_counter(block, static_cast<std::uint64_t>(n) * j + i + 1);
      std::memcpy(block + 8, r + 8 * i, 8);
      aes.decrypt_block(block, block);
      std::memcpy(a, block, 8);
      std::memcpy(r + 8 * i, block + 8, 8);
    }
  }
}

}  // namespace

Bytes aes_wrap(ByteView kek, ByteView key_data) {
  return aes_wrap(Aes(kek), key_data);
}

std::optional<Bytes> aes_unwrap(ByteView kek, ByteView wrapped) {
  return aes_unwrap(Aes(kek), wrapped);
}

Bytes aes_wrap(const Aes& aes, ByteView key_data) {
  if (key_data.size() < 16 || key_data.size() % 8 != 0) {
    throw Error(ErrorKind::kCrypto,
                "aes_wrap: key data must be >=16 bytes, multiple of 8");
  }
  const std::size_t n = key_data.size() / 8;

  // A ‖ R1 ‖ ... ‖ Rn, wrapped in place.
  Bytes out(8 + key_data.size());
  std::memcpy(out.data(), kIv, 8);
  std::memcpy(out.data() + 8, key_data.data(), key_data.size());
  if (aes.has_accel()) {
    accel::key_wrap(aes.accel_enc_keys(), aes.rounds(), out.data(),
                    out.data() + 8, n);
  } else {
    wrap_steps(aes, out.data(), out.data() + 8, n);
  }
  return out;
}

std::optional<Bytes> aes_unwrap(const Aes& aes, ByteView wrapped) {
  if (wrapped.size() < 24 || wrapped.size() % 8 != 0) {
    throw Error(ErrorKind::kCrypto,
                "aes_unwrap: wrapped data must be >=24 bytes, multiple of 8");
  }
  const std::size_t n = wrapped.size() / 8 - 1;

  std::uint8_t a[8];
  std::memcpy(a, wrapped.data(), 8);
  Bytes r(wrapped.begin() + 8, wrapped.end());
  if (aes.has_accel()) {
    accel::key_unwrap(aes.accel_dec_keys(), aes.rounds(), a, r.data(), n);
  } else {
    unwrap_steps(aes, a, r.data(), n);
  }

  if (!ct_equal(ByteView(a, 8), ByteView(kIv, 8))) {
    return std::nullopt;
  }
  return r;
}

}  // namespace omadrm::crypto
