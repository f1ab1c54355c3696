// AES block cipher (FIPS 197), key sizes 128/192/256.
//
// OMA DRM 2 mandates AES-128 in two roles: AES-CBC for content
// encryption (see modes.h) and AES-WRAP for key wrapping (see aes_wrap.h).
//
// An Aes holds one key schedule, chosen once per host. On hosts with
// AES-NI it is the hardware round keys (crypto/aes_accel.h): AES-128
// expands with AESKEYGENASSIST, and single blocks, key wrap and CBC runs
// all execute on the AES-NI (and VAES) units, which are constant-time, so
// the K_DEV and K_REK unwraps of every content access leak nothing
// through the cache. Elsewhere it is the classic 32-bit T-table form; the
// tables are derived programmatically from the GF(2^8) field arithmetic
// at startup, so there are no hand-typed constants to mistype (FIPS-197
// known-answer tests pin the behaviour). T-table AES is not constant-time
// with respect to cache timing. That is acceptable here — this library
// is a performance-model reproduction, not a hardened production build —
// and it applies only to hosts without AES-NI, and to Aes::portable,
// which keeps the T-table path reachable everywhere for tests and
// benchmarks.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace omadrm::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes; throws omadrm::Error(kCrypto)
  /// otherwise. Builds the AES-NI schedule when the host supports it
  /// (runtime CPU detection), the T-table schedule otherwise.
  explicit Aes(ByteView key);

  /// The T-table schedule and rounds whatever the host: the path hosts
  /// without AES-NI take, reachable on every host so tests and
  /// benchmarks can check and time it, as sha1_compress_portable is.
  static Aes portable(ByteView key);

  int rounds() const { return rounds_; }

  /// Single-block ECB operations; `in` and `out` may alias.
  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const;

  /// True when the schedule is the AES-NI one; key wrap and the CBC
  /// cores in modes.h dispatch on this.
  bool has_accel() const { return has_accel_; }
  /// (rounds + 1) 16-byte round keys in FIPS-197 byte order (decryption
  /// keys for the equivalent inverse cipher), valid only when
  /// has_accel().
  const std::uint8_t* accel_enc_keys() const {
    return reinterpret_cast<const std::uint8_t*>(ek_.data());
  }
  const std::uint8_t* accel_dec_keys() const {
    return reinterpret_cast<const std::uint8_t*>(dk_.data());
  }

 private:
  Aes(ByteView key, bool accel);

  int rounds_;
  bool has_accel_;
  // 4 * (rounds + 1) round-key words, max 60 for AES-256: the T-table
  // schedule as native words, or with has_accel_ the AES-NI round keys
  // as bytes in FIPS-197 order.
  alignas(16) std::array<std::uint32_t, 60> ek_{};
  alignas(16) std::array<std::uint32_t, 60> dk_{};
};

}  // namespace omadrm::crypto
