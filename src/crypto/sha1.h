// SHA-1 (FIPS 180-1) — the hash function mandated by OMA DRM 2 for DCF
// integrity, signatures (via EMSA-PSS), HMAC, and KDF2.
//
// Streaming interface so multi-megabyte DCFs can be hashed without
// buffering; a one-shot helper covers the common case.
//
// All compression goes through one dispatch point, Sha1::compress, which
// picks once per call between the x86 SHA-extension path
// (crypto/sha1_accel.h, selected by cpuid alone) and the portable
// unrolled rounds below. update() hands every whole block of its input
// to a single call, so the choice is made per update, not per block.
// Both paths produce identical digests.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace omadrm::crypto {

/// Portable SHA-1 compression over `n_blocks` consecutive 64-byte blocks
/// at `p`, updating the five-word chaining `state` in place. The
/// fallback for hosts without the SHA extensions, and the reference the
/// accelerated path is tested against.
void sha1_compress_portable(std::uint32_t state[5], const std::uint8_t* p,
                            std::size_t n_blocks);

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();

  /// Absorbs more input.
  void update(ByteView data);

  /// Finalizes and returns the 20-byte digest. The object must be reset()
  /// before reuse.
  Bytes finish();

  /// Finalizes into a caller-owned 20-byte buffer — the allocation-free
  /// variant the per-op paths (DcfReader, PSS, HMAC, KDF2) use.
  void finish_into(std::uint8_t out[kDigestSize]);

  /// Returns the object to its initial state.
  void reset();

  /// One-shot convenience.
  static Bytes hash(ByteView data);

 private:
  static void compress(std::uint32_t* state, const std::uint8_t* p,
                       std::size_t n_blocks);

  std::array<std::uint32_t, 5> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace omadrm::crypto
