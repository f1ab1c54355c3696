// AES-CBC with PKCS#7 padding — OMA DRM 2's content encryption mode
// (AES_128_CBC in the DCF specification).
//
// Two tiers of API:
//
//   * The historical one-shot helpers (aes_cbc_encrypt / aes_cbc_decrypt)
//     build a key schedule and allocate a result per call. They remain
//     the right tool for small, infrequent payloads (ROAP, tests).
//   * The bulk tier — the fused block-run cores, the `_into` variants on
//     caller-owned buffers, and CbcDecryptStream — is the steady-state
//     content path: a prebuilt Aes context (a ContentSession owns its
//     own), zero allocations per operation, and whole-block runs that
//     dispatch to VAES (16 blocks per iteration) or AES-NI (4) when the
//     host supports it.
#pragma once

#include <span>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace omadrm::crypto {

/// Encrypts `plaintext` under `key` with the 16-byte `iv`. PKCS#7 padding
/// is always applied (so ciphertext is plaintext rounded up to the next
/// block, +16 when already aligned).
Bytes aes_cbc_encrypt(ByteView key, ByteView iv, ByteView plaintext);

/// Decrypts and strips PKCS#7 padding. Throws omadrm::Error(kFormat) on an
/// invalid ciphertext length or inconsistent padding. Padding failure is an
/// exception (not a soft result) because the DRM agent verifies the RO MAC
/// and the DCF hash *before* decrypting, so reaching bad padding means a
/// broken caller rather than an untrusted-input condition.
Bytes aes_cbc_decrypt(ByteView key, ByteView iv, ByteView ciphertext);

/// Buffer-reusing variants on a prebuilt key schedule: `out` is resized to
/// the result (its capacity persists across calls, so the steady state is
/// allocation-free) and the key schedule is built once by the caller.
void aes_cbc_encrypt_into(const Aes& aes, ByteView iv, ByteView plaintext,
                          Bytes& out);
void aes_cbc_decrypt_into(const Aes& aes, ByteView iv, ByteView ciphertext,
                          Bytes& out);

/// Fused CBC cores over whole 16-byte blocks. `chain` carries the running
/// chain value: the IV before the first call, the last ciphertext block
/// after each call — so a multi-megabyte payload can be processed as any
/// sequence of block runs. XORs are word-at-a-time (or AES-NI vector ops
/// when available); no per-block temporaries. `in` and `out` must not
/// alias. Padding is the caller's concern. On AES-NI hosts decryption
/// runs 16 blocks per iteration on VAES where the host has it (the
/// remainder, and hosts without VAES, 4 per iteration on AES-NI);
/// encryption is serial AES-NI.
void cbc_encrypt_blocks(const Aes& aes, std::uint8_t chain[Aes::kBlockSize],
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t n_blocks);
void cbc_decrypt_blocks(const Aes& aes, std::uint8_t chain[Aes::kBlockSize],
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t n_blocks);

/// Incremental CBC + PKCS#7 decryption over a borrowed ciphertext.
///
/// Serves plaintext in chunks of any granularity (down to one byte):
/// whole blocks ahead of the final one stream straight into the caller's
/// buffer through the fused core; only the final, padding-bearing block
/// passes through a 16-byte staging area so the padding can be validated
/// and stripped. No allocation, ever — the stream borrows the Aes context
/// and the ciphertext, both of which must outlive it.
///
/// Throws omadrm::Error(kFormat) on an invalid ciphertext length (at
/// construction) or inconsistent padding (when the final block is
/// reached), matching aes_cbc_decrypt.
class CbcDecryptStream {
 public:
  /// An empty stream; read() returns 0.
  CbcDecryptStream() = default;
  CbcDecryptStream(const Aes& aes, ByteView iv, ByteView ciphertext);

  /// Decrypts up to out.size() plaintext bytes into `out`; returns the
  /// number of bytes produced (0 once the stream is exhausted). `out`
  /// must not alias the borrowed ciphertext.
  std::size_t read(std::span<std::uint8_t> out);

  /// Restarts from the first plaintext byte (same key / IV / ciphertext).
  void rewind();

  /// True once every plaintext byte has been handed out.
  bool done() const {
    return ct_off_ == ct_.size() && stage_pos_ == stage_len_;
  }

 private:
  const Aes* aes_ = nullptr;
  ByteView ct_;
  std::uint8_t iv_[Aes::kBlockSize] = {};
  std::uint8_t chain_[Aes::kBlockSize] = {};
  std::uint8_t stage_[Aes::kBlockSize] = {};
  std::size_t ct_off_ = 0;
  std::size_t stage_pos_ = 0;
  std::size_t stage_len_ = 0;
};

/// PKCS#7 helpers exposed for tests.
Bytes pkcs7_pad(ByteView data, std::size_t block_size);
Bytes pkcs7_unpad(ByteView data, std::size_t block_size);
/// Validates the padding and returns the unpadded length without copying.
std::size_t pkcs7_unpad_len(ByteView data, std::size_t block_size);

}  // namespace omadrm::crypto
