#include "crypto/modes.h"

#include <cstring>

#include "common/error.h"
#include "crypto/aes_accel.h"

namespace omadrm::crypto {

namespace {

// 16-byte XOR as four 32-bit words; memcpy keeps it alignment- and
// aliasing-safe and compiles to plain register moves.
inline void xor_block(std::uint8_t* out, const std::uint8_t* a,
                      const std::uint8_t* b) {
  std::uint32_t x[4];
  std::uint32_t y[4];
  std::memcpy(x, a, Aes::kBlockSize);
  std::memcpy(y, b, Aes::kBlockSize);
  x[0] ^= y[0];
  x[1] ^= y[1];
  x[2] ^= y[2];
  x[3] ^= y[3];
  std::memcpy(out, x, Aes::kBlockSize);
}

}  // namespace

Bytes pkcs7_pad(ByteView data, std::size_t block_size) {
  if (block_size == 0 || block_size > 255) {
    throw Error(ErrorKind::kRange, "pkcs7 block size out of range");
  }
  std::size_t pad = block_size - data.size() % block_size;
  Bytes out(data.begin(), data.end());
  out.insert(out.end(), pad, static_cast<std::uint8_t>(pad));
  return out;
}

std::size_t pkcs7_unpad_len(ByteView data, std::size_t block_size) {
  if (data.empty() || data.size() % block_size != 0) {
    throw Error(ErrorKind::kFormat, "pkcs7: bad padded length");
  }
  std::uint8_t pad = data.back();
  if (pad == 0 || pad > block_size) {
    throw Error(ErrorKind::kFormat, "pkcs7: bad padding byte");
  }
  for (std::size_t i = data.size() - pad; i < data.size(); ++i) {
    if (data[i] != pad) {
      throw Error(ErrorKind::kFormat, "pkcs7: inconsistent padding");
    }
  }
  return data.size() - pad;
}

Bytes pkcs7_unpad(ByteView data, std::size_t block_size) {
  const std::size_t len = pkcs7_unpad_len(data, block_size);
  return Bytes(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(len));
}

void cbc_encrypt_blocks(const Aes& aes, std::uint8_t chain[Aes::kBlockSize],
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t n_blocks) {
  if (n_blocks == 0) return;
  if (aes.has_accel()) {
    accel::cbc_encrypt_blocks(aes.accel_enc_keys(), aes.rounds(), chain, in,
                              out, n_blocks);
    return;
  }
  const std::uint8_t* prev = chain;
  for (std::size_t i = 0; i < n_blocks; ++i) {
    std::uint8_t block[Aes::kBlockSize];
    xor_block(block, in + Aes::kBlockSize * i, prev);
    aes.encrypt_block(block, out + Aes::kBlockSize * i);
    prev = out + Aes::kBlockSize * i;
  }
  std::memcpy(chain, prev, Aes::kBlockSize);
}

void cbc_decrypt_blocks(const Aes& aes, std::uint8_t chain[Aes::kBlockSize],
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t n_blocks) {
  if (n_blocks == 0) return;
  if (aes.has_accel()) {
    // 16 blocks per iteration on VAES hosts, 4 on plain AES-NI.
    const auto run = accel::vaes_supported() ? accel::cbc_decrypt_blocks_vaes
                                             : accel::cbc_decrypt_blocks;
    run(aes.accel_dec_keys(), aes.rounds(), chain, in, out, n_blocks);
    return;
  }
  // Block 0 chains off the caller's chain value; every later block chains
  // off ciphertext still available in `in` (in/out must not alias), so no
  // per-block chain copies are needed.
  aes.decrypt_block(in, out);
  xor_block(out, out, chain);
  for (std::size_t i = 1; i < n_blocks; ++i) {
    aes.decrypt_block(in + Aes::kBlockSize * i, out + Aes::kBlockSize * i);
    xor_block(out + Aes::kBlockSize * i, out + Aes::kBlockSize * i,
              in + Aes::kBlockSize * (i - 1));
  }
  std::memcpy(chain, in + Aes::kBlockSize * (n_blocks - 1), Aes::kBlockSize);
}

void aes_cbc_encrypt_into(const Aes& aes, ByteView iv, ByteView plaintext,
                          Bytes& out) {
  if (iv.size() != Aes::kBlockSize) {
    throw Error(ErrorKind::kCrypto, "CBC IV must be 16 bytes");
  }
  const std::size_t full = plaintext.size() / Aes::kBlockSize;
  const std::size_t rem = plaintext.size() - full * Aes::kBlockSize;
  out.resize((full + 1) * Aes::kBlockSize);
  std::uint8_t chain[Aes::kBlockSize];
  std::memcpy(chain, iv.data(), Aes::kBlockSize);
  cbc_encrypt_blocks(aes, chain, plaintext.data(), out.data(), full);
  // Final block: the plaintext tail plus PKCS#7 padding (a whole padding
  // block when the input is aligned).
  std::uint8_t last[Aes::kBlockSize];
  if (rem > 0) std::memcpy(last, plaintext.data() + full * Aes::kBlockSize, rem);
  std::memset(last + rem, static_cast<int>(Aes::kBlockSize - rem),
              Aes::kBlockSize - rem);
  cbc_encrypt_blocks(aes, chain, last, out.data() + full * Aes::kBlockSize, 1);
}

void aes_cbc_decrypt_into(const Aes& aes, ByteView iv, ByteView ciphertext,
                          Bytes& out) {
  if (iv.size() != Aes::kBlockSize) {
    throw Error(ErrorKind::kCrypto, "CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    throw Error(ErrorKind::kFormat, "CBC ciphertext length invalid");
  }
  out.resize(ciphertext.size());
  std::uint8_t chain[Aes::kBlockSize];
  std::memcpy(chain, iv.data(), Aes::kBlockSize);
  cbc_decrypt_blocks(aes, chain, ciphertext.data(), out.data(),
                     ciphertext.size() / Aes::kBlockSize);
  out.resize(pkcs7_unpad_len(out, Aes::kBlockSize));
}

Bytes aes_cbc_encrypt(ByteView key, ByteView iv, ByteView plaintext) {
  Aes aes(key);
  Bytes out;
  aes_cbc_encrypt_into(aes, iv, plaintext, out);
  return out;
}

Bytes aes_cbc_decrypt(ByteView key, ByteView iv, ByteView ciphertext) {
  Aes aes(key);
  Bytes out;
  aes_cbc_decrypt_into(aes, iv, ciphertext, out);
  return out;
}

CbcDecryptStream::CbcDecryptStream(const Aes& aes, ByteView iv,
                                   ByteView ciphertext)
    : aes_(&aes), ct_(ciphertext) {
  if (iv.size() != Aes::kBlockSize) {
    throw Error(ErrorKind::kCrypto, "CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    throw Error(ErrorKind::kFormat, "CBC ciphertext length invalid");
  }
  std::memcpy(iv_, iv.data(), Aes::kBlockSize);
  std::memcpy(chain_, iv_, Aes::kBlockSize);
}

void CbcDecryptStream::rewind() {
  std::memcpy(chain_, iv_, Aes::kBlockSize);
  ct_off_ = 0;
  stage_pos_ = 0;
  stage_len_ = 0;
}

std::size_t CbcDecryptStream::read(std::span<std::uint8_t> out) {
  if (out.empty()) return 0;
  std::size_t produced = 0;
  while (produced < out.size()) {
    if (stage_pos_ < stage_len_) {
      const std::size_t take =
          std::min(stage_len_ - stage_pos_, out.size() - produced);
      std::memcpy(out.data() + produced, stage_ + stage_pos_, take);
      stage_pos_ += take;
      produced += take;
      continue;
    }
    const std::size_t ct_left = ct_.size() - ct_off_;
    if (ct_left == 0) break;
    // Every whole block ahead of the final (padding-bearing) one can be
    // decrypted straight into the caller's buffer in one fused run.
    const std::size_t bulk =
        std::min((out.size() - produced) / Aes::kBlockSize,
                 ct_left / Aes::kBlockSize - 1);
    if (bulk > 0) {
      cbc_decrypt_blocks(*aes_, chain_, ct_.data() + ct_off_,
                         out.data() + produced, bulk);
      ct_off_ += bulk * Aes::kBlockSize;
      produced += bulk * Aes::kBlockSize;
      continue;
    }
    // One block through the staging area: either the caller's buffer has
    // less than a block of room, or this is the final block and its
    // padding must be validated and stripped before any byte leaves.
    cbc_decrypt_blocks(*aes_, chain_, ct_.data() + ct_off_, stage_, 1);
    ct_off_ += Aes::kBlockSize;
    stage_pos_ = 0;
    stage_len_ = Aes::kBlockSize;
    if (ct_off_ == ct_.size()) {
      stage_len_ =
          pkcs7_unpad_len(ByteView(stage_, Aes::kBlockSize), Aes::kBlockSize);
    }
  }
  // When only the final block remains and the staging area is drained,
  // resolve it now: if it is pure padding (aligned plaintext), done()
  // must flip as soon as the last plaintext byte has been handed out.
  if (stage_pos_ == stage_len_ && ct_.size() - ct_off_ == Aes::kBlockSize) {
    cbc_decrypt_blocks(*aes_, chain_, ct_.data() + ct_off_, stage_, 1);
    ct_off_ += Aes::kBlockSize;
    stage_pos_ = 0;
    stage_len_ =
        pkcs7_unpad_len(ByteView(stage_, Aes::kBlockSize), Aes::kBlockSize);
  }
  return produced;
}

}  // namespace omadrm::crypto
