#include "crypto/sha1.h"

#include <cstring>

#include "common/error.h"
#include "crypto/sha1_accel.h"

namespace omadrm::crypto {

namespace {

inline std::uint32_t rotl(std::uint32_t v, int s) {
  return (v << s) | (v >> (32 - s));
}

// Fully unrolled compression over a 16-word rolling message schedule.
// The canonicalization/digest hot path of the wire layer (every ROAP
// signature covers a freshly serialized document) hashes short messages
// constantly; unrolling removes the per-round branch on the round index
// and the 80-word schedule array, and the register rotation is expressed
// by argument rotation so the compiler keeps a..e in registers.
inline void compress_block(std::uint32_t state[5],
                           const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  auto sched = [&w](int i) {
    const std::uint32_t v = rotl(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^
                                     w[(i - 14) & 15] ^ w[i & 15],
                                 1);
    w[i & 15] = v;
    return v;
  };

#define SHA1_R0(a, b, c, d, e, i)                                          \
  e += rotl(a, 5) + ((((c) ^ (d)) & (b)) ^ (d)) + 0x5a827999u + w[i];        \
  b = rotl(b, 30);
#define SHA1_R0X(a, b, c, d, e, i)                                         \
  e += rotl(a, 5) + ((((c) ^ (d)) & (b)) ^ (d)) + 0x5a827999u + sched(i);    \
  b = rotl(b, 30);
#define SHA1_R1(a, b, c, d, e, i)                                          \
  e += rotl(a, 5) + ((b) ^ (c) ^ (d)) + 0x6ed9eba1u + sched(i);            \
  b = rotl(b, 30);
#define SHA1_R2(a, b, c, d, e, i)                                          \
  e += rotl(a, 5) + ((((b) | (c)) & (d)) | ((b) & (c))) + 0x8f1bbcdcu +    \
       sched(i);                                                           \
  b = rotl(b, 30);
#define SHA1_R3(a, b, c, d, e, i)                                          \
  e += rotl(a, 5) + ((b) ^ (c) ^ (d)) + 0xca62c1d6u + sched(i);            \
  b = rotl(b, 30);

  SHA1_R0(a, b, c, d, e, 0)   SHA1_R0(e, a, b, c, d, 1)
  SHA1_R0(d, e, a, b, c, 2)   SHA1_R0(c, d, e, a, b, 3)
  SHA1_R0(b, c, d, e, a, 4)   SHA1_R0(a, b, c, d, e, 5)
  SHA1_R0(e, a, b, c, d, 6)   SHA1_R0(d, e, a, b, c, 7)
  SHA1_R0(c, d, e, a, b, 8)   SHA1_R0(b, c, d, e, a, 9)
  SHA1_R0(a, b, c, d, e, 10)  SHA1_R0(e, a, b, c, d, 11)
  SHA1_R0(d, e, a, b, c, 12)  SHA1_R0(c, d, e, a, b, 13)
  SHA1_R0(b, c, d, e, a, 14)  SHA1_R0(a, b, c, d, e, 15)
  SHA1_R0X(e, a, b, c, d, 16) SHA1_R0X(d, e, a, b, c, 17)
  SHA1_R0X(c, d, e, a, b, 18) SHA1_R0X(b, c, d, e, a, 19)

  SHA1_R1(a, b, c, d, e, 20)  SHA1_R1(e, a, b, c, d, 21)
  SHA1_R1(d, e, a, b, c, 22)  SHA1_R1(c, d, e, a, b, 23)
  SHA1_R1(b, c, d, e, a, 24)  SHA1_R1(a, b, c, d, e, 25)
  SHA1_R1(e, a, b, c, d, 26)  SHA1_R1(d, e, a, b, c, 27)
  SHA1_R1(c, d, e, a, b, 28)  SHA1_R1(b, c, d, e, a, 29)
  SHA1_R1(a, b, c, d, e, 30)  SHA1_R1(e, a, b, c, d, 31)
  SHA1_R1(d, e, a, b, c, 32)  SHA1_R1(c, d, e, a, b, 33)
  SHA1_R1(b, c, d, e, a, 34)  SHA1_R1(a, b, c, d, e, 35)
  SHA1_R1(e, a, b, c, d, 36)  SHA1_R1(d, e, a, b, c, 37)
  SHA1_R1(c, d, e, a, b, 38)  SHA1_R1(b, c, d, e, a, 39)

  SHA1_R2(a, b, c, d, e, 40)  SHA1_R2(e, a, b, c, d, 41)
  SHA1_R2(d, e, a, b, c, 42)  SHA1_R2(c, d, e, a, b, 43)
  SHA1_R2(b, c, d, e, a, 44)  SHA1_R2(a, b, c, d, e, 45)
  SHA1_R2(e, a, b, c, d, 46)  SHA1_R2(d, e, a, b, c, 47)
  SHA1_R2(c, d, e, a, b, 48)  SHA1_R2(b, c, d, e, a, 49)
  SHA1_R2(a, b, c, d, e, 50)  SHA1_R2(e, a, b, c, d, 51)
  SHA1_R2(d, e, a, b, c, 52)  SHA1_R2(c, d, e, a, b, 53)
  SHA1_R2(b, c, d, e, a, 54)  SHA1_R2(a, b, c, d, e, 55)
  SHA1_R2(e, a, b, c, d, 56)  SHA1_R2(d, e, a, b, c, 57)
  SHA1_R2(c, d, e, a, b, 58)  SHA1_R2(b, c, d, e, a, 59)

  SHA1_R3(a, b, c, d, e, 60)  SHA1_R3(e, a, b, c, d, 61)
  SHA1_R3(d, e, a, b, c, 62)  SHA1_R3(c, d, e, a, b, 63)
  SHA1_R3(b, c, d, e, a, 64)  SHA1_R3(a, b, c, d, e, 65)
  SHA1_R3(e, a, b, c, d, 66)  SHA1_R3(d, e, a, b, c, 67)
  SHA1_R3(c, d, e, a, b, 68)  SHA1_R3(b, c, d, e, a, 69)
  SHA1_R3(a, b, c, d, e, 70)  SHA1_R3(e, a, b, c, d, 71)
  SHA1_R3(d, e, a, b, c, 72)  SHA1_R3(c, d, e, a, b, 73)
  SHA1_R3(b, c, d, e, a, 74)  SHA1_R3(a, b, c, d, e, 75)
  SHA1_R3(e, a, b, c, d, 76)  SHA1_R3(d, e, a, b, c, 77)
  SHA1_R3(c, d, e, a, b, 78)  SHA1_R3(b, c, d, e, a, 79)

#undef SHA1_R0
#undef SHA1_R0X
#undef SHA1_R1
#undef SHA1_R2
#undef SHA1_R3

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

}  // namespace

void sha1_compress_portable(std::uint32_t state[5], const std::uint8_t* p,
                            std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, p += Sha1::kBlockSize) {
    compress_block(state, p);
  }
}

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffer_len_ = 0;
  total_len_ = 0;
  finished_ = false;
}

void Sha1::compress(std::uint32_t* state, const std::uint8_t* p,
                    std::size_t n_blocks) {
  if (accel::sha1_supported()) {
    accel::sha1_compress_blocks(state, p, n_blocks);
  } else {
    sha1_compress_portable(state, p, n_blocks);
  }
}

void Sha1::update(ByteView data) {
  if (finished_) {
    throw Error(ErrorKind::kState, "Sha1::update after finish");
  }
  // An empty view may carry a null data() (e.g. a default-constructed
  // span); bail before handing it to memcpy, which requires non-null.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    compress(state_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha1::finish_into(std::uint8_t out[kDigestSize]) {
  if (finished_) {
    throw Error(ErrorKind::kState, "Sha1::finish called twice");
  }
  finished_ = true;

  // The buffered tail, 0x80, zeros to 56 mod 64, then the 64-bit
  // big-endian bit length: one final block, or two when the tail is 56
  // bytes or longer and leaves no room for the length.
  std::uint8_t tail[kBlockSize * 2] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? kBlockSize : kBlockSize * 2;
  store_be64(total_len_ * 8, tail + tail_len - 8);
  compress(state_.data(), tail, tail_len / kBlockSize);

  for (int i = 0; i < 5; ++i) {
    store_be32(state_[static_cast<std::size_t>(i)], out + 4 * i);
  }
}

Bytes Sha1::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes Sha1::hash(ByteView data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

}  // namespace omadrm::crypto
