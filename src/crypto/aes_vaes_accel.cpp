#include "crypto/aes_accel.h"

// Compiled with -maes -mvaes -mavx512f on x86-64 targets whose compiler
// accepts the flags (see CMakeLists). Everywhere else the guard below
// turns the whole unit into stubs, and vaes_supported() reporting false
// keeps them unreachable.
#if defined(__AES__) && defined(__VAES__) && defined(__AVX512F__) && \
    defined(__x86_64__)
#define OMADRM_VAES 1
#include <immintrin.h>
#endif

namespace omadrm::crypto::accel {

#ifdef OMADRM_VAES

bool vaes_supported() {
  static const bool ok = __builtin_cpu_supports("aes") != 0 &&
                         __builtin_cpu_supports("vaes") != 0 &&
                         __builtin_cpu_supports("avx512f") != 0;
  return ok;
}

namespace {

inline __m512i load(const std::uint8_t* p) { return _mm512_loadu_si512(p); }

// The all-ones masked (maskz) forms of VBROADCASTI32X4, VALIGNQ and
// VEXTRACTI32X4 are the same instructions; GCC 12's unmasked intrinsics
// pass an "undefined" vector that -Wuninitialized reports.
inline __m512i broadcast(const std::uint8_t* p) {
  return _mm512_maskz_broadcast_i32x4(
      0xffff, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// For each block of b, the block before it: the last block of a, then
// the first three of b.
inline __m512i shift_in(__m512i b, __m512i a) {
  return _mm512_maskz_alignr_epi64(0xff, b, a, 6);
}

// 16 blocks per iteration: each zmm vector carries four blocks through
// one VAESDEC per round, four vectors in flight. The XOR operand of
// block k is ciphertext block k - 1; for each vector it is the vector
// shifted up one lane with the last block of the vector before it
// (`carried`, in its top lane) shifted in, one VALIGNQ.
template <int Nr>
void cbc_decrypt_x16(const std::uint8_t* dec_keys, std::uint8_t chain[16],
                     const std::uint8_t* in, std::uint8_t* out,
                     std::size_t groups) {
  __m512i k[Nr + 1];
  for (int r = 0; r <= Nr; ++r) k[r] = broadcast(dec_keys + 16 * r);
  __m512i carried = broadcast(chain);
  for (std::size_t g = 0; g < groups; ++g, in += 256, out += 256) {
    const __m512i c0 = load(in);
    const __m512i c1 = load(in + 64);
    const __m512i c2 = load(in + 128);
    const __m512i c3 = load(in + 192);
    __m512i b0 = _mm512_xor_si512(c0, k[0]);
    __m512i b1 = _mm512_xor_si512(c1, k[0]);
    __m512i b2 = _mm512_xor_si512(c2, k[0]);
    __m512i b3 = _mm512_xor_si512(c3, k[0]);
    for (int r = 1; r < Nr; ++r) {
      b0 = _mm512_aesdec_epi128(b0, k[r]);
      b1 = _mm512_aesdec_epi128(b1, k[r]);
      b2 = _mm512_aesdec_epi128(b2, k[r]);
      b3 = _mm512_aesdec_epi128(b3, k[r]);
    }
    b0 = _mm512_aesdeclast_epi128(b0, k[Nr]);
    b1 = _mm512_aesdeclast_epi128(b1, k[Nr]);
    b2 = _mm512_aesdeclast_epi128(b2, k[Nr]);
    b3 = _mm512_aesdeclast_epi128(b3, k[Nr]);
    _mm512_storeu_si512(out, _mm512_xor_si512(b0, shift_in(c0, carried)));
    _mm512_storeu_si512(out + 64, _mm512_xor_si512(b1, shift_in(c1, c0)));
    _mm512_storeu_si512(out + 128, _mm512_xor_si512(b2, shift_in(c2, c1)));
    _mm512_storeu_si512(out + 192, _mm512_xor_si512(b3, shift_in(c3, c2)));
    carried = c3;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(chain),
                   _mm512_maskz_extracti32x4_epi32(0xf, carried, 3));
}

}  // namespace

void cbc_decrypt_blocks_vaes(const std::uint8_t* dec_keys, int rounds,
                             std::uint8_t chain[16], const std::uint8_t* in,
                             std::uint8_t* out, std::size_t n_blocks) {
  const std::size_t groups = n_blocks / 16;
  if (groups > 0) {
    switch (rounds) {
      case 10: cbc_decrypt_x16<10>(dec_keys, chain, in, out, groups); break;
      case 12: cbc_decrypt_x16<12>(dec_keys, chain, in, out, groups); break;
      default: cbc_decrypt_x16<14>(dec_keys, chain, in, out, groups); break;
    }
  }
  const std::size_t done = 16 * groups;
  if (done < n_blocks) {
    cbc_decrypt_blocks(dec_keys, rounds, chain, in + 16 * done,
                       out + 16 * done, n_blocks - done);
  }
}

#else  // !OMADRM_VAES — portable stubs, never reached at runtime.

bool vaes_supported() { return false; }

void cbc_decrypt_blocks_vaes(const std::uint8_t*, int, std::uint8_t*,
                             const std::uint8_t*, std::uint8_t*,
                             std::size_t) {}

#endif

}  // namespace omadrm::crypto::accel
