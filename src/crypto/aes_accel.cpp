#include "crypto/aes_accel.h"

// Compiled with -maes on x86 targets whose compiler accepts the flag (see
// CMakeLists). Everywhere else the guard below turns the whole unit into
// stubs, and cpu_supported() reporting false keeps them unreachable.
#if defined(__AES__) && defined(__SSE2__) && \
    (defined(__x86_64__) || defined(__i386__))
#define OMADRM_AESNI 1
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

namespace omadrm::crypto::accel {

#ifdef OMADRM_AESNI

bool cpu_supported() {
  static const bool ok = __builtin_cpu_supports("aes") != 0;
  return ok;
}

namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// One AES-128 expansion step: the next round key from the previous one
// and its AESKEYGENASSIST word (RotWord(SubWord(w3)) ^ rcon in lane 3).
inline __m128i expand_128(__m128i k, __m128i assist) {
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, _mm_shuffle_epi32(assist, 0xff));
}

// Max 15 round keys (AES-256: 14 rounds + 1).
struct Schedule {
  __m128i k[15];
  int rounds;

  Schedule(const std::uint8_t* keys, int nr) : rounds(nr) {
    for (int r = 0; r <= nr; ++r) k[r] = load(keys + 16 * r);
  }
};

inline __m128i encrypt_one(const Schedule& s, __m128i b) {
  b = _mm_xor_si128(b, s.k[0]);
  for (int r = 1; r < s.rounds; ++r) b = _mm_aesenc_si128(b, s.k[r]);
  return _mm_aesenclast_si128(b, s.k[s.rounds]);
}

inline __m128i decrypt_one(const Schedule& s, __m128i b) {
  b = _mm_xor_si128(b, s.k[0]);
  for (int r = 1; r < s.rounds; ++r) b = _mm_aesdec_si128(b, s.k[r]);
  return _mm_aesdeclast_si128(b, s.k[s.rounds]);
}

// RFC 3394 step counter t = n*j + i + 1, XORed into A as a big-endian
// 64-bit value: in the low lane of a little-endian load that is bswap(t).
inline __m128i step_counter(std::uint64_t t) {
  return _mm_set_epi64x(0, static_cast<long long>(__builtin_bswap64(t)));
}

// The wrap and unwrap loops with the round count fixed at compile time,
// so the rounds unroll and the round keys stay in registers across all
// 6n steps (A's chain makes every step wait on the previous one).
template <int Nr>
void key_wrap_n(const std::uint8_t* enc_keys, std::uint8_t a_out[8],
                std::uint8_t* r, std::size_t n) {
  __m128i k[Nr + 1];
  for (int i = 0; i <= Nr; ++i) k[i] = load(enc_keys + 16 * i);
  __m128i a = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a_out));
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      __m128i* ri = reinterpret_cast<__m128i*>(r + 8 * i);
      __m128i b = _mm_unpacklo_epi64(a, _mm_loadl_epi64(ri));
      b = _mm_xor_si128(b, k[0]);
      for (int x = 1; x < Nr; ++x) b = _mm_aesenc_si128(b, k[x]);
      b = _mm_aesenclast_si128(b, k[Nr]);
      a = _mm_xor_si128(b, step_counter(n * j + i + 1));
      _mm_storel_epi64(ri, _mm_unpackhi_epi64(b, b));
    }
  }
  _mm_storel_epi64(reinterpret_cast<__m128i*>(a_out), a);
}

template <int Nr>
void key_unwrap_n(const std::uint8_t* dec_keys, std::uint8_t a_out[8],
                  std::uint8_t* r, std::size_t n) {
  __m128i k[Nr + 1];
  for (int i = 0; i <= Nr; ++i) k[i] = load(dec_keys + 16 * i);
  __m128i a = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a_out));
  for (std::size_t j = 6; j-- > 0;) {
    for (std::size_t i = n; i-- > 0;) {
      __m128i* ri = reinterpret_cast<__m128i*>(r + 8 * i);
      __m128i b = _mm_unpacklo_epi64(
          _mm_xor_si128(a, step_counter(n * j + i + 1)), _mm_loadl_epi64(ri));
      b = _mm_xor_si128(b, k[0]);
      for (int x = 1; x < Nr; ++x) b = _mm_aesdec_si128(b, k[x]);
      a = _mm_aesdeclast_si128(b, k[Nr]);
      _mm_storel_epi64(ri, _mm_unpackhi_epi64(a, a));
    }
  }
  _mm_storel_epi64(reinterpret_cast<__m128i*>(a_out), a);
}

}  // namespace

void expand_key_128(const std::uint8_t key[16], std::uint8_t* enc_keys,
                    std::uint8_t* dec_keys) {
  __m128i k[11];
  k[0] = load(key);
  // AESKEYGENASSIST takes its round constant as an immediate.
  k[1] = expand_128(k[0], _mm_aeskeygenassist_si128(k[0], 0x01));
  k[2] = expand_128(k[1], _mm_aeskeygenassist_si128(k[1], 0x02));
  k[3] = expand_128(k[2], _mm_aeskeygenassist_si128(k[2], 0x04));
  k[4] = expand_128(k[3], _mm_aeskeygenassist_si128(k[3], 0x08));
  k[5] = expand_128(k[4], _mm_aeskeygenassist_si128(k[4], 0x10));
  k[6] = expand_128(k[5], _mm_aeskeygenassist_si128(k[5], 0x20));
  k[7] = expand_128(k[6], _mm_aeskeygenassist_si128(k[6], 0x40));
  k[8] = expand_128(k[7], _mm_aeskeygenassist_si128(k[7], 0x80));
  k[9] = expand_128(k[8], _mm_aeskeygenassist_si128(k[8], 0x1b));
  k[10] = expand_128(k[9], _mm_aeskeygenassist_si128(k[9], 0x36));
  for (int r = 0; r <= 10; ++r) store(enc_keys + 16 * r, k[r]);
  store(dec_keys, k[10]);
  for (int r = 1; r < 10; ++r) {
    store(dec_keys + 16 * r, _mm_aesimc_si128(k[10 - r]));
  }
  store(dec_keys + 16 * 10, k[0]);
}

void build_decrypt_schedule(const std::uint8_t* enc_keys, int rounds,
                            std::uint8_t* dec_keys) {
  store(dec_keys, load(enc_keys + 16 * rounds));
  for (int r = 1; r < rounds; ++r) {
    store(dec_keys + 16 * r,
          _mm_aesimc_si128(load(enc_keys + 16 * (rounds - r))));
  }
  store(dec_keys + 16 * rounds, load(enc_keys));
}

void encrypt_block(const std::uint8_t* enc_keys, int rounds,
                   const std::uint8_t in[16], std::uint8_t out[16]) {
  __m128i b = _mm_xor_si128(load(in), load(enc_keys));
  for (int r = 1; r < rounds; ++r) {
    b = _mm_aesenc_si128(b, load(enc_keys + 16 * r));
  }
  store(out, _mm_aesenclast_si128(b, load(enc_keys + 16 * rounds)));
}

void decrypt_block(const std::uint8_t* dec_keys, int rounds,
                   const std::uint8_t in[16], std::uint8_t out[16]) {
  __m128i b = _mm_xor_si128(load(in), load(dec_keys));
  for (int r = 1; r < rounds; ++r) {
    b = _mm_aesdec_si128(b, load(dec_keys + 16 * r));
  }
  store(out, _mm_aesdeclast_si128(b, load(dec_keys + 16 * rounds)));
}

void key_wrap(const std::uint8_t* enc_keys, int rounds, std::uint8_t a[8],
              std::uint8_t* r, std::size_t n) {
  switch (rounds) {
    case 10: return key_wrap_n<10>(enc_keys, a, r, n);
    case 12: return key_wrap_n<12>(enc_keys, a, r, n);
    default: return key_wrap_n<14>(enc_keys, a, r, n);
  }
}

void key_unwrap(const std::uint8_t* dec_keys, int rounds, std::uint8_t a[8],
                std::uint8_t* r, std::size_t n) {
  switch (rounds) {
    case 10: return key_unwrap_n<10>(dec_keys, a, r, n);
    case 12: return key_unwrap_n<12>(dec_keys, a, r, n);
    default: return key_unwrap_n<14>(dec_keys, a, r, n);
  }
}

void cbc_encrypt_blocks(const std::uint8_t* enc_keys, int rounds,
                        std::uint8_t chain[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n_blocks) {
  const Schedule s(enc_keys, rounds);
  __m128i c = load(chain);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    c = encrypt_one(s, _mm_xor_si128(load(in + 16 * i), c));
    store(out + 16 * i, c);
  }
  store(chain, c);
}

void cbc_decrypt_blocks(const std::uint8_t* dec_keys, int rounds,
                        std::uint8_t chain[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n_blocks) {
  const Schedule s(dec_keys, rounds);
  __m128i prev = load(chain);
  std::size_t i = 0;
  // CBC decryption has no serial dependency between block ciphers — only
  // the final XOR chains — so run four AES pipelines in parallel.
  for (; i + 4 <= n_blocks; i += 4) {
    const __m128i c0 = load(in + 16 * i);
    const __m128i c1 = load(in + 16 * i + 16);
    const __m128i c2 = load(in + 16 * i + 32);
    const __m128i c3 = load(in + 16 * i + 48);
    __m128i b0 = _mm_xor_si128(c0, s.k[0]);
    __m128i b1 = _mm_xor_si128(c1, s.k[0]);
    __m128i b2 = _mm_xor_si128(c2, s.k[0]);
    __m128i b3 = _mm_xor_si128(c3, s.k[0]);
    for (int r = 1; r < s.rounds; ++r) {
      b0 = _mm_aesdec_si128(b0, s.k[r]);
      b1 = _mm_aesdec_si128(b1, s.k[r]);
      b2 = _mm_aesdec_si128(b2, s.k[r]);
      b3 = _mm_aesdec_si128(b3, s.k[r]);
    }
    b0 = _mm_aesdeclast_si128(b0, s.k[s.rounds]);
    b1 = _mm_aesdeclast_si128(b1, s.k[s.rounds]);
    b2 = _mm_aesdeclast_si128(b2, s.k[s.rounds]);
    b3 = _mm_aesdeclast_si128(b3, s.k[s.rounds]);
    store(out + 16 * i, _mm_xor_si128(b0, prev));
    store(out + 16 * i + 16, _mm_xor_si128(b1, c0));
    store(out + 16 * i + 32, _mm_xor_si128(b2, c1));
    store(out + 16 * i + 48, _mm_xor_si128(b3, c2));
    prev = c3;
  }
  for (; i < n_blocks; ++i) {
    const __m128i c = load(in + 16 * i);
    store(out + 16 * i, _mm_xor_si128(decrypt_one(s, c), prev));
    prev = c;
  }
  store(chain, prev);
}

#else  // !OMADRM_AESNI — portable stubs, never reached at runtime.

bool cpu_supported() { return false; }

void expand_key_128(const std::uint8_t*, std::uint8_t*, std::uint8_t*) {}
void build_decrypt_schedule(const std::uint8_t*, int, std::uint8_t*) {}
void encrypt_block(const std::uint8_t*, int, const std::uint8_t*,
                   std::uint8_t*) {}
void decrypt_block(const std::uint8_t*, int, const std::uint8_t*,
                   std::uint8_t*) {}
void key_wrap(const std::uint8_t*, int, std::uint8_t*, std::uint8_t*,
              std::size_t) {}
void key_unwrap(const std::uint8_t*, int, std::uint8_t*, std::uint8_t*,
                std::size_t) {}
void cbc_encrypt_blocks(const std::uint8_t*, int, std::uint8_t*,
                        const std::uint8_t*, std::uint8_t*, std::size_t) {}
void cbc_decrypt_blocks(const std::uint8_t*, int, std::uint8_t*,
                        const std::uint8_t*, std::uint8_t*, std::size_t) {}

#endif

}  // namespace omadrm::crypto::accel
