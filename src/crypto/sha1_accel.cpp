#include "crypto/sha1_accel.h"

// Compiled with -msha -mssse3 -msse4.1 on x86 targets whose compiler
// accepts the flags (see CMakeLists). Everywhere else the guard below
// turns the whole unit into stubs, and sha1_supported() reporting false
// keeps them unreachable.
#if defined(__SHA__) && defined(__SSSE3__) && defined(__SSE4_1__) && \
    (defined(__x86_64__) || defined(__i386__))
#define OMADRM_SHANI 1
#include <immintrin.h>
#endif

namespace omadrm::crypto::accel {

#ifdef OMADRM_SHANI

bool sha1_supported() {
  static const bool ok = __builtin_cpu_supports("sha") != 0 &&
                         __builtin_cpu_supports("ssse3") != 0 &&
                         __builtin_cpu_supports("sse4.1") != 0;
  return ok;
}

// Four rounds: sha1nexte derives E for this quad from the previous
// quad's A (rotated) plus the message words, sha1rnds4 runs the rounds
// with the round function/constant selected by `f` (rounds / 20).
#define SHA1_QUAD(e_in, e_out, msg, f)     \
  e_in = _mm_sha1nexte_epu32(e_in, msg);   \
  e_out = abcd;                            \
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, f);

// Message schedule step after the quad that consumed `cur`: finishes the
// words four quads ahead (msg2), starts those three ahead (msg1) and
// folds `cur` into the ones two ahead.
#define SHA1_SCHED(cur, next1, next2, next3) \
  next1 = _mm_sha1msg2_epu32(next1, cur);    \
  next3 = _mm_sha1msg1_epu32(next3, cur);    \
  next2 = _mm_xor_si128(next2, cur);

void sha1_compress_blocks(std::uint32_t state[5], const std::uint8_t* p,
                          std::size_t n_blocks) {
  // Byte-reverses the whole vector: big-endian words, W0 in the top lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  auto load = [&bswap](const std::uint8_t* q) {
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)), bswap);
  };

  // sha1rnds4 keeps A in the top lane, so state words are reversed.
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  __m128i e1;

  for (; n_blocks > 0; --n_blocks, p += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;

    // Rounds 0-15: the first quad adds E directly (there is no previous
    // A to rotate), then the remaining message words are loaded.
    __m128i m0 = load(p);
    e0 = _mm_add_epi32(e0, m0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    __m128i m1 = load(p + 16);
    SHA1_QUAD(e1, e0, m1, 0)
    m0 = _mm_sha1msg1_epu32(m0, m1);
    __m128i m2 = load(p + 32);
    SHA1_QUAD(e0, e1, m2, 0)
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);
    __m128i m3 = load(p + 48);
    SHA1_QUAD(e1, e0, m3, 0)
    SHA1_SCHED(m3, m0, m1, m2)

    // Rounds 16-67: steady state.
    SHA1_QUAD(e0, e1, m0, 0) SHA1_SCHED(m0, m1, m2, m3)
    SHA1_QUAD(e1, e0, m1, 1) SHA1_SCHED(m1, m2, m3, m0)
    SHA1_QUAD(e0, e1, m2, 1) SHA1_SCHED(m2, m3, m0, m1)
    SHA1_QUAD(e1, e0, m3, 1) SHA1_SCHED(m3, m0, m1, m2)
    SHA1_QUAD(e0, e1, m0, 1) SHA1_SCHED(m0, m1, m2, m3)
    SHA1_QUAD(e1, e0, m1, 1) SHA1_SCHED(m1, m2, m3, m0)
    SHA1_QUAD(e0, e1, m2, 2) SHA1_SCHED(m2, m3, m0, m1)
    SHA1_QUAD(e1, e0, m3, 2) SHA1_SCHED(m3, m0, m1, m2)
    SHA1_QUAD(e0, e1, m0, 2) SHA1_SCHED(m0, m1, m2, m3)
    SHA1_QUAD(e1, e0, m1, 2) SHA1_SCHED(m1, m2, m3, m0)
    SHA1_QUAD(e0, e1, m2, 2) SHA1_SCHED(m2, m3, m0, m1)
    SHA1_QUAD(e1, e0, m3, 3) SHA1_SCHED(m3, m0, m1, m2)
    SHA1_QUAD(e0, e1, m0, 3) SHA1_SCHED(m0, m1, m2, m3)

    // Rounds 68-79: the schedule drains.
    SHA1_QUAD(e1, e0, m1, 3)
    m2 = _mm_sha1msg2_epu32(m2, m1);
    m3 = _mm_xor_si128(m3, m1);
    SHA1_QUAD(e0, e1, m2, 3)
    m3 = _mm_sha1msg2_epu32(m3, m2);
    SHA1_QUAD(e1, e0, m3, 3)

    // Feed-forward: E via one more rotate-and-add, A-D lane-wise.
    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef SHA1_QUAD
#undef SHA1_SCHED

#else  // !OMADRM_SHANI — portable stubs, never reached at runtime.

bool sha1_supported() { return false; }

void sha1_compress_blocks(std::uint32_t*, const std::uint8_t*, std::size_t) {}

#endif

}  // namespace omadrm::crypto::accel
