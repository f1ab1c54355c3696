#include "bigint/mont_accel.h"

// Compiled with -mavx512f -mavx512vl -mavx512ifma -mbmi2 (mulx for the
// scalar column) on x86-64 targets whose compiler accepts the flags (see
// CMakeLists). Everywhere else the guard below turns the whole unit into
// stubs, and ifma_supported() reporting false keeps them unreachable.
#if defined(__AVX512F__) && defined(__AVX512VL__) && \
    defined(__AVX512IFMA__) && defined(__BMI2__) && defined(__x86_64__)
#define OMADRM_MONT_IFMA 1
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#endif

namespace omadrm::bigint::accel {

#ifdef OMADRM_MONT_IFMA

bool ifma_supported() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512vl") != 0 &&
                         __builtin_cpu_supports("avx512ifma") != 0 &&
                         __builtin_cpu_supports("bmi2") != 0;
  return ok;
}

// One almost-Montgomery product over ten 52-bit limbs runs ten rows; row
// i adds a * b[i] + m * u[i] and retires one limb. Instead of shifting
// the accumulator down a lane per row, the partial sums stay at fixed
// column positions and each row multiplies by shifted views of a and m:
// unaligned loads of the zero-padded multiplicand (Ifma52), and the
// modulus's precomputed aligned views (IfmaModulus). Column p of the full
// product lives in
//
//   pa0/pm0/pmh (zmm)  columns 2..9    read only by the scalar chain
//   pa1/pm1     (zmm)  columns 10..17  result limbs 0..7
//   p2          (xmm)  columns 18..19  result limbs 8..9
//
// with the a*b and m*u sums in separate registers, so the products that
// wait for u never queue behind the ones that do not (pmh takes the
// high halves of m*u in columns 2..9, so the next column's sum waits on
// one product after u). Row i's high halves
// and row i + 1's low halves read the same view of a, so each view is
// loaded once, into one of two registers that alternate by row: a view
// load crosses a cache line, and the loads, more than the multipliers,
// set the kernel's speed.
//
// The current column (the one u[i] clears) is tracked exactly in a
// scalar: a[0] b[i] and m[0] u[i] as full mulx products, a[1] b[i] and
// m[1] u[i] as low halves, plus the vector sum of the next column taken
// one row earlier than it is needed. So the next u waits on scalar
// multiplies only; the vector-to-scalar move has a row of slack. Row i's
// vector products land in columns below i + 2 too, but those columns are
// either already consumed or replaced by the scalar at the end.
//
// Every column is a sum of at most 40 terms below 2^52, so nothing
// overflows 64 bits before the final carry pass. Two independent halves
// run row by row in one instruction stream.

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask52 = (u64{1} << 52) - 1;
constexpr int kPad = 8;    // zero words below limb 0 in an Ifma52
constexpr int kView0 = 6;  // IfmaModulus::view index of shift 0
constexpr std::size_t kTableSize = 16;

u64* limbs(Ifma52& x) { return x.w + kPad; }
const u64* limbs(const Ifma52& x) { return x.w + kPad; }

// 8 words -> 10 limbs of 52 bits.
void to_radix52(u64* out, const u64* w) {
  for (int j = 0; j < 10; ++j) {
    const int bit = 52 * j, word = bit / 64, shift = bit % 64;
    u64 v = w[word] >> shift;
    if (shift > 12 && word + 1 < 8) v |= w[word + 1] << (64 - shift);
    out[j] = v & kMask52;
  }
}

// 10 normalized limbs of a value below 2^512 -> 8 words.
void from_radix52(u64* w, const u64* in) {
  u128 acc = 0;
  int bits = 0, k = 0;
  for (int j = 0; j < 10; ++j) {
    acc |= static_cast<u128>(in[j]) << bits;
    bits += 52;
    if (bits >= 64) {
      w[k++] = static_cast<u64>(acc);
      acc >>= 64;
      bits -= 64;
    }
  }
}

// Columns 10..19 -> ten normalized limbs at `r`, column 10 being the
// scalar `s`. One shift-and-add pass leaves every column below
// 2^52 + 2^6, so at most a single carry per column remains; it ripples
// through all-ones columns, resolved as an integer addition over the
// 10-bit generate/propagate masks. GCC vector syntax stands in for
// srli: GCC 12's srli, alignr and castsi512_si128 intrinsics trip
// -Wuninitialized.
inline void amm_finish(__m512i pa1, __m512i pm1, __m128i p2, u64 s, u64* r) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i lo = _mm512_mask_set1_epi64(_mm512_add_epi64(pa1, pm1), 1,
                                      static_cast<long long>(s));
  __m512i hi = _mm512_zextsi128_si512(p2);
  const __m512i clo = (__m512i)((__v8du)lo >> 52);  // vpsrlq
  const __m512i chi = (__m512i)((__v8du)hi >> 52);
  // Carries move up one column: lo lane k gets clo[k - 1], hi lane 0
  // clo[7] and hi lane 1 chi[0] (chi[1] is 0: the result is below 2^513).
  lo = _mm512_add_epi64(
      _mm512_and_si512(lo, mask),
      _mm512_maskz_permutexvar_epi64(
          0xfe, _mm512_set_epi64(6, 5, 4, 3, 2, 1, 0, 0), clo));
  hi = _mm512_add_epi64(
      _mm512_and_si512(hi, mask),
      _mm512_maskz_permutex2var_epi64(
          0x03, clo, _mm512_set_epi64(0, 0, 0, 0, 0, 0, 8, 7), chi));
  const unsigned g = _mm512_cmpgt_epu64_mask(lo, mask) |
                     (unsigned{_mm512_cmpgt_epu64_mask(hi, mask)} << 8);
  const unsigned p = _mm512_cmpeq_epu64_mask(lo, mask) |
                     (unsigned{_mm512_cmpeq_epu64_mask(hi, mask)} << 8);
  const unsigned carry = (((g << 1) + p) ^ p) & 0x3ff;
  const __m512i one = _mm512_set1_epi64(1);
  lo = _mm512_and_si512(
      _mm512_mask_add_epi64(lo, static_cast<__mmask8>(carry), lo, one), mask);
  hi = _mm512_and_si512(
      _mm512_mask_add_epi64(hi, static_cast<__mmask8>(carry >> 8), hi, one),
      mask);
  _mm512_storeu_si512(r, lo);
  _mm512_mask_storeu_epi64(r + 8, 0x03, hi);
}

// The operands of one dual product at fixed offsets from one pointer, so
// the kernel addresses all of them from a single register; the moduli
// come through one pointer each.
struct Work {
  Ifma52 a[2];   // multiplicand, replaced by the product
  u64 b[2][16];  // multiplier (unused when squaring)
};
static_assert(offsetof(Work, a) == 0 && offsetof(Work, b) == 512);
static_assert(offsetof(IfmaModulus, view) == 0 &&
              offsetof(IfmaModulus, k0) == 1168);

// The rows are GCC extended asm built from the macros below, one row of
// half 0 then the same row of half 1. Operand addresses are assembler
// expressions on the Work pointer w and the modulus pointers m0, m1:
// IF_A(j, h) is limb j of a[h] (j may fall in the zero padding), IF_B(j,
// h) limb j of b[h], IF_MV(k, h) the view of m[h] shifted by k, IF_M(j,
// h) limb j of m[h] and IF_K0(h) its k0.
//
// Registers: rdx feeds mulx and then holds u; rax:rbx is the column sum
// a0 b + s + m0 u; rcx gathers the next column's other terms; r8:r9
// m0 u; r10/r11 the vector partial sum of the next column per half; r12
// the 52-bit mask. Per half (half 0 first): zmm16/20 pa0, zmm17/21 pm0,
// zmm8/9 pmh, zmm18/22 broadcast b[i] (then scratch), zmm19/23 broadcast
// u; zmm24-31 the alternating views of a. Both halves reuse the scalar
// temporaries; register renaming keeps them apart.
#define IF_NL "\n\t"
#define IF_A(j, h) "64+8*(" #j ")+256*" #h "(%[w])"
#define IF_B(j, h) "512+8*(" #j ")+128*" #h "(%[w])"
#define IF_MV(k, h) "64*(6+" #k ")(%[m" #h "])"
#define IF_M(j, h) "64*6+8*" #j "(%[m" #h "])"
#define IF_K0(h) "1168(%[m" #h "])"

// The scalar column of row i: s <- (s + a0 b + m0 u) / 2^52 + lo(a1 b)
// + lo(m1 u) + x, with u = (s + a0 b) k0 mod 2^52; broadcasts b and u.
// Everything but s + a0 b -> u -> m0 u -> s is off the critical path.
#define IF_COL(BOFF, i, h, s, x, zb, zu)       \
  "movq " BOFF(i, h) ", %%rdx" IF_NL            \
  "vpbroadcastq " BOFF(i, h) ", %%" zb IF_NL    \
  "mulxq " IF_A(0, h) ", %%rax, %%rbx" IF_NL    \
  "imulq " IF_A(1, h) ", %%rdx" IF_NL           \
  "andq %%r12, %%rdx" IF_NL                     \
  "leaq (%%rdx, %%" x "), %%rcx" IF_NL          \
  "addq %[" s "], %%rax" IF_NL                  \
  "adcq $0, %%rbx" IF_NL                        \
  "movq " IF_K0(h) ", %%rdx" IF_NL              \
  "imulq %%rax, %%rdx" IF_NL                    \
  "andq %%r12, %%rdx" IF_NL                     \
  "vpbroadcastq %%rdx, %%" zu IF_NL             \
  "mulxq " IF_M(0, h) ", %%r8, %%r9" IF_NL      \
  "imulq " IF_M(1, h) ", %%rdx" IF_NL           \
  "andq %%r12, %%rdx" IF_NL                     \
  "addq %%rdx, %%rcx" IF_NL                     \
  "addq %%r8, %%rax" IF_NL                      \
  "adcq %%r9, %%rbx" IF_NL                      \
  "shrq $52, %%rax" IF_NL                       \
  "shlq $12, %%rbx" IF_NL                       \
  "addq %%rax, %%rcx" IF_NL                     \
  "leaq (%%rcx, %%rbx), %[" s "]" IF_NL

// Columns 2..9 (rows 0..7): a * b[i] into pa0, m * u into pm0 (low
// halves) and pmh (high halves), so the next column's sum waits on one
// product after u. `va` already holds view 2 - i of a; `vn` receives
// view 1 - i.
#define IF_P0(i, h, pa0, pm0, pmh, zb, zu, va, vn)          \
  "vmovdqu64 " IF_A(1 - i, h) ", %%" vn IF_NL               \
  "vpmadd52luq %%" va ", %%" zb ", %%" pa0 IF_NL            \
  "vpmadd52huq %%" vn ", %%" zb ", %%" pa0 IF_NL            \
  "vpmadd52luq " IF_MV(2 - i, h) ", %%" zu ", %%" pm0 IF_NL \
  "vpmadd52huq " IF_MV(1 - i, h) ", %%" zu ", %%" pmh IF_NL

// Columns 10..17 (every row): views 10 - i (in `va`) and 9 - i.
#define IF_P1(i, h, zb, zu, pa1, pm1, va, vn)                    \
  "vmovdqu64 " IF_A(9 - i, h) ", %%" vn IF_NL                    \
  "vpmadd52luq %%" va ", %%" zb ", %[" pa1 "]" IF_NL             \
  "vpmadd52huq %%" vn ", %%" zb ", %[" pa1 "]" IF_NL             \
  "vpmadd52luq " IF_MV(10 - i, h) ", %%" zu ", %[" pm1 "]" IF_NL \
  "vpmadd52huq " IF_MV(9 - i, h) ", %%" zu ", %[" pm1 "]" IF_NL

// Columns 18..19: high halves of row 8, both halves of row 9.
#define IF_P2_HI(i, h, xb, xu, p2)                             \
  "vpmadd52huq " IF_A(17 - i, h) ", %%" xb ", %[" p2 "]" IF_NL \
  "vpmadd52huq " IF_MV(17 - i, h) ", %%" xu ", %[" p2 "]" IF_NL
#define IF_P2_LO(h, xb, xu, p2)                           \
  "vpmadd52luq " IF_A(9, h) ", %%" xb ", %[" p2 "]" IF_NL \
  "vpmadd52luq " IF_MV(9, h) ", %%" xu ", %[" p2 "]" IF_NL

// x <- lane i of pa0 + pm0 + pmh: column i + 2 without row i + 1's
// terms.
#define IF_X(i, pa0, pm0, pmh, t, xt, x)          \
  "vpaddq %%" pa0 ", %%" pm0 ", %%" t IF_NL       \
  "vpaddq %%" t ", %%" pmh ", %%" t IF_NL         \
  "valignq $" #i ", %%" t ", %%" t ", %%" t IF_NL \
  "vmovq %%" xt ", %%" x IF_NL

// Rows 0..7. V lists the view registers (current, next) of half 0's pa0,
// half 1's pa0, half 0's pa1 and half 1's pa1; they swap every row.
#define IF_VIEWS_EVEN \
  "zmm24", "zmm25", "zmm26", "zmm27", "zmm28", "zmm29", "zmm30", "zmm31"
#define IF_VIEWS_ODD \
  "zmm25", "zmm24", "zmm27", "zmm26", "zmm29", "zmm28", "zmm31", "zmm30"
#define IF_ROW_LO(BOFF, i, V) IF_ROW_LO_(BOFF, i, V)
#define IF_ROW_LO_(BOFF, i, a0, n0, a1, n1, c0, d0, c1, d1)          \
  IF_COL(BOFF, i, 0, "s0", "r10", "zmm18", "zmm19")                  \
  IF_P0(i, 0, "zmm16", "zmm17", "zmm8", "zmm18", "zmm19", a0, n0)    \
  IF_P1(i, 0, "zmm18", "zmm19", "pa10", "pm10", c0, d0)              \
  IF_X(i, "zmm16", "zmm17", "zmm8", "zmm18", "xmm18", "r10")         \
  IF_COL(BOFF, i, 1, "s1", "r11", "zmm22", "zmm23")                  \
  IF_P0(i, 1, "zmm20", "zmm21", "zmm9", "zmm22", "zmm23", a1, n1)    \
  IF_P1(i, 1, "zmm22", "zmm23", "pa11", "pm11", c1, d1)              \
  IF_X(i, "zmm20", "zmm21", "zmm9", "zmm22", "xmm22", "r11")

// Row 8 (even) takes column 10's partial sum from lane 0 of pa1 + pm1.
#define IF_ROW_8(BOFF)                                                 \
  IF_COL(BOFF, 8, 0, "s0", "r10", "zmm18", "zmm19")                    \
  IF_P1(8, 0, "zmm18", "zmm19", "pa10", "pm10", "zmm28", "zmm29")      \
  IF_P2_HI(8, 0, "xmm18", "xmm19", "p20")                              \
  "vpaddq %[pa10], %[pm10], %%zmm18" IF_NL                             \
  "vmovq %%xmm18, %%r10" IF_NL                                         \
  IF_COL(BOFF, 8, 1, "s1", "r11", "zmm22", "zmm23")                    \
  IF_P1(8, 1, "zmm22", "zmm23", "pa11", "pm11", "zmm30", "zmm31")      \
  IF_P2_HI(8, 1, "xmm22", "xmm23", "p21")                              \
  "vpaddq %[pa11], %[pm11], %%zmm22" IF_NL                             \
  "vmovq %%xmm22, %%r11" IF_NL

#define IF_ROW_9(BOFF)                                                 \
  IF_COL(BOFF, 9, 0, "s0", "r10", "zmm18", "zmm19")                    \
  IF_P1(9, 0, "zmm18", "zmm19", "pa10", "pm10", "zmm29", "zmm28")      \
  IF_P2_LO(0, "xmm18", "xmm19", "p20")                                 \
  IF_P2_HI(9, 0, "xmm18", "xmm19", "p20")                              \
  IF_COL(BOFF, 9, 1, "s1", "r11", "zmm22", "zmm23")                    \
  IF_P1(9, 1, "zmm22", "zmm23", "pa11", "pm11", "zmm31", "zmm30")      \
  IF_P2_LO(1, "xmm22", "xmm23", "p21")                                 \
  IF_P2_HI(9, 1, "xmm22", "xmm23", "p21")

#define IF_ROWS(BOFF)                                                  \
  "vpxorq %%zmm16, %%zmm16, %%zmm16" IF_NL                             \
  "vpxorq %%zmm17, %%zmm17, %%zmm17" IF_NL                             \
  "vpxorq %%zmm20, %%zmm20, %%zmm20" IF_NL                             \
  "vpxorq %%zmm21, %%zmm21, %%zmm21" IF_NL                             \
  "vpxorq %%zmm8, %%zmm8, %%zmm8" IF_NL                                \
  "vpxorq %%zmm9, %%zmm9, %%zmm9" IF_NL                                \
  "vmovdqu64 " IF_A(2, 0) ", %%zmm24" IF_NL                            \
  "vmovdqu64 " IF_A(2, 1) ", %%zmm26" IF_NL                            \
  "vmovdqu64 " IF_A(10, 0) ", %%zmm28" IF_NL                           \
  "vmovdqu64 " IF_A(10, 1) ", %%zmm30" IF_NL                           \
  "xorl %%r10d, %%r10d" IF_NL "xorl %%r11d, %%r11d" IF_NL              \
  "movabsq $0xfffffffffffff, %%r12" IF_NL                              \
  IF_ROW_LO(BOFF, 0, IF_VIEWS_EVEN) IF_ROW_LO(BOFF, 1, IF_VIEWS_ODD)   \
  IF_ROW_LO(BOFF, 2, IF_VIEWS_EVEN) IF_ROW_LO(BOFF, 3, IF_VIEWS_ODD)   \
  IF_ROW_LO(BOFF, 4, IF_VIEWS_EVEN) IF_ROW_LO(BOFF, 5, IF_VIEWS_ODD)   \
  IF_ROW_LO(BOFF, 6, IF_VIEWS_EVEN) IF_ROW_LO(BOFF, 7, IF_VIEWS_ODD)   \
  IF_ROW_8(BOFF) IF_ROW_9(BOFF)

#define IF_OPERANDS                                                    \
  : [s0] "+r"(s0), [s1] "+r"(s1), [pa10] "+v"(pa10), [pm10] "+v"(pm10), \
    [pa11] "+v"(pa11), [pm11] "+v"(pm11), [p20] "+v"(p20),             \
    [p21] "+v"(p21)                                                    \
  : [w] "r"(&w), [m0] "r"(m[0]), [m1] "r"(m[1])                        \
  : "rax", "rbx", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12",       \
    "xmm8", "xmm9", "xmm16", "xmm17", "xmm18", "xmm19", "xmm20",        \
    "xmm21", "xmm22", "xmm23", "xmm24", "xmm25", "xmm26", "xmm27",      \
    "xmm28", "xmm29", "xmm30", "xmm31", "cc", "memory"

// w.a[h] <- w.a[h] * b[h] * 2^-520 mod m[h], below 2 m[h], where b is
// w.a itself when squaring and w.b otherwise.
template <bool kSquare>
__attribute__((noinline)) void amm_x2(Work& w,
                                      const IfmaModulus* const m[2]) {
  __m512i pa10 = _mm512_setzero_si512(), pm10 = pa10, pa11 = pa10,
          pm11 = pa10;
  __m128i p20 = _mm_setzero_si128(), p21 = p20;
  u64 s0 = 0, s1 = 0;
  if constexpr (kSquare) {
    __asm__(IF_ROWS(IF_A) IF_OPERANDS);
  } else {
    __asm__(IF_ROWS(IF_B) IF_OPERANDS);
  }
  amm_finish(pa10, pm10, p20, s0, limbs(w.a[0]));
  amm_finish(pa11, pm11, p21, s1, limbs(w.a[1]));
}

// Limbs 0..15 (two aligned vectors) from src to dst.
inline void copy16(u64* dst, const u64* src) {
  _mm512_store_si512(dst, _mm512_load_si512(src));
  _mm512_store_si512(dst + 8, _mm512_load_si512(src + 8));
}

// dst (limbs 0..15) <- table[idx], reading every entry under a mask.
void select_entry(u64* dst, const Ifma52* table, u64 idx) {
  const __m512i want = _mm512_set1_epi64(static_cast<long long>(idx));
  __m512i lo = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
  for (std::size_t e = 0; e < kTableSize; ++e) {
    const __mmask8 k = _mm512_cmpeq_epu64_mask(
        want, _mm512_set1_epi64(static_cast<long long>(e)));
    lo = _mm512_mask_mov_epi64(lo, k, _mm512_load_si512(limbs(table[e])));
    hi = _mm512_mask_mov_epi64(hi, k, _mm512_load_si512(limbs(table[e]) + 8));
  }
  _mm512_store_si512(dst, lo);
  _mm512_store_si512(dst + 8, hi);
}

}  // namespace

void ifma_modulus(IfmaModulus& out, const std::uint64_t* m,
                  std::uint64_t m_prime, const std::uint64_t* r2) {
  out = IfmaModulus{};
  u64 limb[kIfmaLimbs];
  to_radix52(limb, m);
  for (int k = -kView0; k < static_cast<int>(kIfmaViews) - kView0; ++k) {
    for (int lane = 0; lane < 8; ++lane) {
      const int j = k + lane;
      out.view[kView0 + k][lane] =
          j >= 0 && j < static_cast<int>(kIfmaLimbs) ? limb[j] : 0;
    }
  }
  to_radix52(out.r2, r2);
  out.k0 = m_prime & kMask52;
}

void amm52_x2(Ifma52* const r[2], const Ifma52* const a[2],
              const Ifma52* const b[2], const IfmaModulus* const m[2]) {
  Work w = {};
  for (int x = 0; x < 2; ++x) {
    w.a[x] = *a[x];
    copy16(w.b[x], limbs(*b[x]));
  }
  amm_x2<false>(w, m);
  for (int x = 0; x < 2; ++x) *r[x] = w.a[x];
}

void mod_exp_x2_ifma(const IfmaExpHalf& h0, const IfmaExpHalf& h1,
                     std::size_t windows) {
  const IfmaExpHalf* const h[2] = {&h0, &h1};
  const IfmaModulus* const m[2] = {h0.mod, h1.mod};
  Work w = {};
  Ifma52 table[2][kTableSize];
  for (int x = 0; x < 2; ++x) {
    std::copy(m[x]->r2, m[x]->r2 + kIfmaLimbs, w.b[x]);
  }

  // base^0 .. base^15 in Montgomery form (below 2m): 1 and base times
  // R^2, then squarings and multiplies by entry 1.
  for (int x = 0; x < 2; ++x) limbs(w.a[x])[0] = 1;
  amm_x2<false>(w, m);
  for (int x = 0; x < 2; ++x) {
    table[x][0] = w.a[x];
    to_radix52(limbs(w.a[x]), h[x]->base);
  }
  amm_x2<false>(w, m);
  for (int x = 0; x < 2; ++x) {
    table[x][1] = w.a[x];
    copy16(w.b[x], limbs(w.a[x]));
  }
  for (std::size_t i = 2; i < kTableSize; ++i) {
    for (int x = 0; x < 2; ++x) {
      w.a[x] = table[x][i % 2 == 0 ? i / 2 : i - 1];
    }
    if (i % 2 == 0) {
      amm_x2<true>(w, m);
    } else {
      amm_x2<false>(w, m);
    }
    for (int x = 0; x < 2; ++x) table[x][i] = w.a[x];
  }

  auto window = [&h](int x, std::size_t i) -> u64 {
    return (h[x]->exp[i / 8] >> (4 * (i % 8))) & (kTableSize - 1);
  };
  for (int x = 0; x < 2; ++x) {
    select_entry(limbs(w.a[x]), table[x], window(x, windows - 1));
  }
  for (std::size_t i = windows - 1; i-- > 0;) {
    for (int s = 0; s < 4; ++s) amm_x2<true>(w, m);
    for (int x = 0; x < 2; ++x) {
      select_entry(w.b[x], table[x], window(x, i));
    }
    amm_x2<false>(w, m);
  }
  // Out of Montgomery form: acc * 1 * R^-1, at most m; then subtract m
  // once under a mask.
  for (int x = 0; x < 2; ++x) {
    std::fill(w.b[x], w.b[x] + 16, 0);
    w.b[x][0] = 1;
  }
  amm_x2<false>(w, m);
  for (int x = 0; x < 2; ++x) {
    const u64* acc = limbs(w.a[x]);
    u64 d[kIfmaLimbs];
    u64 borrow = 0;
    for (std::size_t j = 0; j < kIfmaLimbs; ++j) {
      const u64 t = acc[j] - m[x]->view[kView0 + j][0] - borrow;
      borrow = t >> 63;
      d[j] = t & kMask52;
    }
    const u64 keep = 0 - borrow;  // all ones when acc < m
    for (std::size_t j = 0; j < kIfmaLimbs; ++j) {
      d[j] = (acc[j] & keep) | (d[j] & ~keep);
    }
    from_radix52(h[x]->out, d);
  }
}

#else  // !OMADRM_MONT_IFMA — portable stubs, never reached at runtime.

bool ifma_supported() { return false; }

void ifma_modulus(IfmaModulus&, const std::uint64_t*, std::uint64_t,
                  const std::uint64_t*) {}
void amm52_x2(Ifma52* const[2], const Ifma52* const[2],
              const Ifma52* const[2], const IfmaModulus* const[2]) {}
void mod_exp_x2_ifma(const IfmaExpHalf&, const IfmaExpHalf&, std::size_t) {}

#endif

}  // namespace omadrm::bigint::accel
