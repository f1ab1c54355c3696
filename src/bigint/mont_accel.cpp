#include "bigint/mont_accel.h"

// Compiled with -mbmi2 -madx on x86-64 targets whose compiler accepts the
// flags (see CMakeLists). Everywhere else the guard below turns the whole
// unit into stubs, and mont_supported() reporting false keeps them
// unreachable.
#if defined(__BMI2__) && defined(__ADX__) && defined(__x86_64__)
#define OMADRM_MONT_ADX 1
#endif

namespace omadrm::bigint::accel {

#ifdef OMADRM_MONT_ADX

bool mont_supported() {
  static const bool ok = __builtin_cpu_supports("bmi2") != 0 &&
                         __builtin_cpu_supports("adx") != 0;
  return ok;
}

// The kernels are straight-line GCC extended asm assembled from the
// macros below. Every row multiplies one word (in rdx) by a vector with
// `mulx`, which leaves the flags alone, and adds the low halves on the
// CF chain (`adcx`) and the high halves on the OF chain (`adox`), so the
// two carry chains interleave without a single flag save. Offsets are
// assembler expressions such as 8*3(%rsi).
//
// Products are separated from the reduction (SOS): the 16-word product (or
// square) goes to a stack buffer, then one Montgomery reduction turns it
// into the result. Only the low 8 product words are reduced; the high
// half is added at the end, followed by one masked conditional
// subtraction of m (cmov, no branch).
//
// The whole running window lives in r8-r15. Rows rotate which register
// holds which word instead of moving data, so a row is 8 mulx and 16
// adds. The product, square and reduction each fit in the 14 general
// registers left once rsp and rbp are excluded.

#define MA_NL "\n\t"

#define MA_REP8(M) M(0) M(1) M(2) M(3) M(4) M(5) M(6) M(7)

// Column j of a row: hi:lo = rdx * s[j]; lo joins the CF chain into
// `cur`, hi the OF chain into `next`.
#define MA_STEP8(j, s, cur, next)                   \
  "mulxq 8*" #j "(%[" s "]), %%rax, %%rbx" MA_NL    \
  "adcxq %%rax, %%" #cur MA_NL                      \
  "adoxq %%rbx, %%" #next MA_NL

// Column j of the first row, where nothing is pending on the OF chain:
// hi lands directly in the fresh word `next`.
#define MA_FIRST8(j, s, cur, next)                  \
  "mulxq 8*" #j "(%[" s "]), %%rax, %%" #next MA_NL \
  "adcxq %%rax, %%" #cur MA_NL

// Last column: hi becomes the fresh top word `top`, which then absorbs
// the carries still pending on both chains. It cannot overflow: every
// partial sum fits the row's words.
#define MA_LAST8(s, cur, top)                       \
  "mulxq 56(%[" s "]), %%rax, %%" #top MA_NL        \
  "adcxq %%rax, %%" #cur MA_NL                      \
  "movl $0, %%eax" MA_NL                            \
  "adcxq %%rax, %%" #top MA_NL                      \
  "adoxq %%rax, %%" #top MA_NL

// A full row over the window T0..T7 (T0 = lowest word). Column 0 may
// finish T0, whose register the last column reuses as the new top word.
#define MA_HEAD8(s, T0, T1) \
  "xorl %%eax, %%eax" MA_NL MA_STEP8(0, s, T0, T1)
#define MA_TAIL8(s, T0, T1, T2, T3, T4, T5, T6, T7)                     \
  MA_STEP8(1, s, T1, T2) MA_STEP8(2, s, T2, T3) MA_STEP8(3, s, T3, T4) \
  MA_STEP8(4, s, T4, T5) MA_STEP8(5, s, T5, T6) MA_STEP8(6, s, T6, T7) \
  MA_LAST8(s, T7, T0)

// Product row i: window += a[i] * b; the finished word T0 is stored as
// product word i before its register is reused.
#define MA_MUL8_ROW(i, T0, T1, T2, T3, T4, T5, T6, T7)     \
  "movq 8*" #i "(%[a]), %%rdx" MA_NL MA_HEAD8("b", T0, T1) \
  "movq %%" #T0 ", 8*" #i "(%[p])" MA_NL                   \
  MA_TAIL8("b", T0, T1, T2, T3, T4, T5, T6, T7)

// Reduction row: u = T0 * m' (k sits at p[16]); window += u * m, which
// clears T0 and shifts the window up one word.
#define MA_REDC8_ROW(T0, T1, T2, T3, T4, T5, T6, T7)                \
  "movq %%" #T0 ", %%rdx" MA_NL "imulq 128(%[p]), %%rdx" MA_NL      \
  MA_HEAD8("m", T0, T1) MA_TAIL8("m", T0, T1, T2, T3, T4, T5, T6, T7)

#define MA_CLOBBER8 \
  "rax", "rbx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"

// Diagonal pass of the square: p holds the cross products
// sum_{i<j} s_i s_j; p = 2 p + sum_i s_i^2, doubling on the CF chain and
// adding the diagonal on the OF chain.
#define MA_DIAG(i)                                    \
  "movq 8*" #i "(%[s]), %%rdx" MA_NL                  \
  "mulxq %%rdx, %%rax, %%rbx" MA_NL                   \
  "movq 16*" #i "(%[p]), %%r8" MA_NL                  \
  "movq 16*" #i "+8(%[p]), %%r9" MA_NL                \
  "adcxq %%r8, %%r8" MA_NL                            \
  "adcxq %%r9, %%r9" MA_NL                            \
  "adoxq %%rax, %%r8" MA_NL                           \
  "adoxq %%rbx, %%r9" MA_NL                           \
  "movq %%r8, 16*" #i "(%[p])" MA_NL                  \
  "movq %%r9, 16*" #i "+8(%[p])" MA_NL

namespace {

// Montgomery reduction of the 16-word product p[0..15] (below m * 2^512)
// into r. p[16] carries m'.
void redc8(std::uint64_t* r, const std::uint64_t* p,
                  const std::uint64_t* m) {
  __asm__ volatile(
      "movq 0(%[p]), %%r8" MA_NL "movq 8(%[p]), %%r9" MA_NL
      "movq 16(%[p]), %%r10" MA_NL "movq 24(%[p]), %%r11" MA_NL
      "movq 32(%[p]), %%r12" MA_NL "movq 40(%[p]), %%r13" MA_NL
      "movq 48(%[p]), %%r14" MA_NL "movq 56(%[p]), %%r15" MA_NL
      MA_REDC8_ROW(r8, r9, r10, r11, r12, r13, r14, r15)
      MA_REDC8_ROW(r9, r10, r11, r12, r13, r14, r15, r8)
      MA_REDC8_ROW(r10, r11, r12, r13, r14, r15, r8, r9)
      MA_REDC8_ROW(r11, r12, r13, r14, r15, r8, r9, r10)
      MA_REDC8_ROW(r12, r13, r14, r15, r8, r9, r10, r11)
      MA_REDC8_ROW(r13, r14, r15, r8, r9, r10, r11, r12)
      MA_REDC8_ROW(r14, r15, r8, r9, r10, r11, r12, r13)
      MA_REDC8_ROW(r15, r8, r9, r10, r11, r12, r13, r14)
      // Window (<= m) + high product half (< m), carry word in rax.
      "xorl %%eax, %%eax" MA_NL
      "addq 64(%[p]), %%r8" MA_NL "adcq 72(%[p]), %%r9" MA_NL
      "adcq 80(%[p]), %%r10" MA_NL "adcq 88(%[p]), %%r11" MA_NL
      "adcq 96(%[p]), %%r12" MA_NL "adcq 104(%[p]), %%r13" MA_NL
      "adcq 112(%[p]), %%r14" MA_NL "adcq 120(%[p]), %%r15" MA_NL
      "adcq $0, %%rax" MA_NL
      "movq %%r8, 0(%[r])" MA_NL "movq %%r9, 8(%[r])" MA_NL
      "movq %%r10, 16(%[r])" MA_NL "movq %%r11, 24(%[r])" MA_NL
      "movq %%r12, 32(%[r])" MA_NL "movq %%r13, 40(%[r])" MA_NL
      "movq %%r14, 48(%[r])" MA_NL "movq %%r15, 56(%[r])" MA_NL
      // Subtract m; a borrow out of the carry word keeps the sum.
      "subq 0(%[m]), %%r8" MA_NL "sbbq 8(%[m]), %%r9" MA_NL
      "sbbq 16(%[m]), %%r10" MA_NL "sbbq 24(%[m]), %%r11" MA_NL
      "sbbq 32(%[m]), %%r12" MA_NL "sbbq 40(%[m]), %%r13" MA_NL
      "sbbq 48(%[m]), %%r14" MA_NL "sbbq 56(%[m]), %%r15" MA_NL
      "sbbq $0, %%rax" MA_NL
      "cmovcq 0(%[r]), %%r8" MA_NL "cmovcq 8(%[r]), %%r9" MA_NL
      "cmovcq 16(%[r]), %%r10" MA_NL "cmovcq 24(%[r]), %%r11" MA_NL
      "cmovcq 32(%[r]), %%r12" MA_NL "cmovcq 40(%[r]), %%r13" MA_NL
      "cmovcq 48(%[r]), %%r14" MA_NL "cmovcq 56(%[r]), %%r15" MA_NL
      "movq %%r8, 0(%[r])" MA_NL "movq %%r9, 8(%[r])" MA_NL
      "movq %%r10, 16(%[r])" MA_NL "movq %%r11, 24(%[r])" MA_NL
      "movq %%r12, 32(%[r])" MA_NL "movq %%r13, 40(%[r])" MA_NL
      "movq %%r14, 48(%[r])" MA_NL "movq %%r15, 56(%[r])" MA_NL
      :
      : [r] "r"(r), [p] "r"(p), [m] "r"(m)
      : MA_CLOBBER8, "cc", "memory");
}

}  // namespace

void mont_mul8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* m,
               std::uint64_t m_prime, std::size_t) {
  std::uint64_t p[17];
  p[16] = m_prime;
  // Word k of the window lives in r(8 + (k - 1) % 8).
  __asm__ volatile(
      "movq 0(%[a]), %%rdx" MA_NL
      "mulxq 0(%[b]), %%rax, %%r8" MA_NL
      "movq %%rax, 0(%[p])" MA_NL
      "xorl %%eax, %%eax" MA_NL
      MA_FIRST8(1, "b", r8, r9) MA_FIRST8(2, "b", r9, r10)
      MA_FIRST8(3, "b", r10, r11) MA_FIRST8(4, "b", r11, r12)
      MA_FIRST8(5, "b", r12, r13) MA_FIRST8(6, "b", r13, r14)
      MA_FIRST8(7, "b", r14, r15)
      "movl $0, %%eax" MA_NL "adcxq %%rax, %%r15" MA_NL
      MA_MUL8_ROW(1, r8, r9, r10, r11, r12, r13, r14, r15)
      MA_MUL8_ROW(2, r9, r10, r11, r12, r13, r14, r15, r8)
      MA_MUL8_ROW(3, r10, r11, r12, r13, r14, r15, r8, r9)
      MA_MUL8_ROW(4, r11, r12, r13, r14, r15, r8, r9, r10)
      MA_MUL8_ROW(5, r12, r13, r14, r15, r8, r9, r10, r11)
      MA_MUL8_ROW(6, r13, r14, r15, r8, r9, r10, r11, r12)
      MA_MUL8_ROW(7, r14, r15, r8, r9, r10, r11, r12, r13)
      "movq %%r15, 64(%[p])" MA_NL "movq %%r8, 72(%[p])" MA_NL
      "movq %%r9, 80(%[p])" MA_NL "movq %%r10, 88(%[p])" MA_NL
      "movq %%r11, 96(%[p])" MA_NL "movq %%r12, 104(%[p])" MA_NL
      "movq %%r13, 112(%[p])" MA_NL "movq %%r14, 120(%[p])" MA_NL
      :
      : [p] "r"(p), [a] "r"(a), [b] "r"(b)
      : MA_CLOBBER8, "cc", "memory");
  redc8(r, p, m);
}

void mont_sqr8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* m, std::uint64_t m_prime, std::size_t) {
  std::uint64_t p[17];
  p[16] = m_prime;
  // Cross products s_i * s_j (i < j): row i covers words 2i+1 .. i+8 and
  // finishes words 2i-1 and 2i of the previous row. Word k lives in
  // r(8 + (k - 1) % 8).
  __asm__ volatile(
      "movq 0(%[s]), %%rdx" MA_NL
      "xorl %%eax, %%eax" MA_NL
      "mulxq 8(%[s]), %%r8, %%r9" MA_NL
      MA_FIRST8(2, "s", r9, r10) MA_FIRST8(3, "s", r10, r11)
      MA_FIRST8(4, "s", r11, r12) MA_FIRST8(5, "s", r12, r13)
      MA_FIRST8(6, "s", r13, r14) MA_FIRST8(7, "s", r14, r15)
      "movl $0, %%eax" MA_NL "adcxq %%rax, %%r15" MA_NL
      // Row 1: words 3..9.
      "movq %%r8, 8(%[p])" MA_NL "movq %%r9, 16(%[p])" MA_NL
      "movq 8(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_STEP8(2, "s", r10, r11) MA_STEP8(3, "s", r11, r12)
      MA_STEP8(4, "s", r12, r13) MA_STEP8(5, "s", r13, r14)
      MA_STEP8(6, "s", r14, r15) MA_LAST8("s", r15, r8)
      // Row 2: words 5..10.
      "movq %%r10, 24(%[p])" MA_NL "movq %%r11, 32(%[p])" MA_NL
      "movq 16(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_STEP8(3, "s", r12, r13) MA_STEP8(4, "s", r13, r14)
      MA_STEP8(5, "s", r14, r15) MA_STEP8(6, "s", r15, r8)
      MA_LAST8("s", r8, r9)
      // Row 3: words 7..11.
      "movq %%r12, 40(%[p])" MA_NL "movq %%r13, 48(%[p])" MA_NL
      "movq 24(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_STEP8(4, "s", r14, r15) MA_STEP8(5, "s", r15, r8)
      MA_STEP8(6, "s", r8, r9) MA_LAST8("s", r9, r10)
      // Row 4: words 9..12.
      "movq %%r14, 56(%[p])" MA_NL "movq %%r15, 64(%[p])" MA_NL
      "movq 32(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_STEP8(5, "s", r8, r9) MA_STEP8(6, "s", r9, r10)
      MA_LAST8("s", r10, r11)
      // Row 5: words 11..13.
      "movq %%r8, 72(%[p])" MA_NL "movq %%r9, 80(%[p])" MA_NL
      "movq 40(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_STEP8(6, "s", r10, r11) MA_LAST8("s", r11, r12)
      // Row 6: words 13..14.
      "movq %%r10, 88(%[p])" MA_NL "movq %%r11, 96(%[p])" MA_NL
      "movq 48(%[s]), %%rdx" MA_NL "xorl %%eax, %%eax" MA_NL
      MA_LAST8("s", r12, r13)
      "movq %%r12, 104(%[p])" MA_NL "movq %%r13, 112(%[p])" MA_NL
      "movq $0, 0(%[p])" MA_NL "movq $0, 120(%[p])" MA_NL
      "xorl %%eax, %%eax" MA_NL
      MA_REP8(MA_DIAG)
      :
      : [p] "r"(p), [s] "r"(a)
      : MA_CLOBBER8, "cc", "memory");
  redc8(r, p, m);
}

#else  // !OMADRM_MONT_ADX — portable stubs, never reached at runtime.

bool mont_supported() { return false; }

void mont_mul8(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
               const std::uint64_t*, std::uint64_t, std::size_t) {}
void mont_sqr8(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
               std::uint64_t, std::size_t) {}

#endif

}  // namespace omadrm::bigint::accel
