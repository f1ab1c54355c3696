// Hardware-accelerated Montgomery multiplication, runtime-detected: x86
// BMI2 + ADX kernels for one 512-bit modulus, and an AVX-512 IFMA kernel
// that runs both CRT halves of a private-key op at once.
//
// Once AES-NI and SHA-NI take the symmetric work, the paper's Table 1
// leaves RSA as the dominant cost, and it names a dedicated Montgomery
// multiplier macro (McIvor et al.) as its hardware counterpart. On hosts
// with `mulx` (BMI2) and the two independent carry chains of `adcx`/`adox`
// (ADX) we model that macro: fixed-size multiply and square kernels for
// 8 words, the 512-bit CRT halves of every RSA-1024 private-key op (and
// Miller-Rabin at key generation). 1024-bit public-key operations
// (e = 65537, about 17 multiplies) stay on the portable path: a 16-word
// kernel would save under 2 us per op, too little for any end-to-end
// workload to see.
//
// Dispatch: MontgomeryCtx picks the ADX kernels once, at construction,
// from its word count and mont_supported(); every other size, hosts
// without ADX, and non-x86 builds (where the units compile to stubs) use
// bigint::mont_mul_portable with identical results. Private-key ops go
// through MontgomeryCtx::mod_exp_pair, which on IFMA hosts runs both
// halves through mod_exp_x2_ifma (below) instead of two mod_exp calls on
// these kernels.
//
// Both ADX kernels compute r = a * b * R^-1 mod m with R = 2^512, fully
// reduced, for an odd modulus m and operands a, b < m. `m_prime` is
// -m^-1 mod 2^64. `r` may alias `a` or `b`. The trailing word count is
// ignored (always 8); it gives the kernels the signature of
// mont_mul_portable, so the context stores either one. The final
// subtraction is a masked select, so no branch depends on operand values.
//
// The ADX kernels are compiled with -mbmi2 -madx (see CMakeLists);
// nothing here may be called unless mont_supported() returned true.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omadrm::bigint::accel {

/// True when the host CPU exposes BMI2 and ADX and the kernels were
/// compiled in. Cached after the first query.
bool mont_supported();

void mont_mul8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* m,
               std::uint64_t m_prime, std::size_t);
void mont_sqr8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* m, std::uint64_t m_prime,
               std::size_t);

// -- AVX-512 IFMA: both CRT halves in one exponentiation ------------------
//
// The dual Montgomery macro (mont_ifma_accel.cpp, compiled with
// -mavx512f -mavx512vl -mavx512ifma -mbmi2). It raises the two 512-bit
// CRT halves of an RSA-1024 private-key op to their exponents in
// lockstep, one instruction stream carrying both, so each half hides the
// other's latency. Operands are ten 52-bit limbs (radix 2^52,
// R = 2^520); the products are almost-Montgomery (inputs and outputs
// below 2m, never fully reduced), and one masked subtraction at the end
// makes the result canonical. MontgomeryCtx::mod_exp_pair dispatches
// here when both moduli are 8 words and ifma_supported(); otherwise it
// makes two mod_exp calls on the kernels above. Nothing below may be
// called unless ifma_supported() returned true.

/// Limbs of a 512-bit operand in radix 2^52.
inline constexpr std::size_t kIfmaLimbs = 10;

/// True when the host exposes AVX-512F, AVX-512VL, AVX-512 IFMA and BMI2
/// and the x2 kernel was compiled in. Cached after the first query.
bool ifma_supported();

/// A radix-2^52 multiplicand, zero padded so the kernel reads shifted
/// views of it as plain unaligned loads: limb j at w[8 + j], every other
/// word 0.
struct alignas(64) Ifma52 {
  std::uint64_t w[32];
};

/// Shifted views of an 8-word odd modulus m in radix 2^52: view[6 + k]
/// holds limbs k .. k + 7 (zero outside 0..9), k = -6..10. Every row of
/// the kernel multiplies by two of them, and keeping them aligned spares
/// the kernel cache-line-split loads.
inline constexpr std::size_t kIfmaViews = 17;

/// An 8-word odd modulus in the x2 kernel's form, built once per context:
/// its views, k0 = -m^-1 mod 2^52 and R^2 mod m in radix 2^52.
struct alignas(64) IfmaModulus {
  std::uint64_t view[kIfmaViews][8];
  std::uint64_t r2[kIfmaLimbs];
  std::uint64_t k0;
};

/// Fills `out` from the 8-word modulus `m`, `m_prime` = -m^-1 mod 2^64
/// and `r2` = 2^1040 mod m (8 words).
void ifma_modulus(IfmaModulus& out, const std::uint64_t* m,
                  std::uint64_t m_prime, const std::uint64_t* r2);

/// One half of a dual exponentiation: out = base^exp mod m, with base
/// (8 words) reduced mod m and exp given as 16 little-endian 32-bit limbs
/// (up to 512 bits; the windows above its length read as 0).
struct IfmaExpHalf {
  const IfmaModulus* mod;
  const std::uint64_t* base;
  const std::uint32_t* exp;
  std::uint64_t* out;
};

/// Both halves with 4-bit fixed windows and a masked table scan. `windows`
/// (1..128) is the window count of the longer exponent; the shorter
/// one's leading windows select entry 0, so the product count depends on
/// `windows` alone and no branch or address depends on an operand.
void mod_exp_x2_ifma(const IfmaExpHalf& h0, const IfmaExpHalf& h1,
                     std::size_t windows);

/// One dual almost-Montgomery product, r[h] = a[h] b[h] 2^-520 mod m[h]
/// (below 2 m[h] for inputs below 2 m[h]); `r` may alias `a` or `b`.
/// The exponentiation's inner step, exported for benchmarks and tests.
void amm52_x2(Ifma52* const r[2], const Ifma52* const a[2],
              const Ifma52* const b[2], const IfmaModulus* const m[2]);

}  // namespace omadrm::bigint::accel
