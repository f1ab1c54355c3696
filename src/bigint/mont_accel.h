// Hardware-accelerated Montgomery multiplication (x86 BMI2 + ADX),
// runtime-detected.
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
// workload to see. MontgomeryCtx picks the kernels once, at construction, from its
// word count and mont_supported(); every other size, hosts without ADX,
// and non-x86 builds (where this unit compiles to stubs) use
// bigint::mont_mul_portable with identical results.
//
// Both kernels compute r = a * b * R^-1 mod m with R = 2^512, fully
// reduced, for an odd modulus m and operands a, b < m. `m_prime` is
// -m^-1 mod 2^64. `r` may alias `a` or `b`. The trailing word count is
// ignored (always 8); it gives the kernels the signature of
// mont_mul_portable, so the context stores either one. The final
// subtraction is a masked select, so no branch depends on operand values.
//
// This file's implementation is compiled with -mbmi2 -madx (see
// CMakeLists); nothing here may be called unless mont_supported()
// returned true.
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

}  // namespace omadrm::bigint::accel
