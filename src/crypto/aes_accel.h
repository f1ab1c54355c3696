// Hardware AES (x86 AES-NI and VAES), runtime-detected.
//
// In the paper's SW/HW terminal every AES operation runs on the AES
// macro: bulk content decryption, and the Figure 3 key chain that
// unwraps K_MAC‖K_REK under K_DEV and K_CEK under K_REK on every access
// (Table 1's hardware column). On hosts with AES-NI we model exactly
// that: crypto::Aes builds only the AES-NI round keys (the analogue of
// loading a key register) and every operation on it — single blocks,
// RFC 3394 wrap and unwrap, CBC runs — dispatches here. Hosts without
// the extension, or non-x86 builds where these translation units
// compile to stubs, take the portable T-table path with identical
// results.
//
// Two units implement this header: aes_accel.cpp (compiled with -maes)
// and aes_vaes_accel.cpp (-maes -mvaes -mavx512f), see CMakeLists.
// Nothing here may be called unless cpu_supported() returned true, and
// cbc_decrypt_blocks_vaes additionally needs vaes_supported().
#pragma once

#include <cstddef>
#include <cstdint>

namespace omadrm::crypto::accel {

/// True when the host CPU exposes AES-NI and the instructions were
/// compiled in. Cached after the first query.
bool cpu_supported();

/// True when the host also exposes VAES and AVX-512F and the 512-bit
/// kernel was compiled in. Cached after the first query.
bool vaes_supported();

/// AES-128 key expansion with AESKEYGENASSIST: the 11 encryption round
/// keys, and the 11 decryption round keys of the equivalent inverse
/// cipher (AESIMC of the middle keys, outer keys swapped). Round keys
/// are 16 bytes each, in FIPS-197 byte order.
void expand_key_128(const std::uint8_t key[16], std::uint8_t* enc_keys,
                    std::uint8_t* dec_keys);

/// Derives the decryption round keys from the (rounds + 1) encryption
/// round keys, as expand_key_128 does; for AES-192 and AES-256, whose
/// encryption keys come from the portable word expansion.
void build_decrypt_schedule(const std::uint8_t* enc_keys, int rounds,
                            std::uint8_t* dec_keys);

/// Single-block ECB operations; `in` and `out` may alias.
void encrypt_block(const std::uint8_t* enc_keys, int rounds,
                   const std::uint8_t in[16], std::uint8_t out[16]);
void decrypt_block(const std::uint8_t* dec_keys, int rounds,
                   const std::uint8_t in[16], std::uint8_t out[16]);

/// The 6·n steps of RFC 3394 wrap (or unwrap) in one routine, with the
/// round keys held in registers. `a` is the 8-byte integrity register
/// (the IV before wrapping, the first wrapped block before unwrapping)
/// and `r` the n 8-byte blocks, both updated in place.
void key_wrap(const std::uint8_t* enc_keys, int rounds, std::uint8_t a[8],
              std::uint8_t* r, std::size_t n);
void key_unwrap(const std::uint8_t* dec_keys, int rounds, std::uint8_t a[8],
                std::uint8_t* r, std::size_t n);

/// CBC over `n_blocks` whole 16-byte blocks. `chain` carries the running
/// chain value (IV before the first call, last ciphertext block after).
/// `in` and `out` must not alias. Encryption is inherently serial in CBC;
/// cbc_decrypt_blocks pipelines four independent blocks per iteration.
void cbc_encrypt_blocks(const std::uint8_t* enc_keys, int rounds,
                        std::uint8_t chain[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n_blocks);
void cbc_decrypt_blocks(const std::uint8_t* dec_keys, int rounds,
                        std::uint8_t chain[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n_blocks);

/// CBC decryption on VAES: four zmm vectors, 16 blocks, per iteration;
/// the remaining n_blocks % 16 blocks go through cbc_decrypt_blocks.
/// Same contract as cbc_decrypt_blocks.
void cbc_decrypt_blocks_vaes(const std::uint8_t* dec_keys, int rounds,
                             std::uint8_t chain[16], const std::uint8_t* in,
                             std::uint8_t* out, std::size_t n_blocks);

}  // namespace omadrm::crypto::accel
