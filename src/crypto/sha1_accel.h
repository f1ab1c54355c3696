// Hardware-accelerated SHA-1 compression (x86 SHA extensions),
// runtime-detected.
//
// Once AES-NI makes bulk decryption nearly free, the content path's
// residual cost is the SHA-1 binding hash over the whole DCF — the other
// half of the paper's Table 1 hardware column, where a dedicated hash
// macro sits beside the AES engine. On hosts with the SHA extensions we
// model that macro: Sha1::compress dispatches whole-block runs here.
// Hosts without them — or non-x86 builds, where this translation unit
// compiles to stubs — fall back to crypto::sha1_compress_portable with
// identical results.
//
// This file's implementation is compiled with -msha -mssse3 -msse4.1
// (see CMakeLists); nothing here may be called unless sha1_supported()
// returned true.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omadrm::crypto::accel {

/// True when the host CPU exposes SHA, SSSE3 and SSE4.1 and the
/// instructions were compiled in. Cached after the first query.
bool sha1_supported();

/// Runs the SHA-1 compression function over `n_blocks` consecutive
/// 64-byte blocks at `p` (any alignment), updating the five-word chaining
/// `state` in place — the same contract as sha1_compress_portable.
void sha1_compress_blocks(std::uint32_t state[5], const std::uint8_t* p,
                          std::size_t n_blocks);

}  // namespace omadrm::crypto::accel
