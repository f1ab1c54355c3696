// AES Key Wrap (RFC 3394 / NIST SP 800-38F KW) — OMA DRM 2's key-wrapping
// primitive ("AES-WRAP" in the standard's algorithm list). Used to wrap
// K_MAC‖K_REK under KEK (Figure 3 of the paper) and, after installation,
// under the device key K_DEV producing C2dev.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace omadrm::crypto {

/// Wraps `key_data` (length a multiple of 8, at least 16 bytes) under
/// `kek`. Output is 8 bytes longer than the input.
Bytes aes_wrap(ByteView kek, ByteView key_data);

/// Unwraps; returns std::nullopt when the integrity register does not
/// match (wrong KEK or corrupted wrap) — an expected runtime outcome,
/// not an exception.
std::optional<Bytes> aes_unwrap(ByteView kek, ByteView wrapped);

/// The same on a prebuilt KEK schedule. With has_accel() the 6·n steps
/// run in one AES-NI routine (crypto/aes_accel.h); an Aes::portable
/// schedule takes the T-table path.
Bytes aes_wrap(const Aes& kek, ByteView key_data);
std::optional<Bytes> aes_unwrap(const Aes& kek, ByteView wrapped);

}  // namespace omadrm::crypto
