// Lowercase hexadecimal encoding / decoding.
#pragma once

#include <string>
#include <string_view>

#include "common/bytes.h"

namespace omadrm {

/// Encodes bytes as lowercase hex ("deadbeef").
std::string to_hex(ByteView data);

/// Decodes a hex string (case-insensitive, even length, no separators).
/// Throws omadrm::Error(kFormat) on invalid input.
Bytes from_hex(std::string_view hex);

/// An unsigned number, given as a big-endian magnitude, in lowercase hex
/// without leading zeros ("0" for zero).
std::string to_hex_number(ByteView magnitude);

/// Parses an unsigned number written as one or more hex digits (either
/// case, any length, leading zeros allowed) into its minimal big-endian
/// magnitude. Throws omadrm::Error(kFormat) on empty or invalid input.
Bytes from_hex_number(std::string_view hex);

}  // namespace omadrm
