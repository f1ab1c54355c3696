// Byte-buffer primitives shared by every layer of the stack.
//
// The whole library works on `Bytes` (a std::vector<uint8_t>) for owned
// buffers and `ByteView` (std::span<const uint8_t>) for borrowed ones.
// Helper functions here are deliberately small and allocation-explicit so
// higher layers can reason about copies.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace omadrm {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Concatenates any number of byte views into a freshly allocated buffer.
Bytes concat(std::initializer_list<ByteView> parts);

/// Returns bytes [offset, offset+len) of `v`. Throws omadrm::Error on
/// out-of-range access (never silently truncates).
Bytes slice(ByteView v, std::size_t offset, std::size_t len);

/// XORs `b` into `a` element-wise; the views must have equal length.
Bytes xor_bytes(ByteView a, ByteView b);

/// Interprets a string's characters as bytes (no encoding conversion).
Bytes to_bytes(std::string_view s);

/// Interprets a byte buffer as a std::string (no validation).
std::string to_string(ByteView v);

/// Constant-time equality: runtime depends only on the lengths, not the
/// contents. Use for MAC / hash / key comparisons.
bool ct_equal(ByteView a, ByteView b);

/// `v` without its leading zero bytes: the minimal big-endian magnitude
/// of the unsigned number `v` holds (empty for zero). ASN.1 INTEGERs,
/// certificate serials and RSA key components travel in this form.
ByteView strip_leading_zeros(ByteView v);

/// Big-endian store of a 32/64-bit integer into 4/8 bytes.
void store_be32(std::uint32_t v, std::uint8_t* out);
void store_be64(std::uint64_t v, std::uint8_t* out);

/// Big-endian load of 4/8 bytes.
std::uint32_t load_be32(const std::uint8_t* p);
std::uint64_t load_be64(const std::uint8_t* p);

/// Appends the big-endian encoding of a 32/64-bit integer to `out`.
void append_be32(Bytes& out, std::uint32_t v);
void append_be64(Bytes& out, std::uint64_t v);

/// Strict base-10 uint64 parse: nullopt on empty input, any non-digit,
/// or overflow past 2^64-1 (an attacker-sized number must be rejected,
/// never silently wrapped into a small one).
std::optional<std::uint64_t> parse_u64_dec(std::string_view s);

/// Bounds-checked forward reader over untrusted serialized bytes: each
/// take_* returns false (cursor unmoved) instead of reading past the
/// end, so truncation surfaces as a typed failure, never UB.
struct ByteReader {
  ByteView data;
  std::size_t pos = 0;

  std::size_t remaining() const { return data.size() - pos; }
  bool take_u32(std::uint32_t& v);
  bool take_u64(std::uint64_t& v);
  bool take_bytes(std::size_t n, ByteView& v);
};

}  // namespace omadrm
