#include "common/bytes.h"

#include "common/error.h"

namespace omadrm {

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes slice(ByteView v, std::size_t offset, std::size_t len) {
  if (offset > v.size() || len > v.size() - offset) {
    throw Error(ErrorKind::kRange, "slice out of range");
  }
  return Bytes(v.begin() + static_cast<std::ptrdiff_t>(offset),
               v.begin() + static_cast<std::ptrdiff_t>(offset + len));
}

Bytes xor_bytes(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    throw Error(ErrorKind::kRange, "xor_bytes length mismatch");
  }
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(ByteView v) {
  return std::string(v.begin(), v.end());
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

ByteView strip_leading_zeros(ByteView v) {
  std::size_t i = 0;
  while (i < v.size() && v[i] == 0) ++i;
  return v.subspan(i);
}

void store_be32(std::uint32_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint64_t v, std::uint8_t* out) {
  store_be32(static_cast<std::uint32_t>(v >> 32), out);
  store_be32(static_cast<std::uint32_t>(v), out + 4);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t load_be64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(load_be32(p)) << 32) | load_be32(p + 4);
}

void append_be32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(v, buf);
  out.insert(out.end(), buf, buf + 4);
}

void append_be64(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_be64(v, buf);
  out.insert(out.end(), buf, buf + 8);
}

std::optional<std::uint64_t> parse_u64_dec(std::string_view s) {
  if (s.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

bool ByteReader::take_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = load_be32(data.data() + pos);
  pos += 4;
  return true;
}

bool ByteReader::take_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = load_be64(data.data() + pos);
  pos += 8;
  return true;
}

bool ByteReader::take_bytes(std::size_t n, ByteView& v) {
  if (remaining() < n) return false;
  v = data.subspan(pos, n);
  pos += n;
  return true;
}

}  // namespace omadrm
