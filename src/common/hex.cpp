#include "common/hex.h"

#include "common/error.h"

namespace omadrm {

namespace {

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(ByteView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw Error(ErrorKind::kFormat, "hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw Error(ErrorKind::kFormat, "invalid hex digit");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string to_hex_number(ByteView magnitude) {
  std::string out = to_hex(strip_leading_zeros(magnitude));
  const std::size_t zeros = out.find_first_not_of('0');
  return zeros == std::string::npos ? "0" : out.substr(zeros);
}

Bytes from_hex_number(std::string_view hex) {
  if (hex.empty()) throw Error(ErrorKind::kFormat, "empty hex number");
  // An odd digit count gets the leading zero from_hex needs.
  const Bytes out = from_hex(std::string(hex.size() % 2, '0').append(hex));
  const ByteView minimal = strip_leading_zeros(out);
  return Bytes(minimal.begin(), minimal.end());
}

}  // namespace omadrm
