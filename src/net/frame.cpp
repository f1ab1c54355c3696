#include "net/frame.h"

#include <array>

#include "common/error.h"

namespace omadrm::net {

using omadrm::Error;
using omadrm::ErrorKind;

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_u32_be(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v));
}

std::uint32_t get_u32_be(const char* p) {
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3]));
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c = table[(c ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::size_t encoded_frame_size(std::size_t payload_size) {
  return kFrameHeaderSize + payload_size + kFrameTrailerSize;
}

void encode_frame(std::uint8_t type, std::string_view payload,
                  std::string& out) {
  if (payload.size() > 0xFFFFFFFFu) {
    throw Error(ErrorKind::kRange, "net: frame payload exceeds u32 length");
  }
  const std::size_t start = out.size();
  out.reserve(start + encoded_frame_size(payload.size()));
  out.push_back(static_cast<char>(kFrameMagic0));
  out.push_back(static_cast<char>(kFrameMagic1));
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(kFrameFlagCrc));
  put_u32_be(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32_be(out, crc32(std::string_view(out).substr(
                      start, kFrameHeaderSize + payload.size())));
}

void FrameDecoder::feed(std::string_view bytes) {
  // Reclaim the consumed prefix before it grows unbounded on a
  // long-lived connection; amortized O(1) per byte.
  if (pos_ > 4096 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - pos_;
  // Validate the fixed fields as soon as their bytes exist: garbage is
  // rejected at the earliest offset that proves it, not after a full
  // header straggles in.
  const char* p = buf_.data() + pos_;
  if (avail >= 1 && static_cast<std::uint8_t>(p[0]) != kFrameMagic0) {
    throw Error(ErrorKind::kFormat, "net: bad frame magic");
  }
  if (avail >= 2 && static_cast<std::uint8_t>(p[1]) != kFrameMagic1) {
    throw Error(ErrorKind::kFormat, "net: bad frame magic");
  }
  if (avail >= 3 && static_cast<std::uint8_t>(p[2]) != kFrameVersion) {
    throw Error(ErrorKind::kFormat, "net: unsupported frame version");
  }
  if (avail < kFrameHeaderSize) return std::nullopt;

  const std::uint8_t type = static_cast<std::uint8_t>(p[3]);
  const std::uint8_t flags = static_cast<std::uint8_t>(p[4]);
  if (flags != kFrameFlagCrc) {
    throw Error(ErrorKind::kFormat, "net: frame flags must be 0x01 (CRC)");
  }
  const std::uint32_t len = get_u32_be(p + 5);
  if (len > max_payload_) {
    // coldpath: oversized-frame reject tears the connection down anyway.
    throw Error(ErrorKind::kFormat,
                "net: frame payload length " + std::to_string(len) +
                    " exceeds cap " + std::to_string(max_payload_));
  }
  const std::size_t total = encoded_frame_size(len);
  if (avail < total) return std::nullopt;

  if (get_u32_be(p + kFrameHeaderSize + len) !=
      crc32(std::string_view(p, kFrameHeaderSize + len))) {
    throw Error(ErrorKind::kFormat, "net: frame CRC mismatch");
  }

  Frame frame;
  frame.type = type;
  frame.payload.assign(p + kFrameHeaderSize, len);
  pos_ += total;
  return frame;
}

}  // namespace omadrm::net
