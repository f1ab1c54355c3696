// Wire framing for ROAP-over-TCP.
//
// TCP is a byte stream; the ROAP envelopes the rest of the stack trades
// in are discrete documents. A frame is the smallest self-delimiting
// unit the stream is cut into:
//
//   offset  size  field
//   0       2     magic 0x4F 0x44 ("OD")
//   2       1     protocol version (kFrameVersion)
//   3       1     envelope type tag (roap::MessageType value,
//                 kErrorFrameType for a server refusal, or kBusyFrameType
//                 for an admission-control load shed; both carry a
//                 human-readable reason as the payload)
//   4       1     flags, always kFrameFlagCrc (0x01)
//   5       4     payload length, big-endian, capped (max_payload)
//   9       n     payload — the serialized ROAP XML document
//   9+n     4     CRC-32 (IEEE) of header+payload, big-endian
//
// The length cap is a hard protocol limit, checked *before* any payload
// is buffered: a peer announcing an oversized frame is cut off after 9
// bytes instead of being allowed to balloon the read buffer. The CRC
// trailer is mandatory: TCP's own checksum is 16-bit and the DRM threat
// model includes a deliberately damaging middlebox. A frame whose flags
// byte is anything but kFrameFlagCrc is refused, so no payload is ever
// handed on unchecked.
//
// FrameDecoder is incremental: feed() arbitrary byte slices as they
// arrive (a 1-byte-at-a-time trickle reassembles fine), next() yields
// complete frames. Malformed input — bad magic, unknown version, flags
// other than kFrameFlagCrc, oversized length, CRC mismatch — throws
// omadrm::Error(kFormat); a merely incomplete frame is not an error,
// next() just returns nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace omadrm::net {

inline constexpr std::uint8_t kFrameMagic0 = 0x4F;  // 'O'
inline constexpr std::uint8_t kFrameMagic1 = 0x44;  // 'D'
inline constexpr std::uint8_t kFrameVersion = 1;
/// Type tag of a server refusal frame (payload = ASCII reason).
inline constexpr std::uint8_t kErrorFrameType = 0xFF;
/// Type tag of a load-shed refusal: the server's admission control
/// answered "busy" WITHOUT processing the request (payload = ASCII
/// reason). Distinct from kErrorFrameType because the client-side
/// contract differs: busy is retriable-with-backoff on the SAME healthy
/// connection (StatusCode::kServerBusy), while an error frame poisons
/// the exchange and forces a reconnect.
inline constexpr std::uint8_t kBusyFrameType = 0xFE;
inline constexpr std::size_t kFrameHeaderSize = 9;
inline constexpr std::size_t kFrameTrailerSize = 4;
/// Default hard cap on a frame payload. ROAP documents in this repo are
/// a few KiB; 1 MiB leaves two orders of magnitude of headroom while
/// still bounding what one connection can make the server buffer.
inline constexpr std::size_t kDefaultMaxFramePayload = 1u << 20;

inline constexpr std::uint8_t kFrameFlagCrc = 0x01;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`, starting from
/// `seed` (pass a previous result to continue a running checksum).
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

struct Frame {
  std::uint8_t type = 0;  // MessageType value, kErrorFrameType, kBusyFrameType
  std::string payload;
};

/// Appends one encoded frame carrying `payload` to `out`.
void encode_frame(std::uint8_t type, std::string_view payload,
                  std::string& out);

/// Bytes one encoded frame for `payload` occupies on the wire.
std::size_t encoded_frame_size(std::size_t payload_size);

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Buffers arriving bytes. Any slicing works, including one byte at a
  /// time; feed() never throws on content (validation happens in next()).
  void feed(std::string_view bytes);

  /// Decodes the next complete frame from the buffered bytes, or
  /// std::nullopt when more bytes are needed. Throws
  /// omadrm::Error(kFormat) on bad magic, unknown version, flags other
  /// than kFrameFlagCrc, a payload length over the cap, or a CRC
  /// mismatch — after which the stream is unrecoverable and the
  /// connection should be dropped.
  std::optional<Frame> next();

  /// Bytes fed but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// Drops all buffered bytes (new-connection reset).
  void reset() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  std::size_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace omadrm::net
