#include "net/socket_transport.h"

#include "common/error.h"

namespace omadrm::net {

using omadrm::Error;
using omadrm::ErrorKind;

void SocketTransport::close() {
  sock_.close();
  decoder_.reset();
}

roap::Envelope SocketTransport::request(const roap::Envelope& request) {
  return exchange(static_cast<std::uint8_t>(request.type()), request.wire());
}

roap::Envelope SocketTransport::request_raw(std::string_view wire) {
  // The type tag is advisory routing metadata; the authoritative type is
  // whatever the document parses to server-side. Damaged bytes get the
  // error tag's opposite — any request tag works, the server re-derives.
  return exchange(static_cast<std::uint8_t>(roap::MessageType::kDeviceHello),
                  wire);
}

roap::Envelope SocketTransport::exchange(std::uint8_t type,
                                         std::string_view payload) {
  ++stats_.requests;
  try {
    if (!sock_.valid()) {
      sock_ = connect_tcp(config_.host, config_.port,
                          config_.connect_timeout_ms);
      decoder_.reset();
      ++stats_.connects;
      if (stats_.connects > 1) ++stats_.reconnects;
    }

    outbuf_.clear();
    encode_frame(type, payload, outbuf_);
    send_all(sock_.fd(), outbuf_, config_.write_timeout_ms);

    const std::uint64_t deadline = steady_ms() + config_.read_timeout_ms;
    char buf[16 * 1024];
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = decoder_.next();
      } catch (const Error&) {
        // A frame-layer kFormat (bad magic/version, CRC mismatch) means
        // the stream is desynchronized — unlike a bad *document*, the
        // connection itself is unusable now.
        close();
        throw;
      }
      if (frame) {
        if (frame->type == kBusyFrameType) {
          // Admission-control shed: answered straight from the server's
          // event loop before any processing, so a resend races nothing.
          // The stream stays in lockstep (one reply per request) — keep
          // the connection; the retry stack backs off and resends on it.
          ++stats_.server_busy;
          throw Error(ErrorKind::kBusy,
                      "net: server busy: " + frame->payload);
        }
        if (frame->type == kErrorFrameType) {
          // The peer received our bytes and refused them (unparseable
          // document, protocol misuse, overload). For the layers above
          // this is indistinguishable from a lost exchange: retriable.
          ++stats_.server_refusals;
          close();
          throw Error(ErrorKind::kTransport,
                      "net: server refused request: " + frame->payload);
        }
        // Delivered-but-damaged replies throw kFormat out of from_wire —
        // the session layer's business, not a transport loss; the
        // connection itself stays healthy (framing was intact).
        roap::Envelope env = roap::Envelope::from_wire(frame->payload);
        if (static_cast<std::uint8_t>(env.type()) != frame->type) {
          throw Error(ErrorKind::kFormat,
                      "net: frame type tag disagrees with document root");
        }
        return env;
      }
      const std::size_t n =
          recv_some_until(sock_.fd(), buf, sizeof buf, deadline);
      if (n == 0) {
        throw Error(ErrorKind::kTransport,
                    "net: server closed the connection mid-exchange");
      }
      decoder_.feed(std::string_view(buf, n));
    }
  } catch (const Error& e) {
    // Any transport-level loss poisons the connection: close it so the
    // next attempt reconnects on a clean stream (a late reply to a
    // timed-out request must never be read as the reply to its resend).
    if (e.kind() == ErrorKind::kTransport) {
      ++stats_.transport_errors;
      close();
    }
    throw;
  }
}

}  // namespace omadrm::net
