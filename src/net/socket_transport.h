// roap::Transport over framed TCP — the agent side of the real network
// stack.
//
// One transport owns one persistent connection to an ri_server (or any
// net::RiServer). request() frames the envelope's wire bytes
// (net/frame.h), sends them, and blocks — bounded by the configured
// timeouts — for exactly one framed reply, which is parsed with the
// same Envelope::from_wire the in-process seam uses: nothing above the
// Transport interface can tell the difference, which is the point of
// the PR 2 seam.
//
// Failure mapping (composes unchanged with roap::ReliableTransport and
// the PR 6 retry-policy session drivers):
//
//   connect refused / reset / EOF      Error(kTransport)  -> retriable,
//   read or write timeout              Error(kTransport)     surfaces as
//   server refusal frame (0xFF)        Error(kTransport)     kTransportFailure
//   server busy frame (0xFE)           Error(kBusy)       -> retriable w/
//                                                            backoff, surfaces
//                                                            as kServerBusy
//   reply delivered but unparseable    Error(kFormat)     -> session judges
//                                                            (kMalformedMessage)
//
// the whole-exchange deadline of a RetryPolicy then yields kTimeout at
// the session layer — the per-attempt socket timeouts below are what
// turns a silent peer into those retriable attempts in the first place.
//
// After any transport-level failure the connection is closed, so the
// next attempt reconnects on a clean stream — a reply to a timed-out
// request can never be mistaken for the reply to its resend. A busy
// frame is the one exception: the server answered it from the event
// loop — exactly one reply per request, stream still in lockstep — so
// the connection stays open and the backed-off resend reuses it.
//
// All deadlines are measured on the monotonic clock (net::steady_ms).
// The transport is single-session: one request at a time per instance
// (each agent thread owns its own, mirroring one device = one link).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.h"
#include "net/socket.h"
#include "roap/envelope.h"
#include "roap/transport.h"

namespace omadrm::net {

class SocketTransport final : public roap::Transport {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t connect_timeout_ms = 2000;
    std::uint64_t read_timeout_ms = 5000;
    std::uint64_t write_timeout_ms = 5000;
    std::size_t max_frame_payload = kDefaultMaxFramePayload;
  };

  struct Stats {
    std::uint64_t requests = 0;         // exchanges attempted
    std::uint64_t connects = 0;         // successful TCP connects
    std::uint64_t reconnects = 0;       // connects beyond the first
    std::uint64_t transport_errors = 0; // thrown kTransport failures
    std::uint64_t server_refusals = 0;  // error frames received
    std::uint64_t server_busy = 0;      // busy (load-shed) frames received
  };

  explicit SocketTransport(Config config)
      : config_(std::move(config)), decoder_(config_.max_frame_payload) {}
  ~SocketTransport() override = default;

  roap::Envelope request(const roap::Envelope& request) override;
  /// Ships pre-serialized (possibly deliberately damaged) bytes as the
  /// frame payload — the raw seam FaultyTransport's corrupt-request
  /// fault uses, so the garbage actually crosses the wire.
  roap::Envelope request_raw(std::string_view wire) override;

  /// Drops the persistent connection; the next request reconnects.
  void close();
  bool connected() const { return sock_.valid(); }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  /// One framed exchange: connect if needed, send, read one reply frame.
  roap::Envelope exchange(std::uint8_t type, std::string_view payload);

  Config config_;
  Socket sock_;
  FrameDecoder decoder_;
  std::string outbuf_;  // reused frame-encode buffer
  Stats stats_;
};

}  // namespace omadrm::net
