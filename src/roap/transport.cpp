#include "roap/transport.h"

#include "common/error.h"
#include "ri/rights_issuer.h"

namespace omadrm::roap {

using omadrm::Error;
using omadrm::ErrorKind;

// ---------------------------------------------------------------------------
// InProcessTransport
// ---------------------------------------------------------------------------

InProcessTransport::InProcessTransport(ri::RightsIssuer& ri,
                                       std::uint64_t now)
    : ri_(ri), now_(now) {}

Envelope InProcessTransport::request(const Envelope& request) {
  // The serialize→parse round trip is intrinsic to the envelope now:
  // wrap() parses its own serialized bytes, so the request the RI opens
  // and the response handed back here are both DOMs of wire bytes — no
  // re-serialization is needed to preserve the boundary semantics.
  return ri_.handle(request, now_);
}

// ---------------------------------------------------------------------------
// FaultyTransport
// ---------------------------------------------------------------------------

FaultyTransport::FaultyTransport(Transport& inner, Rng& rng)
    : inner_(inner), rng_(rng) {}

void FaultyTransport::inject(Fault fault) { injected_.push_back(fault); }

void FaultyTransport::set_schedule(std::vector<Fault> schedule) {
  schedule_.assign(schedule.begin(), schedule.end());
}

FaultyTransport::Fault FaultyTransport::next_fault() {
  if (!injected_.empty()) {
    Fault f = injected_.front();
    injected_.pop_front();
    return f;
  }
  if (!schedule_.empty()) {
    Fault f = schedule_.front();
    schedule_.pop_front();
    ++stats_.scheduled;
    return f;
  }
  // Probabilistic mode with 1/2^32 resolution; the four rates slice one
  // uniform draw so each request suffers at most one fault.
  const double draw =
      static_cast<double>(rng_.uniform(std::uint64_t{1} << 32)) /
      static_cast<double>(std::uint64_t{1} << 32);
  if (draw < drop_rate_) {
    return rng_.uniform(2) == 0 ? Fault::kDropRequest : Fault::kDropResponse;
  }
  double band = drop_rate_ + corrupt_rate_;
  if (draw < band) return Fault::kCorruptResponse;
  band += replay_rate_;
  if (draw < band) return Fault::kReplayResponse;
  band += delay_rate_;
  if (draw < band) return Fault::kDelayResponse;
  return Fault::kNone;
}

std::string FaultyTransport::corrupt(std::string wire) {
  if (wire.empty()) return wire;
  // A short burst error: flip 1–4 bytes somewhere in the document.
  const std::size_t flips = 1 + rng_.uniform(4);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = rng_.uniform(wire.size());
    wire[pos] = static_cast<char>(wire[pos] ^
                                  static_cast<char>(1 + rng_.uniform(255)));
  }
  return wire;
}

Envelope FaultyTransport::request(const Envelope& request) {
  ++stats_.requests;
  const Fault fault = next_fault();
  fault_log_.push_back(fault);

  switch (fault) {
    case Fault::kDropRequest:
      ++stats_.dropped;
      throw Error(ErrorKind::kTransport, "transport: request lost");

    case Fault::kReplayResponse:
      if (last_response_) {
        ++stats_.replayed;
        ++stats_.delivered;  // the caller does receive (stale) bytes
        return *last_response_;
      }
      break;  // nothing captured yet: deliver honestly

    case Fault::kCorruptRequest: {
      ++stats_.corrupted;
      // The mangled bytes are shipped through the raw seam: over a
      // socket they genuinely cross the wire to the server's parser, and
      // in-process they meet the same Envelope::from_wire the RI's
      // request path runs. Whatever the peer makes of them, the
      // caller gets no usable answer — the bytes no longer parse, the
      // peer refuses the document, or a server refusal frame comes
      // back. All of it surfaces as a lost exchange.
      try {
        (void)inner_.request_raw(corrupt(request.wire()));
      } catch (const Error&) {
      }
      throw Error(ErrorKind::kTransport,
                  "transport: request corrupted in transit");
    }

    default:
      break;
  }

  Envelope response = inner_.request(request);

  switch (fault) {
    case Fault::kDropResponse:
      // The RI processed the request (state may have changed server-side)
      // but the caller never hears back.
      ++stats_.dropped;
      throw Error(ErrorKind::kTransport, "transport: response lost");

    case Fault::kCorruptResponse: {
      ++stats_.corrupted;
      // May throw kFormat (bytes no longer parse) or yield an envelope
      // whose signature/nonce checks fail downstream — the agent must
      // fail closed either way.
      response = Envelope::from_wire(corrupt(response.wire()));
      break;
    }

    case Fault::kDelayResponse:
      ++stats_.delayed;
      delayed_.push_back(std::move(response));
      throw Error(ErrorKind::kTransport,
                  "transport: response delayed past timeout");

    default:
      break;
  }

  // Reordered delivery: while delayed responses are queued, the caller
  // receives the oldest one and the fresh response joins the queue.
  if (!delayed_.empty()) {
    delayed_.push_back(std::move(response));
    response = std::move(delayed_.front());
    delayed_.pop_front();
  }

  last_response_ = response;
  ++stats_.delivered;
  return response;
}

}  // namespace omadrm::roap
