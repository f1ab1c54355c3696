// Transport seam between DRM Agents and Rights Issuers.
//
// The agent side of the stack never holds a Rights Issuer object; it holds
// a Transport, which carries one serialized request envelope to *some* RI
// and brings back its serialized response. Implementations must treat
// envelopes as opaque bytes — every trust decision (signatures, nonces,
// certificates) stays on the endpoints, which is what lets the same agent
// code run over an in-process loopback, an HTTP client, or a proxy device
// relaying for an Unconnected Device.
//
//   InProcessTransport  loopback onto a local RightsIssuer::handle (the
//                       only component allowed to hold a RightsIssuer&
//                       on an agent's behalf).
//   FaultyTransport     decorator that drops / corrupts / delays /
//                       reorders / replays envelopes, for network
//                       simulation and robustness tests.
//
// A transport reports delivery failure by throwing
// omadrm::Error(ErrorKind::kTransport); sessions translate that into
// Result failures (StatusCode::kTransportFailure).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "roap/envelope.h"

namespace omadrm::ri {
class RightsIssuer;
}

namespace omadrm::roap {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Carries `request` to the Rights Issuer and returns its response.
  /// Throws omadrm::Error(kTransport) when the exchange is lost and
  /// omadrm::Error(kFormat) when the returned bytes do not parse.
  virtual Envelope request(const Envelope& request) = 0;

  /// Carries pre-serialized wire bytes — possibly damaged ones — to the
  /// peer. FaultyTransport's corrupt-request fault ships the mangled
  /// document through here. SocketTransport overrides it so the garbage
  /// genuinely crosses the wire and the *server* refuses it, as on a
  /// real network. This default, used in-process, parses the bytes with
  /// the same Envelope::from_wire the RI's request path would run and
  /// forwards them: damaged bytes throw omadrm::Error(kFormat) before any
  /// RI state is touched, which is where the RI would have refused them.
  virtual Envelope request_raw(std::string_view wire) {
    return request(Envelope::from_wire(wire));
  }
};

class InProcessTransport final : public Transport {
 public:
  /// `now` models the server's clock (certificate validation, OCSP
  /// production); advance it with set_now for time-travel tests.
  InProcessTransport(ri::RightsIssuer& ri, std::uint64_t now);

  void set_now(std::uint64_t now) { now_ = now; }
  std::uint64_t now() const { return now_; }

  Envelope request(const Envelope& request) override;

 private:
  ri::RightsIssuer& ri_;
  std::uint64_t now_;
};

class FaultyTransport final : public Transport {
 public:
  enum class Fault : std::uint8_t {
    kNone,             // deliver honestly
    kDropRequest,      // request never reaches the RI
    kDropResponse,     // RI processes the request, response is lost
    kCorruptRequest,   // request bytes mangled in transit
    kCorruptResponse,  // response bytes mangled in transit
    kReplayResponse,   // previous exchange's response returned again
    kDelayResponse,    // response arrives one exchange late (reordering)
  };

  struct Stats {
    std::size_t requests = 0;   // exchanges attempted
    std::size_t delivered = 0;  // responses handed to the caller
    std::size_t dropped = 0;
    std::size_t corrupted = 0;
    std::size_t replayed = 0;
    std::size_t delayed = 0;
    std::size_t scheduled = 0;  // faults consumed from set_schedule()
  };

  FaultyTransport(Transport& inner, Rng& rng);

  /// Queues a one-shot fault consumed by the next request (FIFO). With an
  /// empty queue the schedule, then the probabilistic rates below, apply.
  void inject(Fault fault);
  /// Installs a scripted fault sequence, one entry per request, consumed
  /// after any inject()ed faults and before the probabilistic mode. Feed
  /// a recorded fault_log() back in to replay an observed run exactly.
  void set_schedule(std::vector<Fault> schedule);
  std::size_t schedule_remaining() const { return schedule_.size(); }
  /// Probability in [0,1] of dropping / corrupting / replaying / delaying
  /// an exchange when no injected or scheduled fault is pending. The
  /// rates are cumulative slices of one uniform draw, so their sum must
  /// stay <= 1.
  void set_drop_rate(double p) { drop_rate_ = p; }
  void set_corrupt_rate(double p) { corrupt_rate_ = p; }
  void set_replay_rate(double p) { replay_rate_ = p; }
  void set_delay_rate(double p) { delay_rate_ = p; }

  /// Discards responses still queued by kDelayResponse — the network
  /// "timing out" the stale packets so in-order delivery resumes.
  void discard_delayed() { delayed_.clear(); }

  const Stats& stats() const { return stats_; }

  /// Every fault applied so far, one entry per request() in order
  /// (kNone for honest deliveries) — the exact scenario a probabilistic
  /// run produced, replayable via set_schedule().
  const std::vector<Fault>& fault_log() const { return fault_log_; }
  void clear_fault_log() { fault_log_.clear(); }

  Envelope request(const Envelope& request) override;

 private:
  Fault next_fault();
  std::string corrupt(std::string wire);

  Transport& inner_;
  Rng& rng_;
  std::deque<Fault> injected_;
  std::deque<Fault> schedule_;
  std::deque<Envelope> delayed_;
  std::optional<Envelope> last_response_;
  double drop_rate_ = 0;
  double corrupt_rate_ = 0;
  double replay_rate_ = 0;
  double delay_rate_ = 0;
  std::vector<Fault> fault_log_;
  Stats stats_;
};

}  // namespace omadrm::roap
