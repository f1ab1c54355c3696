// The Rights Issuer's decisions as pure functions. For each ROAP request,
// decide() reads const views of the RI's state and returns the response
// (status and unsigned body) together with the Delta the exchange
// commits. It does no crypto, takes no lock and does no I/O: the
// RightsIssuer authenticates the request before it, and persists the
// Delta and seals the response (RO keys, OCSP staple, signature) after.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pki/chain.h"
#include "rel/rights.h"
#include "roap/messages.h"

namespace omadrm::ri {

/// A license the RI can mint: content binding + permissions + the K_CEK
/// obtained from the Content Issuer.
struct LicenseOffer {
  std::string ro_id;
  std::string content_id;
  Bytes dcf_hash;
  std::vector<rel::Permission> permissions;
  Bytes kcek;
  bool domain_ro = false;     // minted for a domain instead of one device
  std::string domain_id;      // required when domain_ro
};

struct Domain {
  std::string domain_id;
  Bytes key;                  // K_D, 128-bit
  std::uint32_t generation = 0;
  std::vector<std::string> members;  // device ids
  std::size_t max_members = 8;
};

/// One in-flight registration handshake (between RIHello and
/// RegistrationRequest), keyed by session id.
struct PendingSession {
  Bytes ri_nonce;
  std::string device_id;
  std::uint64_t created_at = 0;
};
using Sessions = std::map<std::string, PendingSession>;

/// A registered device: its certificate and the verdict of that
/// certificate's last chain walk (unwalked for a device loaded from the
/// store), which every later request revalidates instead of walking the
/// chain again.
struct KnownDevice {
  pki::Certificate cert;
  pki::ChainVerdict verdict;
};

/// The state change one exchange commits. The RI turns it into one store
/// transaction and, once that commits, into the same change in RAM.
struct Delta {
  std::vector<std::string> erased_sessions;
  std::optional<std::pair<std::string, PendingSession>> opened_session;
  /// The session number opened_session reserved (0: none); the persisted
  /// session-id lease must stay above it.
  std::uint64_t session_number = 0;
  std::optional<std::pair<std::string, KnownDevice>> admitted;
  std::optional<Domain> domain;  // a domain's state after a join or leave
};

/// What decide() reads. Pointers are const views the caller keeps alive
/// (null: absent); the rest are values the caller settles first.
struct View {
  std::string_view ri_id{};
  std::string_view ri_url{};
  std::uint64_t now = 0;
  const Sessions* sessions = nullptr;  // the requesting device's shard
  /// The authentication verdict; `device` is who signed when it is
  /// kSuccess (for registration, the certificate the request presents).
  roap::Status auth = roap::Status::kSuccess;
  const KnownDevice* device = nullptr;
  const LicenseOffer* offer = nullptr;  // RoRequest: the offer named
  /// RoRequest: a snapshot of the offer's domain. Join and leave: the
  /// live domain, read under its stripe lock.
  const Domain* domain = nullptr;
  std::uint64_t session_number = 0;  // DeviceHello: the id reserved
  Bytes nonce{};                     // DeviceHello: the RI nonce drawn
};

template <typename Response>
struct Decision {
  Response response;
  Delta delta;
};

/// The fields every response to `request` carries, refusals included.
inline roap::RiHello header(const roap::DeviceHello&, const View& view) {
  roap::RiHello out;
  out.ri_id = view.ri_id;
  return out;
}
inline roap::RegistrationResponse header(
    const roap::RegistrationRequest& request, const View& view) {
  roap::RegistrationResponse out;
  out.session_id = request.session_id;
  out.ri_id = view.ri_id;
  out.ri_url = view.ri_url;
  return out;
}
inline roap::RoResponse header(const roap::RoRequest& request,
                               const View& view) {
  roap::RoResponse out;
  out.device_id = request.device_id;
  out.ri_id = view.ri_id;
  out.device_nonce = request.device_nonce;
  return out;
}
inline roap::JoinDomainResponse header(const roap::JoinDomainRequest& request,
                                       const View&) {
  roap::JoinDomainResponse out;
  out.domain_id = request.domain_id;
  out.device_nonce = request.device_nonce;
  return out;
}
inline roap::LeaveDomainResponse header(
    const roap::LeaveDomainRequest& request, const View&) {
  roap::LeaveDomainResponse out;
  out.domain_id = request.domain_id;
  out.device_nonce = request.device_nonce;
  return out;
}

/// Pending sessions past kPendingSessionTtl at `now` and, when
/// `superseded_device` is non-null, that device's sessions too (only its
/// newest hello may stay live).
std::vector<std::string> stale_sessions(const Sessions& sessions,
                                        std::uint64_t now,
                                        const std::string* superseded_device);

/// Registration's cheap checks, which run before any RSA work:
/// kSessionExpired when the pending session the request names is gone
/// (never opened, consumed, superseded or past its TTL), kAbort when its
/// RI nonce does not match, else kSuccess.
roap::Status session_check(const Sessions& sessions,
                           const roap::RegistrationRequest& request,
                           std::uint64_t now);

Decision<roap::RiHello> decide(const roap::DeviceHello& request,
                               const View& view);
Decision<roap::RegistrationResponse> decide(
    const roap::RegistrationRequest& request, const View& view);
Decision<roap::RoResponse> decide(const roap::RoRequest& request,
                                  const View& view);
Decision<roap::JoinDomainResponse> decide(
    const roap::JoinDomainRequest& request, const View& view);
Decision<roap::LeaveDomainResponse> decide(
    const roap::LeaveDomainRequest& request, const View& view);

/// How long an RI keeps a pending registration session alive while
/// waiting for the RegistrationRequest (seconds). Abandoned handshakes —
/// dropped envelopes, crashed devices — are garbage-collected past this.
inline constexpr std::uint64_t kPendingSessionTtl = 600;

}  // namespace omadrm::ri
