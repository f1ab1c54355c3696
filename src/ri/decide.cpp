#include "ri/decide.h"

#include <algorithm>

namespace omadrm::ri {

using roap::Status;

namespace {

bool expired(const PendingSession& p, std::uint64_t now) {
  return now >= p.created_at && now - p.created_at > kPendingSessionTtl;
}

bool is_member(const Domain& d, const std::string& device_id) {
  return std::find(d.members.begin(), d.members.end(), device_id) !=
         d.members.end();
}

/// A join or leave goes ahead for an authenticated device and a domain
/// that exists.
Status membership_status(const View& view) {
  if (view.auth != Status::kSuccess) return view.auth;
  return view.domain != nullptr ? Status::kSuccess : Status::kAccessDenied;
}

}  // namespace

std::vector<std::string> stale_sessions(const Sessions& sessions,
                                        std::uint64_t now,
                                        const std::string* superseded_device) {
  std::vector<std::string> out;
  for (const auto& [id, p] : sessions) {
    const bool superseded =
        superseded_device != nullptr && p.device_id == *superseded_device;
    if (expired(p, now) || superseded) out.push_back(id);
  }
  return out;
}

Status session_check(const Sessions& sessions,
                     const roap::RegistrationRequest& request,
                     std::uint64_t now) {
  // A session lives in its device's shard, so a request whose device id
  // does not match the hello's finds nothing here either.
  auto session = sessions.find(request.session_id);
  if (session == sessions.end() || expired(session->second, now)) {
    return Status::kSessionExpired;
  }
  return ct_equal(session->second.ri_nonce, request.ri_nonce) ? Status::kSuccess
                                                              : Status::kAbort;
}

Decision<roap::RiHello> decide(const roap::DeviceHello& request,
                               const View& view) {
  // Garbage-collect the shard's abandoned handshakes and supersede any
  // pending session of this same device: only its newest hello stays
  // live. DeviceHello is unauthenticated (nothing in pass 1 is signed),
  // so a peer spoofing another device's id can abort that device's
  // in-flight handshake — the price of bounding per-device pending state
  // to one entry; the aborted device just restarts from DeviceHello.
  Decision<roap::RiHello> d{header(request, view), {}};
  roap::RiHello& out = d.response;
  out.session_id = std::string(view.ri_id) + "-session-" +
                   std::to_string(view.session_number);
  // Capability negotiation: the standard's mandatory suite always wins
  // unless the device advertises nothing (paper §2.4.1).
  out.algorithms = {"SHA-1", "HMAC-SHA1", "AES-128-CBC", "AES-WRAP",
                    "RSA-1024", "RSA-PSS", "KDF2"};
  out.ri_nonce = view.nonce;
  d.delta.erased_sessions =
      stale_sessions(*view.sessions, view.now, &request.device_id);
  d.delta.opened_session.emplace(
      out.session_id,
      PendingSession{view.nonce, request.device_id, view.now});
  d.delta.session_number = view.session_number;
  return d;
}

Decision<roap::RegistrationResponse> decide(
    const roap::RegistrationRequest& request, const View& view) {
  Decision<roap::RegistrationResponse> d{header(request, view), {}};
  d.response.status = session_check(*view.sessions, request, view.now);
  // A live session but the wrong nonce: a forgery or a cross-wired
  // handshake, refused without consuming the session, so the honest
  // device's in-flight request can still land.
  if (d.response.status == Status::kAbort) return d;
  d.delta.erased_sessions = stale_sessions(*view.sessions, view.now, nullptr);
  // A session that is gone is not a refusal: an honest device restarts
  // from DeviceHello with fresh nonces (kAbort stays reserved for genuine
  // refusals).
  if (d.response.status != Status::kSuccess) return d;
  // The handshake is consumed one-shot, whatever the verdict: a retry
  // restarts from DeviceHello. (A byte-identical retry is served by the
  // replay cache and never gets here.)
  d.delta.erased_sessions.push_back(request.session_id);
  d.response.status = view.auth;
  if (view.auth == Status::kSuccess) {
    d.delta.admitted.emplace(request.device_id, *view.device);
  }
  return d;
}

Decision<roap::RoResponse> decide(const roap::RoRequest& request,
                                  const View& view) {
  Decision<roap::RoResponse> d{header(request, view), {}};
  Status& status = d.response.status;
  if (view.auth != Status::kSuccess) {
    status = view.auth;
  } else if (view.offer == nullptr) {
    status = Status::kUnknownRoId;
  } else if (view.offer->domain_ro &&
             (view.domain == nullptr ||
              !is_member(*view.domain, request.device_id))) {
    // Domain ROs go only to current members of the domain.
    status = Status::kAccessDenied;
  }
  return d;
}

Decision<roap::JoinDomainResponse> decide(
    const roap::JoinDomainRequest& request, const View& view) {
  Decision<roap::JoinDomainResponse> d{header(request, view), {}};
  Status& status = d.response.status;
  status = membership_status(view);
  if (status != Status::kSuccess) return d;
  Domain joined = *view.domain;
  if (!is_member(joined, request.device_id)) {
    if (joined.members.size() >= joined.max_members) {
      status = Status::kAccessDenied;
      return d;
    }
    joined.members.push_back(request.device_id);
  }
  // Persisted on every successful join, not just first admission: if a
  // prior join's commit failed (its response never left), the retry
  // finds the device a member and must still make that durable before
  // K_D goes out.
  d.response.generation = joined.generation;
  d.delta.domain = std::move(joined);
  return d;
}

Decision<roap::LeaveDomainResponse> decide(
    const roap::LeaveDomainRequest& request, const View& view) {
  Decision<roap::LeaveDomainResponse> d{header(request, view), {}};
  d.response.status = membership_status(view);
  if (d.response.status != Status::kSuccess) return d;
  // Persisted on every successful leave, as for joins: a retry after a
  // refused commit finds nothing to erase but must still make the
  // removal durable, or a restart resurrects the departed member.
  Domain left = *view.domain;
  std::erase(left.members, request.device_id);
  d.delta.domain = std::move(left);
  return d;
}

}  // namespace omadrm::ri
