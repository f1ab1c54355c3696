// ri::decide on hand-built views: no RightsIssuer, no provider, no RNG.
// decide is the pure core of every RI exchange (the RI authenticates
// before it and persists and seals after it), so each outcome here is a
// function of the request and the view alone — and calling it twice on
// one view gives the same decision.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "ri/decide.h"

namespace omadrm {
namespace {

using ri::Decision;
using ri::View;
using roap::Status;

constexpr std::uint64_t kNow = 1100000000;

/// The parts of a Decision the table pins.
struct Outcome {
  Status status = Status::kSuccess;
  std::vector<std::string> erased_sessions;
  std::string admitted;  // device id put on file, empty for none
  std::optional<std::vector<std::string>> members;  // of the delta's domain

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os << "{status " << roap::to_string(o.status) << ", erased [";
  for (const std::string& id : o.erased_sessions) os << id << ' ';
  os << "], admitted '" << o.admitted << "', members ";
  if (!o.members) return os << "none}";
  os << '[';
  for (const std::string& m : *o.members) os << m << ' ';
  return os << "]}";
}

template <typename Response>
Outcome outcome_of(const Decision<Response>& d) {
  Outcome o;
  o.status = d.response.status;
  o.erased_sessions = d.delta.erased_sessions;
  if (d.delta.admitted) o.admitted = d.delta.admitted->first;
  if (d.delta.domain) o.members = d.delta.domain->members;
  return o;
}

/// decide twice on the same inputs: the decisions must agree.
template <typename Request>
Outcome decide_twice(const Request& request, const View& view) {
  const Outcome first = outcome_of(ri::decide(request, view));
  EXPECT_EQ(outcome_of(ri::decide(request, view)), first);
  return first;
}

ri::Domain home(std::vector<std::string> members, std::size_t max_members) {
  ri::Domain d;
  d.domain_id = "domain:home";
  d.key = Bytes(16, 0x4B);
  d.generation = 3;
  d.members = std::move(members);
  d.max_members = max_members;
  return d;
}

ri::LicenseOffer album_offer() {
  ri::LicenseOffer offer;
  offer.ro_id = "ro:album";
  offer.content_id = "cid:album@content.example";
  offer.kcek = Bytes(16, 0x11);
  offer.domain_ro = true;
  offer.domain_id = "domain:home";
  return offer;
}

/// Pending sessions: "live" belongs to device-a with RI nonce 0xAA..;
/// "stale" (device-b) and "older" (device-a) are past their TTL.
ri::Sessions pending() {
  ri::Sessions sessions;
  sessions["live"] = {Bytes(14, 0xAA), "device-a", kNow - 10};
  sessions["stale"] = {Bytes(14, 0xBB), "device-b",
                       kNow - ri::kPendingSessionTtl - 1};
  sessions["older"] = {Bytes(14, 0xCC), "device-a",
                       kNow - ri::kPendingSessionTtl - 5};
  return sessions;
}

roap::RegistrationRequest registration(std::string session_id, Bytes nonce) {
  roap::RegistrationRequest r;
  r.session_id = std::move(session_id);
  r.device_id = "device-a";
  r.ri_nonce = std::move(nonce);
  return r;
}

template <typename Request>
Request from_device_a(std::string domain_id) {
  Request r;
  r.device_id = "device-a";
  r.domain_id = std::move(domain_id);
  return r;
}

TEST(RiDecide, OutcomesFollowFromTheRequestAndTheViewAlone) {
  const ri::KnownDevice device;  // who signed; decide never looks inside
  const ri::Sessions sessions = pending();
  const ri::LicenseOffer album = album_offer();
  const ri::Domain others_only = home({"device-b"}, 8);
  const ri::Domain full = home({"device-b"}, 1);
  const ri::Domain with_a = home({"device-b", "device-a"}, 2);

  View base;
  base.ri_id = "ri.example";
  base.ri_url = "http://ri.example/roap";
  base.now = kNow;
  base.sessions = &sessions;
  base.device = &device;
  const auto view = [&](auto&& edit) {
    View v = base;
    edit(v);
    return v;
  };
  const auto no_edit = [](View&) {};

  roap::RoRequest ro;
  ro.device_id = "device-a";
  ro.ro_id = "ro:album";
  const auto join = from_device_a<roap::JoinDomainRequest>("domain:home");
  const auto leave = from_device_a<roap::LeaveDomainRequest>("domain:home");

  struct Case {
    const char* name;
    std::function<Outcome()> decide;
    Outcome want;
  };
  const std::vector<Case> cases = {
      {"ro: unknown RO id",
       [&] { return decide_twice(ro, view(no_edit)); },
       {Status::kUnknownRoId, {}, "", std::nullopt}},
      {"ro: domain RO to a non-member",
       [&] {
         return decide_twice(ro, view([&](View& v) {
                               v.offer = &album;
                               v.domain = &others_only;
                             }));
       },
       {Status::kAccessDenied, {}, "", std::nullopt}},
      {"ro: domain RO to a member, nothing to persist",
       [&] {
         return decide_twice(ro, view([&](View& v) {
                               v.offer = &album;
                               v.domain = &with_a;
                             }));
       },
       {Status::kSuccess, {}, "", std::nullopt}},
      {"ro: the authentication verdict is the answer",
       [&] {
         return decide_twice(ro, view([&](View& v) {
                               v.auth = Status::kNotRegistered;
                               v.offer = &album;
                             }));
       },
       {Status::kNotRegistered, {}, "", std::nullopt}},
      {"join: a full domain",
       [&] {
         return decide_twice(join, view([&](View& v) { v.domain = &full; }));
       },
       {Status::kAccessDenied, {}, "", std::nullopt}},
      {"join: unknown domain",
       [&] {
         return decide_twice(
             from_device_a<roap::JoinDomainRequest>("domain:x"), view(no_edit));
       },
       {Status::kAccessDenied, {}, "", std::nullopt}},
      {"join: a new member is appended",
       [&] {
         return decide_twice(join,
                             view([&](View& v) { v.domain = &others_only; }));
       },
       {Status::kSuccess,
        {},
        "",
        std::vector<std::string>{"device-b", "device-a"}}},
      {"join: a re-join by a member persists again",
       [&] {
         return decide_twice(join, view([&](View& v) { v.domain = &with_a; }));
       },
       {Status::kSuccess,
        {},
        "",
        std::vector<std::string>{"device-b", "device-a"}}},
      {"leave: the member goes",
       [&] {
         return decide_twice(leave, view([&](View& v) { v.domain = &with_a; }));
       },
       {Status::kSuccess, {}, "", std::vector<std::string>{"device-b"}}},
      {"leave: a non-member's leave still persists",
       [&] {
         return decide_twice(leave, view([&](View& v) { v.domain = &full; }));
       },
       {Status::kSuccess, {}, "", std::vector<std::string>{"device-b"}}},
      {"registration: an expired session erases the doomed sessions",
       [&] {
         return decide_twice(registration("older", Bytes(14, 0xCC)),
                             view(no_edit));
       },
       {Status::kSessionExpired, {"older", "stale"}, "", std::nullopt}},
      {"registration: a session never opened",
       [&] {
         return decide_twice(registration("nope", Bytes(14, 0xAA)),
                             view(no_edit));
       },
       {Status::kSessionExpired, {"older", "stale"}, "", std::nullopt}},
      {"registration: a nonce mismatch does not consume the session",
       [&] {
         return decide_twice(registration("live", Bytes(14, 0xAB)),
                             view(no_edit));
       },
       {Status::kAbort, {}, "", std::nullopt}},
      {"registration: success consumes the session and admits the device",
       [&] {
         return decide_twice(registration("live", Bytes(14, 0xAA)),
                             view(no_edit));
       },
       {Status::kSuccess, {"older", "stale", "live"}, "device-a",
        std::nullopt}},
      {"registration: a refused signature still consumes the session",
       [&] {
         return decide_twice(
             registration("live", Bytes(14, 0xAA)),
             view([](View& v) { v.auth = Status::kSignatureInvalid; }));
       },
       {Status::kSignatureInvalid, {"older", "stale", "live"}, "",
        std::nullopt}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.decide(), c.want);
  }
}

TEST(RiDecide, HelloOpensOneSessionAndSupersedesTheDevicesOthers) {
  const ri::Sessions sessions = pending();
  View view;
  view.ri_id = "ri.example";
  view.now = kNow;
  view.sessions = &sessions;
  view.session_number = 42;
  view.nonce = Bytes(14, 0x5A);
  roap::DeviceHello hello;
  hello.device_id = "device-a";

  const Decision<roap::RiHello> d = ri::decide(hello, view);
  EXPECT_EQ(d.response.status, Status::kSuccess);
  EXPECT_EQ(d.response.ri_id, "ri.example");
  EXPECT_EQ(d.response.session_id, "ri.example-session-42");
  EXPECT_EQ(d.response.ri_nonce, view.nonce);
  // device-a's live session is superseded; both expired ones go too.
  EXPECT_EQ(d.delta.erased_sessions,
            (std::vector<std::string>{"live", "older", "stale"}));
  ASSERT_TRUE(d.delta.opened_session.has_value());
  EXPECT_EQ(d.delta.opened_session->first, "ri.example-session-42");
  EXPECT_EQ(d.delta.opened_session->second.ri_nonce, view.nonce);
  EXPECT_EQ(d.delta.opened_session->second.device_id, "device-a");
  EXPECT_EQ(d.delta.opened_session->second.created_at, kNow);
  EXPECT_EQ(d.delta.session_number, 42u);
}

TEST(RiDecide, RefusalsCarryOnlyTheResponseHeader) {
  // The same header a kStoreFailure refusal is built from.
  View view;
  view.ri_id = "ri.example";
  view.ri_url = "http://ri.example/roap";
  view.auth = Status::kSignatureInvalid;
  roap::JoinDomainRequest join = from_device_a<roap::JoinDomainRequest>("d");
  join.device_nonce = Bytes(14, 0x01);

  const Decision<roap::JoinDomainResponse> d = ri::decide(join, view);
  roap::JoinDomainResponse want = ri::header(join, view);
  want.status = Status::kSignatureInvalid;
  EXPECT_EQ(d.response, want);
  EXPECT_EQ(want.domain_id, "d");
  EXPECT_EQ(want.device_nonce, join.device_nonce);
  EXPECT_FALSE(d.delta.domain.has_value());
}

}  // namespace
}  // namespace omadrm
