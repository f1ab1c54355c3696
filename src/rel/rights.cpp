#include "rel/rights.h"

#include "common/base64.h"
#include "common/error.h"

namespace omadrm::rel {

using omadrm::Error;
using omadrm::ErrorKind;

const char* to_string(PermissionType p) {
  switch (p) {
    case PermissionType::kPlay: return "play";
    case PermissionType::kDisplay: return "display";
    case PermissionType::kExecute: return "execute";
    case PermissionType::kPrint: return "print";
    case PermissionType::kExport: return "export";
  }
  return "?";
}

std::optional<PermissionType> permission_from_string(std::string_view s) {
  if (s == "play") return PermissionType::kPlay;
  if (s == "display") return PermissionType::kDisplay;
  if (s == "execute") return PermissionType::kExecute;
  if (s == "print") return PermissionType::kPrint;
  if (s == "export") return PermissionType::kExport;
  return std::nullopt;
}

const char* to_string(Decision d) {
  switch (d) {
    case Decision::kGranted: return "granted";
    case Decision::kNoSuchPermission: return "no-such-permission";
    case Decision::kCountExhausted: return "count-exhausted";
    case Decision::kNotYetValid: return "not-yet-valid";
    case Decision::kExpired: return "expired";
    case Decision::kIntervalElapsed: return "interval-elapsed";
    case Decision::kAccumulatedExhausted: return "accumulated-exhausted";
  }
  return "?";
}

namespace {

std::uint64_t parse_u64(std::string_view s) {
  // Strict decimal with overflow rejection: an attacker-sized budget
  // like 99999999999999999999999 must be refused, not silently wrapped
  // modulo 2^64 into a small one.
  std::optional<std::uint64_t> v = parse_u64_dec(s);
  if (!v) {
    throw Error(ErrorKind::kFormat,
                "rel: invalid or overflowing number '" + std::string(s) +
                    "'");
  }
  return *v;
}

}  // namespace

void Constraint::write(xml::Writer& w) const {
  w.open("o-dd:constraint");
  if (count) w.u64_element("o-dd:count", *count);
  if (not_before || not_after) {
    w.open("o-dd:datetime");
    if (not_before) w.u64_element("o-dd:start", *not_before);
    if (not_after) w.u64_element("o-dd:end", *not_after);
    w.close();
  }
  if (interval_secs) w.u64_element("o-dd:interval", *interval_secs);
  if (accumulated_secs) w.u64_element("o-dd:accumulated", *accumulated_secs);
  w.close();
}

Constraint Constraint::from_node(const xml::Node& e) {
  Constraint c;
  if (const auto* n = e.child("o-dd:count")) {
    std::uint64_t v = parse_u64(n->text());
    if (v > 0xffffffffull) {
      throw Error(ErrorKind::kFormat, "rel: count too large");
    }
    c.count = static_cast<std::uint32_t>(v);
  }
  if (const auto* dt = e.child("o-dd:datetime")) {
    if (const auto* s = dt->child("o-dd:start")) {
      c.not_before = parse_u64(s->text());
    }
    if (const auto* en = dt->child("o-dd:end")) {
      c.not_after = parse_u64(en->text());
    }
  }
  if (const auto* iv = e.child("o-dd:interval")) {
    c.interval_secs = parse_u64(iv->text());
  }
  if (const auto* ac = e.child("o-dd:accumulated")) {
    c.accumulated_secs = parse_u64(ac->text());
  }
  return c;
}

void Permission::write(xml::Writer& w) const {
  // Permission element names are "o-dd:" + the permission keyword; emit
  // the two pieces without building the concatenation.
  char name[16] = "o-dd:";
  const char* kind = to_string(type);
  std::size_t n = 5;
  for (const char* p = kind; *p && n + 1 < sizeof name; ++p) name[n++] = *p;
  w.open(std::string_view(name, n));
  if (!constraint.is_unconstrained()) {
    constraint.write(w);
  }
  w.close();
}

Permission Permission::from_node(const xml::Node& e) {
  std::string_view name = e.name();
  constexpr std::string_view kPrefix = "o-dd:";
  if (name.substr(0, kPrefix.size()) == kPrefix) {
    name = name.substr(kPrefix.size());
  }
  auto type = permission_from_string(name);
  if (!type) {
    throw Error(ErrorKind::kFormat,
                "rel: unknown permission '" + std::string(name) + "'");
  }
  Permission p;
  p.type = *type;
  if (const auto* c = e.child("o-dd:constraint")) {
    p.constraint = Constraint::from_node(*c);
  }
  return p;
}

const Permission* Rights::find(PermissionType type) const {
  for (const auto& p : permissions) {
    if (p.type == type) return &p;
  }
  return nullptr;
}

void Rights::write(xml::Writer& w) const {
  w.open("o-ex:rights");
  w.attr("o-ex:id", ro_id);
  w.open("o-ex:agreement");
  w.open("o-ex:asset");
  w.text_element("o-ex:context", content_id);
  w.b64_element("ds:DigestValue", dcf_hash);
  w.close();  // o-ex:asset
  w.open("o-ex:permission");
  for (const auto& p : permissions) {
    p.write(w);
  }
  w.close();  // o-ex:permission
  w.close();  // o-ex:agreement
  w.close();  // o-ex:rights
}

std::string Rights::serialize() const {
  std::string out;
  xml::Writer w(out);
  write(w);
  return out;
}

Rights Rights::from_node(const xml::Node& e) {
  if (e.name() != "o-ex:rights") {
    throw Error(ErrorKind::kFormat, "rel: root must be <o-ex:rights>");
  }
  Rights r;
  r.ro_id = e.require_attr("o-ex:id");
  const xml::Node& agreement = e.require_child("o-ex:agreement");
  const xml::Node& asset = agreement.require_child("o-ex:asset");
  r.content_id = asset.child_text("o-ex:context");
  r.dcf_hash = base64_decode(asset.child_text("ds:DigestValue"));
  const xml::Node& perms = agreement.require_child("o-ex:permission");
  for (const xml::Node& p : perms.children()) {
    r.permissions.push_back(Permission::from_node(p));
  }
  return r;
}

Rights Rights::parse(const std::string& doc) {
  xml::Arena arena;
  return from_node(xml::parse_in(arena, doc));
}

RightsEnforcer::RightsEnforcer(Rights rights) : rights_(std::move(rights)) {}

Decision RightsEnforcer::check_and_consume(PermissionType type,
                                           std::uint64_t now,
                                           std::uint64_t duration_secs) {
  const Permission* perm = rights_.find(type);
  if (!perm) return Decision::kNoSuchPermission;
  State& st = state_[static_cast<std::size_t>(type)];
  const Constraint& c = perm->constraint;

  // Datetime-window boundaries are inclusive on both ends, matching the
  // ODRL semantics OMA REL profiles (<o-dd:start>/<o-dd:end> name the
  // first and last valid instants): now == not_before and now ==
  // not_after both grant. The interval window is likewise inclusive at
  // its end: the access at exactly first_use + interval_secs still
  // grants, the next second does not. Pinned by the boundary-value tests
  // in tests/test_rel.cpp — change those deliberately or not at all.
  if (c.not_before && now < *c.not_before) return Decision::kNotYetValid;
  if (c.not_after && now > *c.not_after) return Decision::kExpired;
  // Compare as elapsed-vs-budget, not now-vs-(anchor + budget): a huge
  // <o-dd:interval> must behave as unlimited, not wrap modulo 2^64 into
  // an already-elapsed window.
  if (c.interval_secs && st.first_use && now > *st.first_use &&
      now - *st.first_use > *c.interval_secs) {
    return Decision::kIntervalElapsed;
  }
  if (c.count && st.used >= *c.count) return Decision::kCountExhausted;
  if (c.accumulated_secs) {
    // Subtractive form: spent + duration must not wrap past the budget
    // (a 2^64-scale duration_secs would otherwise overflow into a grant).
    const std::uint64_t budget = *c.accumulated_secs;
    if (st.accumulated > budget || duration_secs > budget - st.accumulated) {
      return Decision::kAccumulatedExhausted;
    }
  }

  // Grant: consume budgets.
  ++st.used;
  if (!st.first_use) st.first_use = now;
  st.accumulated += duration_secs;
  return Decision::kGranted;
}

std::optional<std::uint32_t> RightsEnforcer::remaining_count(
    PermissionType type) const {
  const Permission* perm = rights_.find(type);
  if (!perm || !perm->constraint.count) return std::nullopt;
  const State& st = state_[static_cast<std::size_t>(type)];
  std::uint32_t total = *perm->constraint.count;
  return st.used >= total ? 0 : total - st.used;
}

}  // namespace omadrm::rel
