// Rights Expression Language (REL) subset.
//
// OMA DRM 2 expresses licenses as XML <rights> documents listing, per
// protected asset, the granted permissions (play, display, execute, print,
// export) and their constraints (count, datetime window, interval from
// first use, accumulated metered time). This module models the documents
// (XML round-trip) and their runtime enforcement; the key material that
// accompanies them lives in the ROAP ProtectedRo structure, mirroring the
// standard's separation between rights and key transport.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::rel {

enum class PermissionType : std::uint8_t {
  kPlay,
  kDisplay,
  kExecute,
  kPrint,
  kExport,
};

const char* to_string(PermissionType p);
std::optional<PermissionType> permission_from_string(std::string_view s);

/// Constraints attached to one permission. Absent optional = unconstrained
/// in that dimension.
///
/// Boundary semantics (audited and pinned by boundary-value tests in
/// tests/test_rel.cpp; see RightsEnforcer::check_and_consume):
///   not_before / not_after   inclusive instants — now == not_before and
///                            now == not_after both grant; the first
///                            kNotYetValid instant is not_before - 1 and
///                            the first kExpired instant not_after + 1.
///   interval_secs            window [first_use, first_use +
///                            interval_secs], inclusive at both ends.
///   accumulated_secs         a hard budget: a playback that would spend
///                            past it is denied, one that lands exactly
///                            on it grants.
struct Constraint {
  std::optional<std::uint32_t> count;             // total allowed uses
  std::optional<std::uint64_t> not_before;        // unix seconds
  std::optional<std::uint64_t> not_after;         // unix seconds
  std::optional<std::uint64_t> interval_secs;     // window from first use
  std::optional<std::uint64_t> accumulated_secs;  // total metered playtime

  bool is_unconstrained() const {
    return !count && !not_before && !not_after && !interval_secs &&
           !accumulated_secs;
  }

  /// Streams `<o-dd:constraint>` into `w` (wire path, allocation-free).
  void write(xml::Writer& w) const;
  static Constraint from_node(const xml::Node& e);

  bool operator==(const Constraint&) const = default;
};

struct Permission {
  PermissionType type = PermissionType::kPlay;
  Constraint constraint;

  void write(xml::Writer& w) const;
  static Permission from_node(const xml::Node& e);

  bool operator==(const Permission&) const = default;
};

/// The <rights> document body: which content, which permissions, plus the
/// DCF hash that binds the license to the exact content bytes (the paper's
/// "hash value of the DCF is included in the Rights Object").
struct Rights {
  std::string ro_id;
  std::string content_id;
  Bytes dcf_hash;  // SHA-1 of the serialized DCF
  std::vector<Permission> permissions;

  const Permission* find(PermissionType type) const;

  /// Streams the `<o-ex:rights>` document into `w`.
  void write(xml::Writer& w) const;
  static Rights from_node(const xml::Node& e);
  std::string serialize() const;
  static Rights parse(const std::string& doc);

  bool operator==(const Rights&) const = default;
};

/// Why an access attempt was granted or denied.
enum class Decision : std::uint8_t {
  kGranted,
  kNoSuchPermission,
  kCountExhausted,
  kNotYetValid,
  kExpired,
  kIntervalElapsed,
  kAccumulatedExhausted,
};

const char* to_string(Decision d);

/// Stateful constraint enforcement for one installed Rights Object.
///
/// The DRM Agent owns one enforcer per installed RO; each successful
/// check_and_consume() burns the stateful budgets (count, accumulated
/// time) and pins the interval anchor on first use.
class RightsEnforcer {
 public:
  explicit RightsEnforcer(Rights rights);

  const Rights& rights() const { return rights_; }

  /// Evaluates `type` at time `now`; `duration_secs` is the playback time
  /// charged against accumulated-time constraints. On kGranted the use is
  /// consumed; on any denial no state changes.
  Decision check_and_consume(PermissionType type, std::uint64_t now,
                             std::uint64_t duration_secs = 0);

  /// Uses left for a count-constrained permission (nullopt = unlimited).
  std::optional<std::uint32_t> remaining_count(PermissionType type) const;

  /// Per-permission consumption state, exposed so the DRM Agent can
  /// persist installed Rights Objects across restarts (the standard
  /// leaves storage to the CA's robustness rules; we model a secure
  /// serializable blob).
  struct State {
    std::uint32_t used = 0;
    std::optional<std::uint64_t> first_use;
    std::uint64_t accumulated = 0;

    bool operator==(const State&) const = default;
  };

  State state(PermissionType type) const {
    return state_[static_cast<std::size_t>(type)];
  }
  void restore_state(PermissionType type, const State& s) {
    state_[static_cast<std::size_t>(type)] = s;
  }

 private:
  Rights rights_;
  State state_[5];  // indexed by PermissionType
};

}  // namespace omadrm::rel
