// Tests for the Rights Expression Language model and its enforcement.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hex.h"
#include "rel/rights.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::rel {
namespace {

using omadrm::Error;

// Writer -> parse_in -> from_node, the path a constraint takes inside a
// serialized Rights Object.
Constraint round_trip(const Constraint& c) {
  std::string wire;
  xml::Writer w(wire);
  c.write(w);
  xml::Arena arena;
  return Constraint::from_node(xml::parse_in(arena, wire));
}

Rights sample_rights() {
  Rights r;
  r.ro_id = "ro:sample";
  r.content_id = "cid:track@example";
  r.dcf_hash = from_hex("0102030405060708090a0b0c0d0e0f1011121314");
  Permission play;
  play.type = PermissionType::kPlay;
  play.constraint.count = 5;
  Permission display;
  display.type = PermissionType::kDisplay;
  r.permissions = {play, display};
  return r;
}

TEST(PermissionNames, RoundTrip) {
  for (auto p : {PermissionType::kPlay, PermissionType::kDisplay,
                 PermissionType::kExecute, PermissionType::kPrint,
                 PermissionType::kExport}) {
    auto back = permission_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(permission_from_string("fly").has_value());
}

TEST(ConstraintXml, UnconstrainedIsEmpty) {
  Constraint c;
  EXPECT_TRUE(c.is_unconstrained());
  Constraint back = round_trip(c);
  EXPECT_EQ(back, c);
}

TEST(ConstraintXml, AllFieldsRoundTrip) {
  Constraint c;
  c.count = 7;
  c.not_before = 1000;
  c.not_after = 2000;
  c.interval_secs = 86400;
  c.accumulated_secs = 3600;
  EXPECT_FALSE(c.is_unconstrained());
  EXPECT_EQ(round_trip(c), c);
}

TEST(RightsXml, RoundTrip) {
  Rights r = sample_rights();
  Rights back = Rights::parse(r.serialize());
  EXPECT_EQ(back, r);
}

TEST(RightsXml, FindPermission) {
  Rights r = sample_rights();
  ASSERT_NE(r.find(PermissionType::kPlay), nullptr);
  EXPECT_EQ(r.find(PermissionType::kPlay)->constraint.count, 5u);
  EXPECT_EQ(r.find(PermissionType::kPrint), nullptr);
}

TEST(RightsXml, RejectsWrongRoot) {
  EXPECT_THROW(Rights::parse("<wrong/>"), Error);
}

TEST(RightsXml, RejectsUnknownPermission) {
  std::string doc =
      "<o-ex:rights o-ex:id=\"r\"><o-ex:agreement><o-ex:asset>"
      "<o-ex:context>cid:x</o-ex:context><ds:DigestValue></ds:DigestValue>"
      "</o-ex:asset><o-ex:permission><o-dd:teleport/></o-ex:permission>"
      "</o-ex:agreement></o-ex:rights>";
  EXPECT_THROW(Rights::parse(doc), Error);
}

// ---------------------------------------------------------------------------
// parse_u64 overflow (regression: a 2^64-wrapping value must be rejected,
// not accepted as a small budget)
// ---------------------------------------------------------------------------

std::string rights_doc_with_constraint(const std::string& constraint_xml) {
  return "<o-ex:rights o-ex:id=\"r\"><o-ex:agreement><o-ex:asset>"
         "<o-ex:context>cid:x</o-ex:context><ds:DigestValue></ds:DigestValue>"
         "</o-ex:asset><o-ex:permission><o-dd:play><o-dd:constraint>" +
         constraint_xml +
         "</o-dd:constraint></o-dd:play></o-ex:permission>"
         "</o-ex:agreement></o-ex:rights>";
}

TEST(ParseOverflow, WrappingCountRejected) {
  // 99999999999999999999999 mod 2^64 = 1529599999999754 — without the
  // overflow check this parses as a "small" (but huge) budget; worse,
  // values wrapping to tiny numbers silently shrink or inflate licenses.
  EXPECT_THROW(Rights::parse(rights_doc_with_constraint(
                   "<o-dd:count>99999999999999999999999</o-dd:count>")),
               Error);
}

TEST(ParseOverflow, WrappingIntervalAndAccumulatedRejected) {
  for (const char* field : {"o-dd:interval", "o-dd:accumulated"}) {
    std::string doc = rights_doc_with_constraint(
        std::string("<") + field + ">18446744073709551616</" + field + ">");
    EXPECT_THROW(Rights::parse(doc), Error) << field;
  }
  EXPECT_THROW(
      Rights::parse(rights_doc_with_constraint(
          "<o-dd:datetime><o-dd:start>340282366920938463463374607431768211456"
          "</o-dd:start></o-dd:datetime>")),
      Error);
}

TEST(ParseOverflow, ExactU64MaxStillParses) {
  // The overflow guard must not reject the largest representable value.
  Rights r = Rights::parse(rights_doc_with_constraint(
      "<o-dd:interval>18446744073709551615</o-dd:interval>"));
  EXPECT_EQ(*r.permissions[0].constraint.interval_secs,
            18446744073709551615ull);
}

TEST(ParseOverflow, CountAboveU32StillRejected) {
  EXPECT_THROW(Rights::parse(rights_doc_with_constraint(
                   "<o-dd:count>4294967296</o-dd:count>")),
               Error);
}

TEST(Enforcer, UnconstrainedAlwaysGrants) {
  Rights r = sample_rights();
  RightsEnforcer e(r);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(e.check_and_consume(PermissionType::kDisplay, 1000 + i),
              Decision::kGranted);
  }
  EXPECT_FALSE(e.remaining_count(PermissionType::kDisplay).has_value());
}

TEST(Enforcer, MissingPermissionDenied) {
  RightsEnforcer e(sample_rights());
  EXPECT_EQ(e.check_and_consume(PermissionType::kPrint, 0),
            Decision::kNoSuchPermission);
}

TEST(Enforcer, CountExhaustion) {
  RightsEnforcer e(sample_rights());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 100),
              Decision::kGranted)
        << "use " << i;
    EXPECT_EQ(*e.remaining_count(PermissionType::kPlay), 4u - i);
  }
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 100),
            Decision::kCountExhausted);
  EXPECT_EQ(*e.remaining_count(PermissionType::kPlay), 0u);
}

TEST(Enforcer, DatetimeWindow) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.not_before = 1000;
  r.permissions[0].constraint.not_after = 2000;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 999),
            Decision::kNotYetValid);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 1000),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2000),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2001),
            Decision::kExpired);
}

TEST(Enforcer, IntervalAnchorsAtFirstUse) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.interval_secs = 100;
  RightsEnforcer e(r);
  // Before first use the interval is not running.
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 5000),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 5100),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 5101),
            Decision::kIntervalElapsed);
}

// ---------------------------------------------------------------------------
// Boundary-value pinning for the datetime window and interval semantics
// (both ends inclusive — see the Constraint doc block in rel/rights.h).
// Changing any expectation here is a deliberate REL semantics change.
// ---------------------------------------------------------------------------

TEST(EnforcerBoundaries, NotBeforeIsInclusive) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.not_before = 1000;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 999),
            Decision::kNotYetValid);  // last invalid instant
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 1000),
            Decision::kGranted);      // first valid instant
}

TEST(EnforcerBoundaries, NotAfterIsInclusive) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.not_after = 2000;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2000),
            Decision::kGranted);      // last valid instant
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2001),
            Decision::kExpired);      // first expired instant
}

TEST(EnforcerBoundaries, ZeroWidthWindowGrantsExactlyAtTheInstant) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.not_before = 1500;
  r.permissions[0].constraint.not_after = 1500;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 1499),
            Decision::kNotYetValid);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 1500),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 1501),
            Decision::kExpired);
}

TEST(EnforcerBoundaries, IntervalEndIsInclusive) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.interval_secs = 100;
  RightsEnforcer e(r);
  ASSERT_EQ(e.check_and_consume(PermissionType::kPlay, 5000),
            Decision::kGranted);  // anchors first_use = 5000
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 5100),
            Decision::kGranted);  // exactly first_use + interval
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 5101),
            Decision::kIntervalElapsed);  // one second past
}

TEST(EnforcerBoundaries, HugeIntervalDoesNotWrapIntoElapsed) {
  // first_use + interval_secs would overflow 2^64; the subtractive form
  // must treat it as effectively unlimited instead.
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.interval_secs = ~std::uint64_t{0} - 5;
  RightsEnforcer e(r);
  ASSERT_EQ(e.check_and_consume(PermissionType::kPlay, 1000),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2000000000ull),
            Decision::kGranted);
}

TEST(EnforcerBoundaries, HugeDurationDoesNotWrapPastAccumulatedBudget) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.accumulated_secs = 600;
  RightsEnforcer e(r);
  ASSERT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 500),
            Decision::kGranted);
  // 500 + (2^64 - 100) wraps to 400 without the subtractive check.
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0,
                                ~std::uint64_t{0} - 100),
            Decision::kAccumulatedExhausted);
  // Budget intact after the denial.
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 100),
            Decision::kGranted);
}

TEST(Enforcer, AccumulatedTimeBudget) {
  Rights r = sample_rights();
  r.permissions[0].constraint = Constraint{};
  r.permissions[0].constraint.accumulated_secs = 600;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 300),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 300),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 1),
            Decision::kAccumulatedExhausted);
  // A shorter playback that still fits is fine (budget exactly spent).
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 0, 0),
            Decision::kGranted);
}

TEST(Enforcer, DenialDoesNotConsume) {
  Rights r = sample_rights();
  r.permissions[0].constraint.count = 2;
  r.permissions[0].constraint.not_after = 1000;
  RightsEnforcer e(r);
  // Expired attempts must not burn the count budget.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 2000),
              Decision::kExpired);
  }
  EXPECT_EQ(*e.remaining_count(PermissionType::kPlay), 2u);
  EXPECT_EQ(e.check_and_consume(PermissionType::kPlay, 500),
            Decision::kGranted);
}

TEST(Enforcer, IndependentPermissionBudgets) {
  Rights r = sample_rights();
  r.permissions[1].constraint.count = 1;
  RightsEnforcer e(r);
  EXPECT_EQ(e.check_and_consume(PermissionType::kDisplay, 0),
            Decision::kGranted);
  EXPECT_EQ(e.check_and_consume(PermissionType::kDisplay, 0),
            Decision::kCountExhausted);
  // Play budget untouched.
  EXPECT_EQ(*e.remaining_count(PermissionType::kPlay), 5u);
}

class CountSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CountSweep, ExactlyNGrants) {
  Rights r = sample_rights();
  r.permissions[0].constraint.count = GetParam();
  RightsEnforcer e(r);
  std::uint32_t grants = 0;
  for (std::uint32_t i = 0; i < GetParam() + 10; ++i) {
    if (e.check_and_consume(PermissionType::kPlay, i) == Decision::kGranted) {
      ++grants;
    }
  }
  EXPECT_EQ(grants, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Counts, CountSweep,
                         ::testing::Values(1, 2, 5, 25, 100));

}  // namespace
}  // namespace omadrm::rel
