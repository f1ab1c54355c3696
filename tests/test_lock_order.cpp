// Death tests for the runtime lock-order validator
// (common/ordered_mutex.{h,cpp}).
//
// These use CheckedOrderedMutex — the always-validated instantiation —
// so they pin the validator's behavior in EVERY build flavor, including
// Release where the production OrderedMutex alias compiles the checks
// out. Each death test asserts on the rank pair in the abort message,
// so reordering an acquisition (or weakening the validator) fails here
// rather than deadlocking some future soak run.
//
// The positive tests also pin the corrected global order:
// ISSUE 10's prose put store(3) before meta(4), but on_device_hello
// holds meta_mu_ across StateStore::persist() — the real order is
// shard < stripe < meta < store.front < store.backing, and that is what
// LockRank encodes. See the rank table in common/ordered_mutex.h.

#include <gtest/gtest.h>

#include "common/ordered_mutex.h"

namespace omadrm {
namespace {

using common_test_rank = LockRank;

TEST(LockOrderDeath, StripeBeforeShardIsRankInversion) {
  CheckedOrderedMutex stripe{LockRank::kRiDomainStripe, "test.stripe"};
  CheckedOrderedMutex shard{LockRank::kRiShard, "test.shard"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(stripe);
        CheckedMutexLock inner(shard);  // rank 10 under rank 20: boom
      },
      "lock-order violation \\(rank inversion\\): acquiring \"test\\.shard\" "
      "\\(rank 10\\) while already holding \"test\\.stripe\" \\(rank 20\\)");
}

TEST(LockOrderDeath, StoreBeforeStripeIsRankInversion) {
  CheckedOrderedMutex store{LockRank::kStoreBacking, "test.store"};
  CheckedOrderedMutex stripe{LockRank::kRiDomainStripe, "test.stripe"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(store);
        CheckedMutexLock inner(stripe);
      },
      "rank inversion.*\"test\\.stripe\" \\(rank 20\\) while already "
      "holding \"test\\.store\" \\(rank 50\\)");
}

TEST(LockOrderDeath, TwoOfAKindSameRankDistinctMutexes) {
  // Two device shards at once would deadlock against a thread locking
  // them in the opposite order — same-rank nesting is banned outright.
  CheckedOrderedMutex a{LockRank::kRiShard, "test.shard_a"};
  CheckedOrderedMutex b{LockRank::kRiShard, "test.shard_b"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(a);
        CheckedMutexLock inner(b);
      },
      "lock-order violation \\(two of a kind\\).*\"test\\.shard_b\" "
      "\\(rank 10\\) while already holding \"test\\.shard_a\" \\(rank 10\\)");
}

TEST(LockOrderDeath, RecursiveAcquisitionAborts) {
  CheckedOrderedMutex mu{LockRank::kRng, "test.rng"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(mu);
        mu.lock();  // self-deadlock on a non-recursive mutex
      },
      "lock-order violation \\(recursive acquisition\\)");
}

TEST(LockOrderDeath, TryLockIsValidatedToo) {
  // try_lock on a fresh mutex SUCCEEDS, so the deadlock the validator
  // exists for can't happen here — but a successful try_lock still
  // enters the held set out of order, poisoning every later check. The
  // validator treats it exactly like lock().
  CheckedOrderedMutex meta{LockRank::kRiMeta, "test.meta"};
  CheckedOrderedMutex shard{LockRank::kRiShard, "test.shard"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(meta);
        (void)shard.try_lock();
      },
      "rank inversion.*\"test\\.shard\" \\(rank 10\\) while already "
      "holding \"test\\.meta\" \\(rank 30\\)");
}

TEST(LockOrderDeath, AssertHeldOnUnheldMutexAborts) {
  CheckedOrderedMutex mu{LockRank::kNetJobs, "test.jobs"};
  EXPECT_DEATH(mu.assert_held(),
               "assert_held\\(\"test\\.jobs\"\\) failed");
}

TEST(LockOrderDeath, AbortMessageCarriesBothBacktraces) {
  CheckedOrderedMutex outer_mu{LockRank::kStoreFront, "test.front"};
  CheckedOrderedMutex inner_mu{LockRank::kRiShard, "test.shard"};
  EXPECT_DEATH(
      {
        CheckedMutexLock outer(outer_mu);
        CheckedMutexLock inner(inner_mu);
      },
      "held lock \"test\\.front\" was acquired at:(.|\n)*offending "
      "acquisition of \"test\\.shard\" at:");
}

// ---- positive cases: the canonical order must stay silent -------------

TEST(LockOrder, FullCanonicalChainNests) {
  // shard < stripe < meta < store.front < store.backing < verdict <
  // authority < rng < net ranks < failpoint: one nested walk through
  // every rank in the table must not trip the validator.
  CheckedOrderedMutex shard{LockRank::kRiShard, "t.shard"};
  CheckedOrderedMutex stripe{LockRank::kRiDomainStripe, "t.stripe"};
  CheckedOrderedMutex meta{LockRank::kRiMeta, "t.meta"};
  CheckedOrderedMutex front{LockRank::kStoreFront, "t.front"};
  CheckedOrderedMutex backing{LockRank::kStoreBacking, "t.backing"};
  CheckedOrderedMutex verdict{LockRank::kChainVerdict, "t.verdict"};
  CheckedOrderedMutex authority{LockRank::kPkiAuthority, "t.authority"};
  CheckedOrderedMutex rng{LockRank::kRng, "t.rng"};
  CheckedOrderedMutex stop{LockRank::kNetStop, "t.stop"};
  CheckedOrderedMutex conns{LockRank::kNetConns, "t.conns"};
  CheckedOrderedMutex conn{LockRank::kNetConn, "t.conn"};
  CheckedOrderedMutex jobs{LockRank::kNetJobs, "t.jobs"};
  CheckedOrderedMutex replies{LockRank::kNetReplies, "t.replies"};
  CheckedOrderedMutex fp{LockRank::kFailpoint, "t.failpoint"};
  {
    CheckedMutexLock l1(shard);
    CheckedMutexLock l2(stripe);
    CheckedMutexLock l3(meta);  // meta BEFORE store: the corrected order
    CheckedMutexLock l4(front);
    CheckedMutexLock l5(backing);
    CheckedMutexLock l6(verdict);
    CheckedMutexLock l6a(authority);
    CheckedMutexLock l7(rng);
    CheckedMutexLock l8(stop);
    CheckedMutexLock l9(conns);
    CheckedMutexLock l10(conn);
    CheckedMutexLock l11(jobs);
    CheckedMutexLock l12(replies);
    CheckedMutexLock l13(fp);
    fp.assert_held();
    shard.assert_held();
  }
  // All released; a fresh acquisition of the lowest rank must be clean.
  CheckedMutexLock again(shard);
}

TEST(LockOrder, MidStackReleaseKeepsValidatorConsistent) {
  // on_device_hello's pattern: take meta, drop it mid-scope, go on to
  // the store. The held stack must support releasing from the middle.
  CheckedOrderedMutex shard{LockRank::kRiShard, "t.shard"};
  CheckedOrderedMutex meta{LockRank::kRiMeta, "t.meta"};
  CheckedOrderedMutex backing{LockRank::kStoreBacking, "t.backing"};
  CheckedMutexLock l1(shard);
  meta.lock();
  meta.unlock();  // mid-stack for what follows
  CheckedMutexLock l3(backing);
  backing.assert_held();
  shard.assert_held();
}

TEST(LockOrder, SequentialSameRankIsFine) {
  // The cross-shard TTL sweep: one shard at a time, never two at once.
  CheckedOrderedMutex a{LockRank::kRiShard, "t.shard_a"};
  CheckedOrderedMutex b{LockRank::kRiShard, "t.shard_b"};
  { CheckedMutexLock la(a); }
  { CheckedMutexLock lb(b); }
  { CheckedMutexLock la(a); }
}

TEST(LockOrder, SuccessfulTryLockTracksAsHeld) {
  CheckedOrderedMutex mu{LockRank::kNetConn, "t.conn"};
  ASSERT_TRUE(mu.try_lock());
  mu.assert_held();
  mu.unlock();
}

}  // namespace
}  // namespace omadrm
