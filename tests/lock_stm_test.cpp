// Lock-family specifics: TL's encounter-time two-phase locking, TL2's
// global-clock validation and read-only fast path, Coarse's undo rollback —
// the behaviours that make them the paper's comparison class.
#include <gtest/gtest.h>

#include <memory>

#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "lock/versioned_lock.hpp"

namespace oftm::lock {
namespace {

TEST(LockWord, PackUnpackRoundTrip) {
  for (std::uint64_t version : {0ull, 1ull, 12345ull, (1ull << 62) - 1}) {
    for (bool locked : {false, true}) {
      const std::uint64_t w = LockWord::pack(version, locked);
      EXPECT_EQ(LockWord::version(w), version);
      EXPECT_EQ(LockWord::locked(w), locked);
    }
  }
}

TEST(Tl, EncounterLockBlocksSecondWriter) {
  HwTl tm(8, TlOptions{/*patience=*/4});
  auto t1 = tm.begin();
  ASSERT_TRUE(tm.write(*t1, 0, 11));  // t1 holds the encounter lock on 0

  auto t2 = tm.begin();
  // t2 spins out its patience and self-aborts: 2PL locks are irrevocable.
  EXPECT_FALSE(tm.write(*t2, 0, 22));
  EXPECT_EQ(t2->status(), core::TxStatus::kAborted);

  ASSERT_TRUE(tm.try_commit(*t1));
  EXPECT_EQ(tm.read_quiescent(0), 11u);

  auto t3 = tm.begin();
  ASSERT_TRUE(tm.write(*t3, 0, 33));  // lock released by t1's commit
  ASSERT_TRUE(tm.try_commit(*t3));
}

TEST(Tl, AbortReleasesEncounterLocks) {
  HwTl tm(8, TlOptions{4});
  auto t1 = tm.begin();
  ASSERT_TRUE(tm.write(*t1, 0, 11));
  tm.try_abort(*t1);
  auto t2 = tm.begin();
  ASSERT_TRUE(tm.write(*t2, 0, 22));  // lock free again, value rolled back
  ASSERT_TRUE(tm.try_commit(*t2));
  EXPECT_EQ(tm.read_quiescent(0), 22u);
}

TEST(Tl, AbandonedHandleReleasesLocks) {
  HwTl tm(8, TlOptions{4});
  {
    auto t1 = tm.begin();
    ASSERT_TRUE(tm.write(*t1, 0, 11));
    // dropped: destructor must roll back and unlock
  }
  auto t2 = tm.begin();
  ASSERT_TRUE(tm.write(*t2, 0, 22));
  ASSERT_TRUE(tm.try_commit(*t2));
}

TEST(Tl, ReaderSeesNoLockedIntermediateState) {
  HwTl tm(8, TlOptions{2});
  auto writer = tm.begin();
  ASSERT_TRUE(tm.write(*writer, 0, 50));  // locked, value NOT yet published
  auto reader = tm.begin();
  // Write-back design: the reader cannot read x while locked (self-aborts
  // after patience) — but it can never see the unpublished 50.
  const auto v = tm.read(*reader, 0);
  EXPECT_FALSE(v.has_value());
  ASSERT_TRUE(tm.try_commit(*writer));
  auto reader2 = tm.begin();
  EXPECT_EQ(tm.read(*reader2, 0).value(), 50u);
}

TEST(Tl, VersionBumpInvalidatesConcurrentReader) {
  HwTl tm(8, TlOptions{4});
  auto reader = tm.begin();
  EXPECT_EQ(tm.read(*reader, 0).value(), 0u);
  {
    auto writer = tm.begin();
    ASSERT_TRUE(tm.write(*writer, 0, 9));
    ASSERT_TRUE(tm.try_commit(*writer));
  }
  EXPECT_FALSE(tm.read(*reader, 1).has_value());  // revalidation fails
}

// TL2 is written once over two metadata layouts, and its protocol tests
// run on both: boxed t-variables (Tl2.*) and region words under stripe
// locks (Tl2Region.*).
template <typename Tm>
void read_only_fast_path_commits_without_locks() {
  Tm tm(8);
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 1));
    ASSERT_TRUE(tm.try_commit(*w));
  }
  auto r = tm.begin();
  EXPECT_EQ(tm.read(*r, 0).value(), 1u);
  EXPECT_EQ(tm.read(*r, 1).value(), 0u);
  EXPECT_TRUE(tm.try_commit(*r));
  // No writes: the commit must not have bumped any version.
  auto r2 = tm.begin();
  EXPECT_EQ(tm.read(*r2, 0).value(), 1u);
  EXPECT_TRUE(tm.try_commit(*r2));
}

TEST(Tl2, ReadOnlyFastPathCommitsWithoutLocks) {
  read_only_fast_path_commits_without_locks<HwTl2>();
}

TEST(Tl2Region, ReadOnlyFastPathCommitsWithoutLocks) {
  read_only_fast_path_commits_without_locks<Tl2Region>();
}

template <typename Tm>
void stale_read_version_aborts() {
  Tm tm(8);
  auto old_txn = tm.begin();  // rv captured now
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 42));
    ASSERT_TRUE(tm.try_commit(*w));  // version of x now exceeds old rv
  }
  EXPECT_FALSE(tm.read(*old_txn, 0).has_value());
  EXPECT_EQ(old_txn->status(), core::TxStatus::kAborted);
}

TEST(Tl2, StaleReadVersionAborts) {
  stale_read_version_aborts<HwTl2>();
}

TEST(Tl2Region, StaleReadVersionAborts) {
  stale_read_version_aborts<Tl2Region>();
}

template <typename Tm>
void write_set_locked_in_canonical_order() {
  // Two transactions with reversed write orders must not deadlock (commit
  // locks are taken in lock-index order); sequential here, stress covers
  // the concurrent case.
  Tm tm(8);
  auto t1 = tm.begin();
  ASSERT_TRUE(tm.write(*t1, 3, 1));
  ASSERT_TRUE(tm.write(*t1, 1, 2));
  ASSERT_TRUE(tm.try_commit(*t1));
  auto t2 = tm.begin();
  ASSERT_TRUE(tm.write(*t2, 1, 3));
  ASSERT_TRUE(tm.write(*t2, 3, 4));
  ASSERT_TRUE(tm.try_commit(*t2));
  EXPECT_EQ(tm.read_quiescent(1), 3u);
  EXPECT_EQ(tm.read_quiescent(3), 4u);
}

TEST(Tl2, WriteSetLockedInCanonicalOrder) {
  write_set_locked_in_canonical_order<HwTl2>();
}

TEST(Tl2Region, WriteSetLockedInCanonicalOrder) {
  write_set_locked_in_canonical_order<Tl2Region>();
}

template <typename Tm>
void commit_validates_read_set() {
  Tm tm(8);
  auto txn = tm.begin();
  EXPECT_EQ(tm.read(*txn, 0).value(), 0u);
  ASSERT_TRUE(tm.write(*txn, 1, 5));
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 7));
    ASSERT_TRUE(tm.try_commit(*w));
  }
  EXPECT_FALSE(tm.try_commit(*txn));  // read of x is stale
  EXPECT_EQ(tm.read_quiescent(1), 0u);
}

TEST(Tl2, CommitValidatesReadSet) {
  commit_validates_read_set<HwTl2>();
}

TEST(Tl2Region, CommitValidatesReadSet) {
  commit_validates_read_set<Tl2Region>();
}

TEST(Tl2, RvExtensionRescuesStaleReader) {
  Tl2Options options;
  options.rv_extension = true;
  HwTl2 tm(8, options);
  EXPECT_EQ(tm.name(), "tl2+ext");
  auto old_txn = tm.begin();  // rv captured now
  EXPECT_EQ(tm.read(*old_txn, 1).value(), 0u);  // touch an unrelated var
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 42));
    ASSERT_TRUE(tm.try_commit(*w));  // clock moves past old rv
  }
  // Base TL2 would abort here (version of x exceeds rv); with extension the
  // read set (just x1, untouched) revalidates and rv advances.
  EXPECT_EQ(tm.read(*old_txn, 0).value(), 42u);
  EXPECT_TRUE(tm.try_commit(*old_txn));
}

TEST(Tl2, RvExtensionRefusesInvalidSnapshot) {
  Tl2Options options;
  options.rv_extension = true;
  HwTl2 tm(8, options);
  auto old_txn = tm.begin();
  EXPECT_EQ(tm.read(*old_txn, 0).value(), 0u);  // will be overwritten
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 7));
    ASSERT_TRUE(tm.write(*w, 1, 8));
    ASSERT_TRUE(tm.try_commit(*w));
  }
  // Extension must fail: x0 itself changed, the snapshot is genuinely
  // stale, and reading x1 = 8 next to x0 = 0 would be inconsistent.
  EXPECT_FALSE(tm.read(*old_txn, 1).has_value());
  EXPECT_EQ(old_txn->status(), core::TxStatus::kAborted);
}

TEST(Coarse, UndoLogRollsBackInPlaceWrites) {
  HwCoarse tm(8);
  {
    auto setup = tm.begin();
    ASSERT_TRUE(tm.write(*setup, 0, 1));
    ASSERT_TRUE(tm.write(*setup, 1, 2));
    ASSERT_TRUE(tm.try_commit(*setup));
  }
  auto txn = tm.begin();
  ASSERT_TRUE(tm.write(*txn, 0, 100));
  ASSERT_TRUE(tm.write(*txn, 1, 200));
  ASSERT_TRUE(tm.write(*txn, 0, 300));  // double write: undo in order
  tm.try_abort(*txn);
  EXPECT_EQ(tm.read_quiescent(0), 1u);
  EXPECT_EQ(tm.read_quiescent(1), 2u);
}

TEST(Coarse, AbandonedHandleReleasesGlobalLock) {
  HwCoarse tm(8);
  {
    auto txn = tm.begin();
    ASSERT_TRUE(tm.write(*txn, 0, 5));
    // dropped while holding the global lock
  }
  auto txn = tm.begin();  // would deadlock if the lock leaked
  EXPECT_TRUE(tm.try_commit(*txn));
}

}  // namespace
}  // namespace oftm::lock
