// NOrec-specific semantics (src/norec/norec.hpp), beyond what the shared
// conformance suite already certifies:
//   * value-based validation admits the write-then-restore (ABA) history
//     that version-clock TMs (TL2) must reject;
//   * progressiveness — a transaction force-aborts only when a conflicting
//     write *committed* since its snapshot;
//   * livelock-freedom witness — a failed commit CAS implies another
//     transaction committed, and the loser still commits after
//     revalidation when the conflict is disjoint;
//   * write-set growth / write-back completeness and the Bloom ablation;
//   * stats plumbing for the NOrec event vocabulary.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/tm.hpp"
#include "lock/layout.hpp"
#include "norec/norec.hpp"
#include "tm_conformance.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

using core::TxnPtr;
using core::TxStatus;

class NorecTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::size_t kNumTVars = 512;

  void SetUp() override { tm_ = workload::make_tm(GetParam(), kNumTVars); }

  // One committed write outside the transaction under test.
  void commit_write(core::TVarId x, core::Value v) {
    TxnPtr txn = tm_->begin();
    ASSERT_TRUE(tm_->write(*txn, x, v));
    ASSERT_TRUE(tm_->try_commit(*txn));
  }

  std::unique_ptr<core::TransactionalMemory> tm_;
};

TEST_P(NorecTest, NameReflectsRecipe) {
  const std::map<std::string, std::string> expected = {
      {"norec", "norec"},
      {"norec-bloom", "norec+bloom"},
      {"norec-region", "norec-region"}};
  EXPECT_EQ(tm_->name(), expected.at(GetParam()));
}

TEST_P(NorecTest, SoloTransactionsNeverForceAbort) {
  // Progressiveness, solo case: with no concurrency there is no conflicting
  // commit, so no operation may ever return the abort event.
  tm_->reset_stats();
  for (int i = 0; i < 100; ++i) {
    TxnPtr txn = tm_->begin();
    for (core::TVarId x = 0; x < 8; ++x) {
      const auto v = tm_->read(*txn, x);
      ASSERT_TRUE(v.has_value());
      ASSERT_TRUE(tm_->write(*txn, x, *v + 1));
    }
    ASSERT_TRUE(tm_->try_commit(*txn));
  }
  EXPECT_EQ(tm_->stats().forced_aborts, 0u);
  EXPECT_EQ(tm_->read_quiescent(0), 100u);
}

TEST_P(NorecTest, ValueValidationAdmitsWriteThenRestore) {
  // The ABA case: reader sees x == 0; concurrent commits take x to 5 and
  // back to 0 before the reader validates again. The *values* the reader
  // saw still describe a consistent snapshot, so NOrec must keep going —
  // this is exactly where value-based validation is strictly more
  // permissive than a version clock.
  tm_->reset_stats();
  TxnPtr reader = tm_->begin();
  ASSERT_EQ(tm_->read(*reader, 0).value(), 0u);

  commit_write(0, 5);  // clock moves, value changes
  commit_write(0, 0);  // clock moves again, value restored

  // This read observes a moved clock and triggers full revalidation; the
  // restored value must pass it.
  ASSERT_TRUE(tm_->read(*reader, 1).has_value());
  ASSERT_TRUE(tm_->write(*reader, 1, 7));
  EXPECT_TRUE(tm_->try_commit(*reader));
  EXPECT_EQ(reader->status(), TxStatus::kCommitted);
  EXPECT_EQ(tm_->stats().forced_aborts, 0u);
  EXPECT_EQ(tm_->read_quiescent(1), 7u);
}

TEST_P(NorecTest, ConflictingCommitForcesReaderAbort) {
  // Progressiveness, conflict case: the only way NOrec force-aborts is a
  // conflicting commit since the snapshot — and then it must.
  tm_->reset_stats();
  TxnPtr reader = tm_->begin();
  ASSERT_EQ(tm_->read(*reader, 0).value(), 0u);

  commit_write(0, 9);  // conflicting: changes a value the reader saw

  EXPECT_FALSE(tm_->read(*reader, 1).has_value());
  EXPECT_EQ(reader->status(), TxStatus::kAborted);
  const auto s = tm_->stats();
  EXPECT_EQ(s.forced_aborts, 1u);
  EXPECT_EQ(s.aborts, 1u);
}

TEST_P(NorecTest, FailedCommitCasStillCommitsOnDisjointConflict) {
  // Livelock-freedom shape: writer W1 snapshots, then W2 commits a
  // *disjoint* write. W1's commit CAS fails (the global lock moved), but
  // revalidation succeeds and W1 must commit on retry, not abort — the
  // global sequence lock is a progress bottleneck, never a correctness
  // one for disjoint write sets.
  tm_->reset_stats();
  TxnPtr w1 = tm_->begin();
  ASSERT_EQ(tm_->read(*w1, 10).value(), 0u);
  ASSERT_TRUE(tm_->write(*w1, 10, 1));

  commit_write(20, 2);  // disjoint from w1's footprint

  EXPECT_TRUE(tm_->try_commit(*w1));
  const auto s = tm_->stats();
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.forced_aborts, 0u);
  EXPECT_GE(s.cm_backoffs, 1u);  // the failed CAS was counted
  EXPECT_EQ(tm_->read_quiescent(10), 1u);
  EXPECT_EQ(tm_->read_quiescent(20), 2u);
}

TEST_P(NorecTest, WriteSetGrowsAndWritesBackEverything) {
  // 300 distinct t-variables force several open-addressed table doublings;
  // read-your-own-writes must hold throughout and write-back must publish
  // every entry exactly once.
  constexpr core::TVarId kVars = 300;
  TxnPtr txn = tm_->begin();
  for (core::TVarId x = 0; x < kVars; ++x) {
    ASSERT_TRUE(tm_->write(*txn, x, x + 1000));
  }
  for (core::TVarId x = 0; x < kVars; ++x) {
    ASSERT_EQ(tm_->read(*txn, x).value(), x + 1000);
    ASSERT_TRUE(tm_->write(*txn, x, x + 2000));
    ASSERT_EQ(tm_->read(*txn, x).value(), x + 2000);
  }
  ASSERT_TRUE(tm_->try_commit(*txn));
  for (core::TVarId x = 0; x < kVars; ++x) {
    EXPECT_EQ(tm_->read_quiescent(x), x + 2000u);
  }
}

TEST_P(NorecTest, ReadOnlyTransactionsDoNotInvalidatePeers) {
  // Read-only commits take the fast path and never move the global clock:
  // a concurrent reader's later operations must not observe clock motion
  // (observable here as zero forced aborts and zero commit-CAS retries).
  tm_->reset_stats();
  TxnPtr peer = tm_->begin();
  ASSERT_EQ(tm_->read(*peer, 0).value(), 0u);
  for (int i = 0; i < 10; ++i) {
    TxnPtr ro = tm_->begin();
    ASSERT_TRUE(tm_->read(*ro, 1).has_value());
    ASSERT_TRUE(tm_->try_commit(*ro));
  }
  ASSERT_TRUE(tm_->write(*peer, 2, 1));
  EXPECT_TRUE(tm_->try_commit(*peer));
  const auto s = tm_->stats();
  EXPECT_EQ(s.forced_aborts, 0u);
  EXPECT_EQ(s.cm_backoffs, 0u);
}

// NOrec is written once over two metadata layouts; "norec-region" runs
// the same protocol over region words.
INSTANTIATE_TEST_SUITE_P(NorecRecipes, NorecTest,
                         ::testing::Values("norec", "norec-bloom",
                                           "norec-region"),
                         conformance::backend_param_name);

// The same ABA history on TL2 for contrast: the version clock cannot tell
// "restored" from "changed", so the reader must be force-aborted at commit.
// Pinning both sides documents the value-vs-version validation distinction
// the NOrec backend exists to exhibit — on both TL2 layouts.
void expect_tl2_rejects_write_then_restore(const std::string& recipe) {
  auto tl2 = workload::make_tm(recipe, 16);
  TxnPtr reader = tl2->begin();
  ASSERT_EQ(tl2->read(*reader, 0).value(), 0u);
  {
    TxnPtr t = tl2->begin();
    ASSERT_TRUE(tl2->write(*t, 0, 5));
    ASSERT_TRUE(tl2->try_commit(*t));
  }
  {
    TxnPtr t = tl2->begin();
    ASSERT_TRUE(tl2->write(*t, 0, 0));
    ASSERT_TRUE(tl2->try_commit(*t));
  }
  // Var 1's own version is still 0 <= rv, so this read may succeed; the
  // stale var-0 version must surface at commit (write forces validation).
  (void)tl2->read(*reader, 1);
  (void)tl2->write(*reader, 1, 7);
  EXPECT_FALSE(tl2->try_commit(*reader));
  EXPECT_EQ(reader->status(), TxStatus::kAborted);
  EXPECT_GE(tl2->stats().forced_aborts, 1u);
}

TEST(NorecVsTl2, Tl2RejectsTheWriteThenRestoreHistory) {
  expect_tl2_rejects_write_then_restore("tl2");
}

TEST(NorecVsTl2, Tl2RegionRejectsTheWriteThenRestoreHistory) {
  expect_tl2_rejects_write_then_restore("tl2-region");
}

// Direct (non-factory) coverage of the open-addressed write set both
// protocols share: collision chains, overwrite-in-place, growth
// rehashing — for both location types, TVarId (boxed layout) and word
// address (region layout).
template <typename Key>
void expect_write_set_put_find_grow_for_each(Key (*key)(std::size_t)) {
  lock::WriteSet<Key> ws;
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.find(key(3)), nullptr);

  for (std::size_t i = 0; i < 100; ++i) ws.put(key(i), i * 10);
  EXPECT_EQ(ws.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    const core::Value* v = ws.find(key(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 10u);
  }
  EXPECT_EQ(ws.find(key(100)), nullptr);

  ws.put(key(7), 777);  // overwrite must not create a second entry
  EXPECT_EQ(ws.size(), 100u);
  EXPECT_EQ(*ws.find(key(7)), 777u);

  std::size_t seen = 0;
  core::Value sum = 0;
  ws.for_each([&](Key, core::Value v) {
    ++seen;
    sum += v;
  });
  EXPECT_EQ(seen, 100u);
  core::Value expect_sum = 0;
  for (std::size_t i = 0; i < 100; ++i) expect_sum += i * 10;
  EXPECT_EQ(sum, expect_sum - 70 + 777);

  ws.clear();
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.find(key(7)), nullptr);
}

core::Value g_words[101];

TEST(NorecWriteSet, PutFindGrowForEach) {
  expect_write_set_put_find_grow_for_each<core::TVarId>(
      [](std::size_t i) { return static_cast<core::TVarId>(i); });
  expect_write_set_put_find_grow_for_each<core::Value*>(
      [](std::size_t i) { return &g_words[i]; });
}

}  // namespace
}  // namespace oftm
