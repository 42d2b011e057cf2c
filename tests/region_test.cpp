// The TmRegion tier, pinned at three levels:
//   * RegionHeap — allocation/rounding/recycling semantics and the
//     epoch-deferred retire path.
//   * The region backends driven through the word tier (tx_alloc/tx_free,
//     private-block access, publish-on-commit, rollback-on-abort) — the
//     capabilities the boxed TVar interface cannot express.
//   * The t-variable adapter (lock::LayoutTm on the region layout, which
//     maps TVarId x to heap word x) through the factory, where the
//     existing bank-invariant machinery certifies multi-threaded region
//     histories. (The conformance + checked-stress suites enroll
//     "tl2-region"/"norec-region" automatically via
//     workload::all_backends.)
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/region.hpp"
#include "core/tm.hpp"
#include "lock/stripe_table.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

// --- RegionHeap -------------------------------------------------------------

TEST(RegionHeap, AllocationsAreZeroedAlignedAndSized) {
  core::RegionHeap heap(1 << 20);
  for (std::size_t bytes : {1u, 8u, 24u, 100u, 4096u}) {
    void* p = heap.alloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    EXPECT_TRUE(heap.contains(p));
    EXPECT_GE(heap.block_bytes(p), bytes);
    const auto* b = static_cast<const std::byte*>(p);
    for (std::size_t i = 0; i < heap.block_bytes(p); ++i) {
      ASSERT_EQ(b[i], std::byte{0});
    }
  }
}

TEST(RegionHeap, FreeNowRecyclesTheSameBlock) {
  core::RegionHeap heap(1 << 16);
  void* p = heap.alloc(48);
  ASSERT_NE(p, nullptr);
  const std::size_t after_alloc = heap.allocated_bytes();
  heap.free_now(p);
  EXPECT_LT(heap.allocated_bytes(), after_alloc);
  // Same size class: the freed block is at the head of the free list.
  void* q = heap.alloc(48);
  EXPECT_EQ(q, p);
  // And the recycled payload is zeroed again.
  const auto* b = static_cast<const std::byte*>(q);
  for (std::size_t i = 0; i < heap.block_bytes(q); ++i) {
    ASSERT_EQ(b[i], std::byte{0});
  }
}

TEST(RegionHeap, LargeBlocksRecycleByExactSize) {
  core::RegionHeap heap(1 << 20);
  void* big = heap.alloc(100'000);  // above the size-class threshold
  ASSERT_NE(big, nullptr);
  EXPECT_GE(heap.block_bytes(big), 100'000u);
  heap.free_now(big);
  void* again = heap.alloc(100'000);
  EXPECT_EQ(again, big);
}

TEST(RegionHeap, ExhaustionReturnsNullInsteadOfThrowing) {
  core::RegionHeap heap(4096);
  std::vector<void*> blocks;
  for (;;) {
    void* p = heap.alloc(256);
    if (p == nullptr) break;
    blocks.push_back(p);
  }
  EXPECT_FALSE(blocks.empty());
  EXPECT_EQ(heap.alloc(256), nullptr);
  // Freeing restores allocatability.
  heap.free_now(blocks.back());
  EXPECT_NE(heap.alloc(256), nullptr);
}

TEST(RegionHeap, RetireDefersReuseUntilFlushed) {
  core::RegionHeap heap(1 << 16);
  void* p = heap.alloc(64);
  ASSERT_NE(p, nullptr);
  const std::size_t live = heap.allocated_bytes();
  heap.retire(p);
  // Still accounted: the block waits out its grace period.
  EXPECT_EQ(heap.allocated_bytes(), live);
  heap.flush_reclamation();
  EXPECT_LT(heap.allocated_bytes(), live);
}

// --- Stripe table -----------------------------------------------------------

TEST(StripeTable, KnobsShapeTheTable) {
  lock::StripeTable t(/*count_log2=*/4, /*granularity_log2=*/6);
  EXPECT_EQ(t.count(), 16u);
  EXPECT_EQ(t.granularity_bytes(), 64u);
  // Words within one granule share a stripe; the next granule moves on.
  alignas(64) std::uint64_t granule[16] = {};
  EXPECT_EQ(t.index_of(&granule[0]), t.index_of(&granule[7]));
  EXPECT_NE(t.index_of(&granule[0]), t.index_of(&granule[8]));
}

TEST(StripeTable, AutoSizingClampsToSaneBounds) {
  EXPECT_EQ(lock::auto_stripe_count_log2(1), 14u);          // floor
  EXPECT_EQ(lock::auto_stripe_count_log2(1u << 16), 16u);   // ~1 per word
  EXPECT_EQ(lock::auto_stripe_count_log2(std::size_t{1} << 30), 22u);  // cap
}

// --- Word-granular region backends ------------------------------------------

template <typename R>
R make_region(unsigned granularity_log2 = 3) {
  core::RegionOptions options;
  options.capacity_bytes = 1 << 20;
  options.granularity_log2 = granularity_log2;
  return R(/*num_tvars=*/8, options);
}

template <typename R>
class RegionBackendTest : public ::testing::Test {};

using RegionBackends = ::testing::Types<lock::Tl2Region, norec::NorecRegion>;
TYPED_TEST_SUITE(RegionBackendTest, RegionBackends);

TYPED_TEST(RegionBackendTest, CommittedWritesAreVisibleAbortedOnesAreNot) {
  TypeParam tm = make_region<TypeParam>();
  auto* words = static_cast<core::Value*>(tm.alloc_quiescent(8 * 8));
  ASSERT_NE(words, nullptr);

  core::TmSession& session = tm.session(0);
  core::Transaction& t1 = tm.begin(session);
  EXPECT_TRUE(tm.write_word(t1, &words[3], 42));
  EXPECT_EQ(tm.read_word(t1, &words[3]), std::optional<core::Value>(42));
  // Lazy write-back: nothing hits memory before commit.
  EXPECT_EQ(tm.read_word_quiescent(&words[3]), 0u);
  EXPECT_TRUE(tm.try_commit(t1));
  EXPECT_EQ(tm.read_word_quiescent(&words[3]), 42u);

  core::Transaction& t2 = tm.begin(session);
  EXPECT_TRUE(tm.write_word(t2, &words[3], 77));
  tm.try_abort(t2);
  EXPECT_EQ(tm.read_word_quiescent(&words[3]), 42u);
}

TYPED_TEST(RegionBackendTest, AbortReturnsPrivateAllocationsImmediately) {
  TypeParam tm = make_region<TypeParam>();
  core::RegionHeap& heap = tm.layout().heap();
  const std::size_t baseline = heap.allocated_bytes();

  core::Transaction& tx = tm.begin(tm.session(0));
  void* p = tm.tx_alloc(tx, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(heap.allocated_bytes(), baseline);
  // Private block: in-place access bypasses the commit protocol.
  auto* w = static_cast<core::Value*>(p);
  EXPECT_TRUE(tm.write_word(tx, &w[0], 7));
  EXPECT_EQ(tm.read_word(tx, &w[0]), std::optional<core::Value>(7));
  tm.try_abort(tx);
  EXPECT_EQ(heap.allocated_bytes(), baseline);
}

TYPED_TEST(RegionBackendTest, CommitPublishesAllocationAndFreeRetires) {
  TypeParam tm = make_region<TypeParam>();
  core::RegionHeap& heap = tm.layout().heap();
  core::TmSession& session = tm.session(0);
  auto* slot = static_cast<core::Value*>(tm.alloc_quiescent(8));
  ASSERT_NE(slot, nullptr);
  const std::size_t baseline = heap.allocated_bytes();

  // T1: allocate a node, initialize it, publish its address in *slot.
  core::Transaction& t1 = tm.begin(session);
  void* node = tm.tx_alloc(t1, 32);
  ASSERT_NE(node, nullptr);
  auto* nw = static_cast<core::Value*>(node);
  EXPECT_TRUE(tm.write_word(t1, &nw[0], 1234));
  EXPECT_TRUE(tm.write_word(
      t1, slot,
      static_cast<core::Value>(reinterpret_cast<std::uintptr_t>(node))));
  ASSERT_TRUE(tm.try_commit(t1));
  EXPECT_GT(heap.allocated_bytes(), baseline);

  // T2: follow the published pointer, read the node, unlink and free it.
  core::Transaction& t2 = tm.begin(session);
  const auto ptr = tm.read_word(t2, slot);
  ASSERT_TRUE(ptr.has_value());
  auto* found =
      reinterpret_cast<core::Value*>(static_cast<std::uintptr_t>(*ptr));
  ASSERT_EQ(found, nw);
  EXPECT_EQ(tm.read_word(t2, &found[0]), std::optional<core::Value>(1234));
  EXPECT_TRUE(tm.write_word(t2, slot, 0));
  EXPECT_TRUE(tm.tx_free(t2, found));
  ASSERT_TRUE(tm.try_commit(t2));

  // The free is deferred through the grace period, then reclaimed.
  heap.flush_reclamation();
  EXPECT_EQ(heap.allocated_bytes(), baseline);
}

TYPED_TEST(RegionBackendTest, AllocThenFreeInSameTransactionLeavesNoTrace) {
  TypeParam tm = make_region<TypeParam>();
  core::RegionHeap& heap = tm.layout().heap();
  const std::size_t baseline = heap.allocated_bytes();

  core::Transaction& tx = tm.begin(tm.session(0));
  void* p = tm.tx_alloc(tx, 48);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(tm.tx_free(tx, p));
  ASSERT_TRUE(tm.try_commit(tx));
  // Never published -> immediate reuse, no grace period involved.
  EXPECT_EQ(heap.allocated_bytes(), baseline);
}

TYPED_TEST(RegionBackendTest, ExhaustionSurfacesAsNullNotAbort) {
  core::RegionOptions options;
  options.capacity_bytes = 4096;
  TypeParam tm(/*num_tvars=*/8, options);

  core::Transaction& tx = tm.begin(tm.session(0));
  EXPECT_EQ(tm.tx_alloc(tx, 1 << 20), nullptr);
  // The transaction itself is still healthy.
  EXPECT_EQ(tx.status(), core::TxStatus::kActive);
  EXPECT_TRUE(tm.try_commit(tx));
}

// Conflict-unit coarsening: with one stripe per 64-byte granule, two
// *different* words in the same granule conflict — the false-sharing axis
// the region tier exists to measure. (NOrec has no stripes; TL2 only.)
TEST(Tl2Region, CoarseGranularityManufacturesAdjacencyConflicts) {
  lock::Tl2Region tm = make_region<lock::Tl2Region>(/*granularity=*/6);
  auto* words = static_cast<core::Value*>(tm.alloc_quiescent(64));
  ASSERT_NE(words, nullptr);
  ASSERT_EQ(tm.layout().stripes().granularity_bytes(), 64u);

  // T1 reads word 0; T2 writes word 1 (same granule) and commits; T1's
  // commit-time validation must then see a newer stripe version... but T1
  // is read-only, so it validates at read time: make T1 read *again* after
  // T2's commit to observe the conflict.
  core::Transaction& t1 = tm.begin(tm.session(0));
  ASSERT_TRUE(tm.read_word(t1, &words[0]).has_value());

  core::Transaction& t2 = tm.begin(tm.session(1));
  ASSERT_TRUE(tm.write_word(t2, &words[1], 9));
  ASSERT_TRUE(tm.try_commit(t2));

  // Same stripe, version now > t1.rv: the adjacent word is unreadable.
  EXPECT_FALSE(tm.read_word(t1, &words[0]).has_value());
  EXPECT_EQ(t1.status(), core::TxStatus::kAborted);
}

// --- The t-variable adapter, through the factory -----------------------------

TEST(RegionTm, FactoryBuildsBothRecipesWithRegionSemantics) {
  for (const char* recipe : {"tl2-region", "norec-region"}) {
    auto tm = workload::make_tm(recipe, 256);
    EXPECT_EQ(tm->name(), recipe);
    EXPECT_EQ(tm->num_tvars(), 256u);
    core::TxnPtr txn = tm->begin();
    ASSERT_TRUE(tm->write(*txn, 7, 99));
    ASSERT_TRUE(tm->try_commit(*txn));
    EXPECT_EQ(tm->read_quiescent(7), 99u);
  }
}

TEST(RegionTm, StripeKnobsReachTheBackend) {
  core::RegionOptions options;
  options.stripe_count_log2 = 5;
  options.granularity_log2 = 6;
  lock::Tl2Region tm(128, options);
  EXPECT_EQ(tm.layout().stripes().count(), 32u);
  EXPECT_EQ(tm.layout().stripes().granularity_bytes(), 64u);
}

TEST(RegionTm, BankInvariantHoldsAcrossThreads) {
  for (const char* recipe : {"tl2-region", "norec-region"}) {
    auto tm = workload::make_tm(recipe, 128);
    bool invariant_ok = false;
    const auto result = workload::run_bank_workload(
        *tm, /*threads=*/4, /*tx_per_thread=*/2000, /*accounts=*/128,
        /*initial_balance=*/1000, /*seed=*/2026, &invariant_ok,
        /*pin_threads=*/false);
    EXPECT_TRUE(invariant_ok) << recipe;
    EXPECT_EQ(result.committed, 8000u) << recipe;
  }
}

TEST(RegionTm, DriverMixedWorkloadCommitsEverythingEventually) {
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 1500;
  config.ops_per_tx = 6;
  config.write_fraction = 0.3;
  config.pin_threads = false;
  for (const char* recipe : {"tl2-region", "norec-region"}) {
    auto tm = workload::make_tm(recipe, 512);
    const auto result = workload::run_workload(*tm, config);
    EXPECT_EQ(result.committed, 6000u) << recipe;
    EXPECT_EQ(result.gave_up, 0u) << recipe;
  }
}

}  // namespace
}  // namespace oftm
