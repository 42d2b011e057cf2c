// Instrumented-allocator proof of the allocation-free execution tier:
// after warm-up, a transaction on the pooled-session hot path performs
// ZERO heap allocations on the progressive lock-based backends the
// headline comparison is anchored against (NOrec and TL2) — descriptor,
// read set, write set and commit scratch are all reused in place. This is
// the property that keeps harness overhead out of the measured backend
// deltas (the methodological trap the cost-of-obstruction-freedom
// comparison must avoid).
//
// This test overrides the global allocation functions for its own binary
// only (one executable per test source — see tests/CMakeLists.txt); the
// counter is armed exclusively around the measured loops, so gtest's own
// allocations never pollute the count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "core/tm.hpp"
#include "ds/tlist.hpp"
#include "ds/tskiplist.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"
#include "runtime/stats.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_alloc(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) {
  return checked_alloc(n);
}
void* operator new[](std::size_t n, std::align_val_t) {
  return checked_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
// The sized aligned forms too: left to the runtime, they would hand
// malloc'd blocks to a sanitizer's own delete (alloc-dealloc mismatch).
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oftm {
namespace {

constexpr std::size_t kNumTVars = 1024;
constexpr int kOpsPerTx = 16;

// Mirrors the B1 driver's per-transaction loop (bench_throughput →
// run_workload): begin on the pooled session, read-modify-write a cycling
// window of t-variables, commit, record into the per-worker histogram.
template <typename Tm>
std::uint64_t run_txns(Tm& tm, core::TmSession& session, int count,
                       runtime::Log2Histogram& latency) {
  std::uint64_t committed = 0;
  for (int i = 0; i < count; ++i) {
    core::Transaction& txn = tm.begin(session);
    bool ok = true;
    for (int k = 0; k < kOpsPerTx && ok; ++k) {
      const auto x =
          static_cast<core::TVarId>((i * kOpsPerTx + k) % kNumTVars);
      const auto v = tm.read(txn, x);
      ok = v.has_value() && tm.write(txn, x, *v + 1);
    }
    if (ok && tm.try_commit(txn)) {
      ++committed;
      latency.record(static_cast<std::uint64_t>(i));
    }
  }
  return committed;
}

template <typename Tm>
void expect_zero_alloc_hot_path(Tm& tm) {
  core::TmSession& session = tm.this_thread_session();
  runtime::Log2Histogram latency;

  // Warm-up: descriptor pools materialize, read/write sets and commit
  // scratch grow to steady-state capacity.
  ASSERT_EQ(run_txns(tm, session, 200, latency), 200u);

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const std::uint64_t committed = run_txns(tm, session, 1000, latency);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(committed, 1000u);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "per-transaction heap allocations survived the descriptor pool";
}

TEST(AllocFree, NorecHotPathAllocatesNothingAfterWarmup) {
  norec::HwNorec tm(kNumTVars);
  expect_zero_alloc_hot_path(tm);
}

TEST(AllocFree, NorecBloomHotPathAllocatesNothingAfterWarmup) {
  norec::NorecOptions options;
  options.bloom_reads = true;
  norec::HwNorec tm(kNumTVars, options);
  expect_zero_alloc_hot_path(tm);
}

TEST(AllocFree, Tl2HotPathAllocatesNothingAfterWarmup) {
  lock::HwTl2 tm(kNumTVars);
  expect_zero_alloc_hot_path(tm);
}

// The region tier inherits the property: word-granular transactions over
// the raw-memory heap reuse the descriptor's read set, redo log, commit
// scratch and epoch pin in place — the RegionHeap itself is only touched
// by tx_alloc/tx_free, which this steady state does not issue.
TEST(AllocFree, Tl2RegionHotPathAllocatesNothingAfterWarmup) {
  lock::Tl2Region tm(kNumTVars);
  expect_zero_alloc_hot_path(tm);
}

TEST(AllocFree, NorecRegionHotPathAllocatesNothingAfterWarmup) {
  norec::NorecRegion tm(kNumTVars);
  expect_zero_alloc_hot_path(tm);
}

// Transactional alloc/free churn in steady state: blocks recycle through
// the region's size-class free lists and the epoch retire ring, none of
// which touches the process heap once warmed up.
TEST(AllocFree, RegionAllocFreeChurnSteadyStateAllocatesNothing) {
  core::RegionOptions options;
  options.capacity_bytes = 1 << 20;
  lock::Tl2Region tm(/*num_tvars=*/1, options);
  auto* slot = static_cast<core::Value*>(tm.alloc_quiescent(8));
  ASSERT_NE(slot, nullptr);
  core::TmSession& session = tm.session(0);

  const auto churn = [&](int count) {
    for (int i = 0; i < count; ++i) {
      core::Transaction& tx = tm.begin(session);
      const auto cur = tm.read_word(tx, slot);
      ASSERT_TRUE(cur.has_value());
      if (*cur != 0) {
        auto* old = reinterpret_cast<core::Value*>(
            static_cast<std::uintptr_t>(*cur));
        ASSERT_TRUE(tm.tx_free(tx, old));
      }
      void* p = tm.tx_alloc(tx, 64);
      ASSERT_NE(p, nullptr);
      ASSERT_TRUE(tm.write_word(tx, static_cast<core::Value*>(p), 1));
      ASSERT_TRUE(tm.write_word(
          tx, slot,
          static_cast<core::Value>(reinterpret_cast<std::uintptr_t>(p))));
      ASSERT_TRUE(tm.try_commit(tx));
    }
  };
  churn(600);  // warm-up: free lists, retire ring, descriptor logs

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  churn(1000);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "transactional alloc/free leaked onto the process heap";
}

// The same property one layer up: a region-instantiated container whose
// insert/erase churn routes every node through tx_alloc/tx_free. Steady
// state recycles nodes via the size-class free lists and the epoch retire
// ring without ever reaching the process heap. Runs over both sorted sets
// (the skip list allocates and frees whole towers per toggle).
template <template <typename> class Set>
void region_container_churn_allocates_nothing() {
  constexpr std::uint32_t kCap = 64;
  core::RegionOptions options;
  options.capacity_bytes = 1 << 20;
  lock::Tl2Region tm(Set<core::RegionMemory>::tvars_needed(kCap), options);
  Set<core::RegionMemory> set(tm, 0, kCap);
  set.init();

  const auto churn = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(i % 32) + 1;
      core::atomically(tm, [&](core::TxView& tx) {
        if (!set.erase(tx, key)) set.insert(tx, key);
      });
    }
  };
  churn(600);  // warm-up: node free lists, retire ring, descriptor logs

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  churn(1000);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "region container churn leaked onto the process heap";
  EXPECT_TRUE(set.audit_quiescent());
}

TEST(AllocFree, RegionContainerChurnSteadyStateAllocatesNothing) {
  region_container_churn_allocates_nothing<ds::TListSetT>();
}

TEST(AllocFree, RegionSkipListChurnSteadyStateAllocatesNothing) {
  region_container_churn_allocates_nothing<ds::TSkipListSetT>();
}

TEST(AllocFree, AtomicallyRetryLoopAllocatesNothingAfterWarmup) {
  // The convenience layer on top of the same tier: TxView + the no-throw
  // retry loop must not reintroduce per-transaction allocations.
  norec::HwNorec tm(kNumTVars);
  const auto transfer = [&](int i) {
    return core::atomically(tm, [i](core::TxView& tx) {
      const auto a = static_cast<core::TVarId>(i % kNumTVars);
      const auto b = static_cast<core::TVarId>((i + 7) % kNumTVars);
      const core::Value va = tx.read(a);
      tx.write(a, va + 1);
      tx.write(b, tx.read(b) + 1);
      return va;
    });
  };
  for (int i = 0; i < 200; ++i) transfer(i);

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) transfer(i);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
}

// The portability tier recycles descriptors through the session free
// list, so its steady state is allocation-free as well — only the virtual
// dispatch differs between the tiers.
TEST(AllocFree, VirtualTierSteadyStateAllocatesNothing) {
  norec::HwNorec tm(kNumTVars);
  core::TransactionalMemory& erased = tm;
  const auto run = [&](int count) {
    for (int i = 0; i < count; ++i) {
      core::TxnPtr txn = erased.begin();
      const auto x = static_cast<core::TVarId>(i % kNumTVars);
      const auto v = erased.read(*txn, x);
      ASSERT_TRUE(v.has_value());
      ASSERT_TRUE(erased.write(*txn, x, *v + 1));
      ASSERT_TRUE(erased.try_commit(*txn));
    }
  };
  run(100);

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  run(500);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace oftm
