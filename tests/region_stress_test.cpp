// Adversarial region-tier soak: many threads race transactional
// allocate/publish/unlink/free cycles through a small set of shared
// pointer slots. This is the workload the boxed tiers cannot run at all,
// and the one that stresses every region-specific mechanism at once:
//
//   * private-block access (nodes are initialized in place before the
//     commit that publishes them);
//   * epoch-deferred reclamation (a node freed by one thread's commit must
//     stay readable — and value-stable — for every doomed reader that
//     still holds its address);
//   * stripe/seqlock validation over recycled addresses.
//
// Each node carries a self-describing stamp replicated across its words; a
// committed reader that observes a mixed or stale stamp proves a reclaimed
// block was recycled under a live snapshot. The final accounting (every
// block returned, allocator drained to baseline) proves no leak on either
// the commit or the abort path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/region.hpp"
#include "core/tm.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"
#include "runtime/barrier.hpp"
#include "runtime/xorshift.hpp"

namespace oftm {
namespace {

constexpr int kThreads = 4;
constexpr int kItersPerThread = 15'000;
constexpr std::size_t kSlots = 64;
constexpr std::size_t kNodeWords = 6;  // payload: stamp replicated 6x

template <typename R>
void run_churn() {
  core::RegionOptions options;
  options.capacity_bytes = 4 << 20;
  R tm(/*num_tvars=*/1, options);

  auto* slots = static_cast<core::Value*>(
      tm.alloc_quiescent(kSlots * sizeof(core::Value)));
  ASSERT_NE(slots, nullptr);
  const std::size_t baseline = tm.layout().heap().allocated_bytes();

  std::atomic<std::uint64_t> stamp_mix_failures{0};
  std::atomic<std::uint64_t> committed{0};
  runtime::SpinBarrier done(kThreads);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      core::TmSession& session = tm.session(t);
      runtime::Xoshiro256 rng(0xC0FFEE + static_cast<std::uint64_t>(t));
      std::uint64_t counter = 0;

      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t s = rng.next_range(kSlots);
        const bool prefer_free = (rng.next() & 1) != 0;
        // Unique per (thread, attempt) so a cross-lifetime mix-up cannot
        // masquerade as a valid stamp.
        const core::Value stamp =
            (static_cast<core::Value>(t + 1) << 48) | ++counter;

        // Retry until this logical operation commits.
        for (;;) {
          core::Transaction& tx = tm.begin(session);

          const auto cur = tm.read_word(tx, &slots[s]);
          if (!cur.has_value()) continue;  // forced abort: retry

          bool ok = true;
          if (*cur != 0 && prefer_free) {
            // Unlink and free the published node — after checking that
            // every word still carries one coherent stamp.
            auto* node = reinterpret_cast<core::Value*>(
                static_cast<std::uintptr_t>(*cur));
            core::Value seen = 0;
            bool mixed = false;
            for (std::size_t w = 0; ok && w < kNodeWords; ++w) {
              const auto v = tm.read_word(tx, &node[w]);
              if (!v.has_value()) {
                ok = false;
                break;
              }
              if (w == 0) {
                seen = *v;
              } else if (*v != seen) {
                mixed = true;
              }
            }
            if (!ok) continue;
            if (mixed) stamp_mix_failures.fetch_add(1);
            ok = tm.write_word(tx, &slots[s], 0) && tm.tx_free(tx, node);
          } else if (*cur == 0) {
            // Allocate, initialize in place (private), publish.
            void* p = tm.tx_alloc(tx, kNodeWords * sizeof(core::Value));
            ASSERT_NE(p, nullptr);
            auto* node = static_cast<core::Value*>(p);
            for (std::size_t w = 0; ok && w < kNodeWords; ++w) {
              ok = tm.write_word(tx, &node[w], stamp);
            }
            ok = ok && tm.write_word(
                           tx, &slots[s],
                           static_cast<core::Value>(
                               reinterpret_cast<std::uintptr_t>(node)));
          } else {
            // Occupied and we wanted to allocate: read-verify the node
            // instead (pure reader racing the free/recycle path).
            auto* node = reinterpret_cast<core::Value*>(
                static_cast<std::uintptr_t>(*cur));
            core::Value seen = 0;
            for (std::size_t w = 0; ok && w < kNodeWords; ++w) {
              const auto v = tm.read_word(tx, &node[w]);
              if (!v.has_value()) {
                ok = false;
                break;
              }
              if (w == 0) {
                seen = *v;
              } else if (*v != seen) {
                stamp_mix_failures.fetch_add(1);
              }
            }
            if (!ok) continue;
          }
          if (ok && tm.try_commit(tx)) {
            committed.fetch_add(1);
            break;
          }
        }
      }

      // Drain this worker's own retirements while every thread is
      // quiescent (the retire lists are per-thread; nobody else can sweep
      // them once this thread exits).
      done.arrive_and_wait();
      for (int k = 0; k < 6; ++k) tm.layout().heap().epochs().reclaim();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(stamp_mix_failures.load(), 0u)
      << "a committed snapshot observed words from two block lifetimes";
  EXPECT_EQ(committed.load(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);

  // Unlink and free every survivor, then drain: the heap must return to
  // its post-setup footprint — no leaked node on any commit/abort path.
  core::TmSession& session = tm.session(0);
  for (std::size_t s = 0; s < kSlots; ++s) {
    for (;;) {
      core::Transaction& tx = tm.begin(session);
      const auto cur = tm.read_word(tx, &slots[s]);
      if (!cur.has_value()) continue;
      bool ok = true;
      if (*cur != 0) {
        auto* node = reinterpret_cast<core::Value*>(
            static_cast<std::uintptr_t>(*cur));
        ok = tm.write_word(tx, &slots[s], 0) && tm.tx_free(tx, node);
      }
      if (ok && tm.try_commit(tx)) break;
    }
  }
  tm.layout().heap().flush_reclamation();
  EXPECT_EQ(tm.layout().heap().allocated_bytes(), baseline);
}

TEST(RegionStress, Tl2RegionAllocFreeChurnStaysCoherent) {
  run_churn<lock::Tl2Region>();
}

TEST(RegionStress, NorecRegionAllocFreeChurnStaysCoherent) {
  run_churn<norec::NorecRegion>();
}

// The same churn with one stripe per cache line: heavier aliasing, more
// false conflicts, identical safety obligations (aliasing may only ever
// manufacture conflicts). NOrec has no stripes, so TL2 only.
TEST(RegionStress, Tl2RegionCoarseStripesChurnStaysCoherent) {
  core::RegionOptions options;
  options.capacity_bytes = 4 << 20;
  options.granularity_log2 = 6;
  options.stripe_count_log2 = 10;  // small table: capacity aliasing too
  lock::Tl2Region tm(/*num_tvars=*/1, options);
  auto* slot = static_cast<core::Value*>(tm.alloc_quiescent(8));
  ASSERT_NE(slot, nullptr);

  std::atomic<std::uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      core::TmSession& session = tm.session(t);
      for (int i = 0; i < kItersPerThread / 3; ++i) {
        for (;;) {
          core::Transaction& tx = tm.begin(session);
          const auto v = tm.read_word(tx, slot);
          if (!v.has_value()) continue;
          if (!tm.write_word(tx, slot, *v + 1)) continue;
          if (tm.try_commit(tx)) {
            committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto expected =
      static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 3);
  EXPECT_EQ(committed.load(), expected);
  EXPECT_EQ(tm.read_word_quiescent(slot), expected);
}

}  // namespace
}  // namespace oftm
