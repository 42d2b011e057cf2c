// Range scans over the ds:: containers, both layouts: sequential oracle
// checks, interaction with the hash map's tombstone-run trimming, and
// atomic-snapshot tests under concurrent erase — a scan transaction must
// see an invariant-preserving state even while writers insert and erase
// around it (the service's scan ops lean on exactly this).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "ds/thashmap.hpp"
#include "ds/tlist.hpp"
#include "ds/tskiplist.hpp"
#include "runtime/xorshift.hpp"
#include "workload/factory.hpp"

namespace oftm::ds {
namespace {

// Backends giving one boxed and one region instantiation of each scan.
const char* kBoxedBackend = "tl2";
const char* kRegionBackend = "tl2-region";

template <typename Model>
void map_scan_oracle(const std::string& backend) {
  constexpr std::uint32_t kCap = 256;
  auto tm = workload::make_tm_for_containers(
      backend, THashMapT<core::BoxedMemory>::tvars_needed(kCap));
  THashMapT<Model> map(*tm, 0, kCap);
  map.init();

  std::map<std::uint64_t, core::Value> oracle;
  runtime::Xoshiro256 rng(42);
  core::atomically(*tm, [&](core::TxView& tx) {
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t k = rng.next_range(500);
      const core::Value v = k * 3 + 1;
      map.put(tx, k, v);
      oracle[k] = v;
    }
  });

  // for_each visits exactly the live entries.
  std::map<std::uint64_t, core::Value> seen;
  core::atomically(*tm, [&](core::TxView& tx) {
    seen.clear();
    map.for_each(tx, [&](std::uint64_t k, core::Value v) {
      seen[k] = v;
      return true;
    });
  });
  EXPECT_EQ(seen, oracle);

  // range_sum matches the oracle on several windows, boundaries included.
  for (const auto& [lo, hi] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 500},
        {100, 200},
        {250, 251},
        {499, 500},
        {7, 7}}) {
    core::Value expected = 0;
    for (const auto& [k, v] : oracle) {
      if (k >= lo && k < hi) expected += v;
    }
    const core::Value got = core::atomically(
        *tm, [&](core::TxView& tx) { return map.range_sum(tx, lo, hi); });
    EXPECT_EQ(got, expected) << "range [" << lo << "," << hi << ")";
  }

  // Erase-heavy churn drives the tombstone-run trimming (PR-8 hygiene);
  // scans must stay oracle-exact through it.
  for (int round = 0; round < 50; ++round) {
    core::atomically(*tm, [&](core::TxView& tx) {
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t k = rng.next_range(500);
        if (rng.next_bool(0.7)) {
          map.erase(tx, k);
          oracle.erase(k);
        } else {
          map.put(tx, k, k + 1000 * static_cast<std::uint64_t>(round));
          oracle[k] = k + 1000 * static_cast<std::uint64_t>(round);
        }
      }
    });
  }
  core::atomically(*tm, [&](core::TxView& tx) {
    seen.clear();
    map.for_each(tx, [&](std::uint64_t k, core::Value v) {
      seen[k] = v;
      return true;
    });
  });
  EXPECT_EQ(seen, oracle);
}

// Sorted-set scans run over both TListSetT and TSkipListSetT.
template <template <typename> class Set, typename Model>
void sorted_set_scan_oracle(const std::string& backend) {
  constexpr std::uint32_t kCap = 256;
  auto tm = workload::make_tm_for_containers(
      backend, Set<core::BoxedMemory>::tvars_needed(kCap));
  Set<Model> set(*tm, 0, kCap);
  set.init();

  std::vector<std::uint64_t> keys = {3, 7, 11, 40, 41, 42, 90, 300, 301};
  core::atomically(*tm, [&](core::TxView& tx) {
    for (std::uint64_t k : keys) set.insert(tx, k);
  });

  // Ordered, bounded, and count-exact.
  std::vector<std::uint64_t> visited;
  const std::uint64_t n = core::atomically(*tm, [&](core::TxView& tx) {
    visited.clear();
    return set.scan_range(tx, 7, 300,
                          [&](std::uint64_t k) { visited.push_back(k); });
  });
  const std::vector<std::uint64_t> expected = {7, 11, 40, 41, 42, 90};
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(n, expected.size());

  // Empty window and full window.
  EXPECT_EQ(core::atomically(*tm,
                             [&](core::TxView& tx) {
                               return set.scan_range(tx, 100, 300,
                                                     [](std::uint64_t) {});
                             }),
            0u);
  EXPECT_EQ(core::atomically(*tm,
                             [&](core::TxView& tx) {
                               return set.scan_range(tx, 0, ~std::uint64_t{0},
                                                     [](std::uint64_t) {});
                             }),
            keys.size());
}

// Concurrent-erase snapshot test: writers atomically toggle PAIRS of keys
// (both present or both absent), scanners count pair members inside one
// transaction — an odd count would mean the scan saw a half-applied
// toggle, i.e. a torn snapshot.
template <typename Model>
void map_scan_under_concurrent_erase(const std::string& backend) {
  constexpr std::uint32_t kCap = 256;
  constexpr std::uint64_t kPairs = 32;
  constexpr std::uint64_t kPartner = 1000;  // key k pairs with k + kPartner
  auto tm = workload::make_tm_for_containers(
      backend, THashMapT<core::BoxedMemory>::tvars_needed(kCap));
  THashMapT<Model> map(*tm, 0, kCap);
  map.init();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    runtime::Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = rng.next_range(kPairs);
      core::atomically(*tm, [&](core::TxView& tx) {
        // Toggle the pair as one atomic unit. Erase drives tombstone
        // creation and run trimming under the scanner's feet.
        if (map.erase(tx, k)) {
          map.erase(tx, k + kPartner);
        } else if (tx.ok()) {
          map.put(tx, k, 1);
          map.put(tx, k + kPartner, 1);
        }
      });
    }
  });

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t members = core::atomically(
        *tm, [&](core::TxView& tx) {
          std::uint64_t count = 0;
          map.for_each(tx, [&](std::uint64_t, core::Value) {
            ++count;
            return true;
          });
          return count;
        });
    EXPECT_EQ(members % 2, 0u) << "scan observed a torn pair toggle";
  }
  stop.store(true);
  writer.join();
}

template <template <typename> class Set, typename Model>
void sorted_set_scan_under_concurrent_erase(const std::string& backend) {
  constexpr std::uint32_t kCap = 256;
  constexpr std::uint64_t kPairs = 32;
  auto tm = workload::make_tm_for_containers(
      backend, Set<core::BoxedMemory>::tvars_needed(kCap));
  Set<Model> set(*tm, 0, kCap);
  set.init();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    runtime::Xoshiro256 rng(11);
    while (!stop.load(std::memory_order_relaxed)) {
      // Pair (2k+1, 2k+2): adjacent in scan order, toggled atomically.
      const std::uint64_t k = rng.next_range(kPairs);
      core::atomically(*tm, [&](core::TxView& tx) {
        if (set.erase(tx, 2 * k + 1)) {
          set.erase(tx, 2 * k + 2);
        } else if (tx.ok()) {
          set.insert(tx, 2 * k + 1);
          set.insert(tx, 2 * k + 2);
        }
      });
    }
  });

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t members = core::atomically(
        *tm, [&](core::TxView& tx) {
          return set.scan_range(tx, 0, 2 * kPairs + 2, [](std::uint64_t) {});
        });
    EXPECT_EQ(members % 2, 0u) << "scan observed a torn pair toggle";
  }
  stop.store(true);
  writer.join();
  EXPECT_TRUE(set.audit_quiescent());
}

TEST(DsScan, MapOracleBoxed) {
  map_scan_oracle<core::BoxedMemory>(kBoxedBackend);
}
TEST(DsScan, MapOracleRegion) {
  map_scan_oracle<core::RegionMemory>(kRegionBackend);
}
TEST(DsScan, ListOracleBoxed) {
  sorted_set_scan_oracle<TListSetT, core::BoxedMemory>(kBoxedBackend);
}
TEST(DsScan, ListOracleRegion) {
  sorted_set_scan_oracle<TListSetT, core::RegionMemory>(kRegionBackend);
}
TEST(DsScan, SkipListOracleBoxed) {
  sorted_set_scan_oracle<TSkipListSetT, core::BoxedMemory>(kBoxedBackend);
}
TEST(DsScan, SkipListOracleRegion) {
  sorted_set_scan_oracle<TSkipListSetT, core::RegionMemory>(kRegionBackend);
}
TEST(DsScan, MapSnapshotUnderConcurrentEraseBoxed) {
  map_scan_under_concurrent_erase<core::BoxedMemory>(kBoxedBackend);
}
TEST(DsScan, MapSnapshotUnderConcurrentEraseRegion) {
  map_scan_under_concurrent_erase<core::RegionMemory>(kRegionBackend);
}
TEST(DsScan, ListSnapshotUnderConcurrentEraseBoxed) {
  sorted_set_scan_under_concurrent_erase<TListSetT, core::BoxedMemory>(
      kBoxedBackend);
}
TEST(DsScan, ListSnapshotUnderConcurrentEraseRegion) {
  sorted_set_scan_under_concurrent_erase<TListSetT, core::RegionMemory>(
      kRegionBackend);
}
TEST(DsScan, SkipListSnapshotUnderConcurrentEraseBoxed) {
  sorted_set_scan_under_concurrent_erase<TSkipListSetT, core::BoxedMemory>(
      kBoxedBackend);
}
TEST(DsScan, SkipListSnapshotUnderConcurrentEraseRegion) {
  sorted_set_scan_under_concurrent_erase<TSkipListSetT, core::RegionMemory>(
      kRegionBackend);
}

}  // namespace
}  // namespace oftm::ds
