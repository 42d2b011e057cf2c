// Dual-tier, dual-layout conformance for the write-once ds:: containers:
// the SAME linearizable op-sequence oracle runs over every container ×
// both memory models (boxed TVarId arenas and the word-granular region
// heap) × both execution tiers (portability and pooled-session — the
// "@session" parameters). The layout is not chosen by the test: it is
// dispatched from the backend's capability, exactly as applications do.
//
// Also hosts the satellite regressions of PR 8:
//   * THashMap probe-length stability under delete/insert churn (the
//     erase-time tombstone trimming + insert-time tombstone reuse pair);
//   * TQueue monotone-position edge cases: wraparound past capacity,
//     full/empty boundary, and dequeue-on-empty composing with the
//     dead-view poison discipline.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "ds/thashmap.hpp"
#include "ds/tlist.hpp"
#include "ds/tqueue.hpp"
#include "ds/tskiplist.hpp"
#include "runtime/xorshift.hpp"
#include "tm_conformance.hpp"

namespace oftm::ds {
namespace {

// Backends the container suite sweeps: both lock-based baselines, an
// obstruction-free backend, the coarse control, and both region recipes.
// foctm is excluded for the usual reason (Algorithm 2 read-acquires every
// node on a walk and livelocks on hot shared structures).
const std::vector<std::string>& ds_backends() {
  static const std::vector<std::string> names = {
      "tl2", "norec", "dstm", "coarse", "tl2-region", "norec-region"};
  return names;
}

std::vector<std::string> ds_backends_session_tier() {
  std::vector<std::string> v;
  for (const auto& name : ds_backends()) {
    v.push_back(name + std::string(conformance::kSessionTierSuffix));
  }
  return v;
}

class DsConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  // `words` is the boxed-layout footprint — the larger of the two models,
  // so the same budget fits either layout the dispatch picks.
  std::unique_ptr<core::TransactionalMemory> make(std::size_t words) {
    return conformance::make_conformance_tm(GetParam(), words);
  }
};

// ---------------------------------------------------------------------------
// Linearizable op-sequence oracles: every container op runs as its own
// committed transaction and must agree with a sequential reference
// structure op for op — on any backend, layout and tier.

// Both sorted sets (TListSetT, TSkipListSetT) answer to the same oracle.
template <template <typename> class Set, typename Model>
void run_sorted_set_oracle(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 64;
  Set<Model> set(tm, 0, kCap);
  set.init();
  std::set<std::uint64_t> ref;
  runtime::Xoshiro256 rng(4242);
  for (int i = 0; i < 1200; ++i) {
    const std::uint64_t key = rng.next_range(48) + 1;
    switch (rng.next_range(3)) {
      case 0: {
        const bool inserted = core::atomically(
            tm, [&](core::TxView& tx) { return set.insert(tx, key); });
        ASSERT_EQ(inserted, ref.insert(key).second) << "key " << key;
        break;
      }
      case 1: {
        const bool erased = core::atomically(
            tm, [&](core::TxView& tx) { return set.erase(tx, key); });
        ASSERT_EQ(erased, ref.erase(key) == 1) << "key " << key;
        break;
      }
      default: {
        const bool present = core::atomically(
            tm, [&](core::TxView& tx) { return set.contains(tx, key); });
        ASSERT_EQ(present, ref.count(key) == 1) << "key " << key;
        break;
      }
    }
    if (i % 101 == 0) {
      const std::uint64_t n = core::atomically(
          tm, [&](core::TxView& tx) { return set.size(tx); });
      ASSERT_EQ(n, ref.size());
    }
  }
  EXPECT_TRUE(set.audit_quiescent());
}

template <typename Model>
void run_map_oracle(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 64;
  THashMapT<Model> map(tm, 0, kCap);
  map.init();
  std::unordered_map<std::uint64_t, core::Value> ref;
  runtime::Xoshiro256 rng(999);
  for (int i = 0; i < 1200; ++i) {
    const std::uint64_t key = rng.next_range(48);
    switch (rng.next_range(3)) {
      case 0: {
        const core::Value v = rng.next();
        const bool fresh = core::atomically(
            tm, [&](core::TxView& tx) { return map.put(tx, key, v); });
        ASSERT_EQ(fresh, ref.find(key) == ref.end()) << "key " << key;
        ref[key] = v;
        break;
      }
      case 1: {
        const bool erased = core::atomically(
            tm, [&](core::TxView& tx) { return map.erase(tx, key); });
        ASSERT_EQ(erased, ref.erase(key) == 1) << "key " << key;
        break;
      }
      default: {
        const auto got = core::atomically(
            tm, [&](core::TxView& tx) { return map.get(tx, key); });
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << "key " << key;
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(map.size_quiescent(), ref.size());
}

template <typename Model>
void run_queue_oracle(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 8;
  TQueueT<Model> queue(tm, 0, kCap);
  queue.init();
  std::deque<core::Value> ref;
  runtime::Xoshiro256 rng(77);
  core::Value next = 1;
  for (int i = 0; i < 1200; ++i) {
    if (rng.next_bool(0.55)) {
      const core::Value v = next++;
      const bool queued = core::atomically(
          tm, [&](core::TxView& tx) { return queue.enqueue(tx, v); });
      ASSERT_EQ(queued, ref.size() < kCap);
      if (queued) ref.push_back(v);
    } else {
      const auto got = core::atomically(
          tm, [&](core::TxView& tx) { return queue.dequeue(tx); });
      ASSERT_EQ(got.has_value(), !ref.empty());
      if (got.has_value()) {
        ASSERT_EQ(*got, ref.front());
        ref.pop_front();
      }
    }
  }
  EXPECT_EQ(queue.size_quiescent(), ref.size());
}

TEST_P(DsConformanceTest, ListMatchesSequentialOracle) {
  auto tm = make(TListSet::tvars_needed(64));
  core::with_memory_model(*tm, [&](auto tag) {
    run_sorted_set_oracle<TListSetT, typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, SkipListMatchesSequentialOracle) {
  auto tm = make(TSkipListSet::tvars_needed(64));
  core::with_memory_model(*tm, [&](auto tag) {
    run_sorted_set_oracle<TSkipListSetT, typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, MapMatchesSequentialOracle) {
  auto tm = make(THashMap::tvars_needed(64));
  core::with_memory_model(*tm, [&](auto tag) {
    run_map_oracle<typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, QueueMatchesSequentialOracle) {
  auto tm = make(TQueue::tvars_needed(8));
  core::with_memory_model(*tm, [&](auto tag) {
    run_queue_oracle<typename decltype(tag)::type>(*tm);
  });
}

// Composition across containers stays atomic on every layout: the
// queue -> map transfer transaction from the examples, oracle-checked.
template <typename Model>
void run_transfer_oracle(core::TransactionalMemory& tm) {
  using Map = THashMapT<Model>;
  using Queue = TQueueT<Model>;
  Queue queue(tm, 0, 8);
  Map map(tm, static_cast<core::TVarId>(Queue::tvars_needed(8)), 16);
  queue.init();
  map.init();
  core::atomically(tm, [&](core::TxView& tx) {
    for (core::Value v = 1; v <= 5; ++v) ASSERT_TRUE(queue.enqueue(tx, v));
  });
  for (int i = 0; i < 5; ++i) {
    core::atomically(tm, [&](core::TxView& tx) {
      const auto v = queue.dequeue(tx);
      ASSERT_TRUE(v.has_value());
      map.put(tx, *v, *v * 10);
    });
  }
  core::atomically(tm, [&](core::TxView& tx) {
    EXPECT_EQ(queue.size(tx), 0u);
    for (core::Value v = 1; v <= 5; ++v) {
      EXPECT_EQ(map.get(tx, v).value(), v * 10);
    }
  });
}

TEST_P(DsConformanceTest, ComposedTransferAcrossLayouts) {
  auto tm = make(TQueue::tvars_needed(8) + THashMap::tvars_needed(16));
  core::with_memory_model(*tm, [&](auto tag) {
    run_transfer_oracle<typename decltype(tag)::type>(*tm);
  });
}

// ---------------------------------------------------------------------------
// Satellite: THashMap tombstone hygiene. A put/erase cycle of a key that
// leaves the table empty again must leave the table *clean* again —
// erase-time trimming reverts the tombstone because its physical successor
// is empty. Before the fix every churned hash slot stayed a tombstone
// forever and absent-key lookups degraded toward full-table scans.

template <typename Model>
void run_probe_churn(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 16;
  THashMapT<Model> map(tm, 0, kCap);
  map.init();
  for (std::uint64_t round = 0; round < 3 * kCap; ++round) {
    const std::uint64_t key = 1000 + round;
    core::atomically(tm, [&](core::TxView& tx) {
      EXPECT_TRUE(map.put(tx, key, round));
    });
    core::atomically(tm,
                     [&](core::TxView& tx) { EXPECT_TRUE(map.erase(tx, key)); });
  }
  EXPECT_EQ(map.size_quiescent(), 0u);
  // As clean as freshly initialized: every lookup terminates on probe 1.
  for (std::uint64_t k = 0; k < 2 * kCap; ++k) {
    EXPECT_EQ(map.probe_length_quiescent(2000 + k), 1u) << "key " << 2000 + k;
  }
}

// Steady live population with fresh keys churning through: probe lengths
// must stay bounded away from a full-table scan instead of degrading
// monotonically. Deterministic (fixed keys, fixed hash).
template <typename Model>
void run_probe_churn_with_live_keys(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 16;
  THashMapT<Model> map(tm, 0, kCap);
  map.init();
  std::deque<std::uint64_t> live;
  std::uint64_t next_key = 1;
  for (int i = 0; i < 4; ++i) {
    core::atomically(tm, [&](core::TxView& tx) {
      EXPECT_TRUE(map.put(tx, next_key, next_key));
    });
    live.push_back(next_key++);
  }
  for (int round = 0; round < 200; ++round) {
    core::atomically(tm, [&](core::TxView& tx) {
      EXPECT_TRUE(map.put(tx, next_key, next_key));
    });
    live.push_back(next_key++);
    const std::uint64_t victim = live.front();
    live.pop_front();
    core::atomically(
        tm, [&](core::TxView& tx) { EXPECT_TRUE(map.erase(tx, victim)); });
  }
  EXPECT_EQ(map.size_quiescent(), 4u);
  for (const std::uint64_t k : live) {
    EXPECT_LT(map.probe_length_quiescent(k), kCap) << "live key " << k;
  }
  // An absent key must terminate before scanning the whole table.
  EXPECT_LT(map.probe_length_quiescent(~std::uint64_t{0} - 7), kCap);
}

TEST_P(DsConformanceTest, HashMapProbeLengthStableUnderChurn) {
  auto tm = make(THashMap::tvars_needed(16));
  core::with_memory_model(*tm, [&](auto tag) {
    run_probe_churn<typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, HashMapProbeLengthBoundedWithLivePopulation) {
  auto tm = make(THashMap::tvars_needed(16));
  core::with_memory_model(*tm, [&](auto tag) {
    run_probe_churn_with_live_keys<typename decltype(tag)::type>(*tm);
  });
}

// ---------------------------------------------------------------------------
// Satellite: TQueue monotone-position edge cases.

// Positions keep increasing past capacity; the ring indexing (pos mod
// capacity) must preserve FIFO across many wraparounds.
template <typename Model>
void run_queue_wraparound(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 4;
  TQueueT<Model> queue(tm, 0, kCap);
  queue.init();
  std::vector<core::Value> out;
  core::Value next = 1;
  for (int round = 0; round < 12; ++round) {  // 24 positions = 6 full wraps
    core::atomically(tm, [&](core::TxView& tx) {
      ASSERT_TRUE(queue.enqueue(tx, next));
      ASSERT_TRUE(queue.enqueue(tx, next + 1));
    });
    next += 2;
    core::atomically(tm, [&](core::TxView& tx) {
      const auto a = queue.dequeue(tx);
      const auto b = queue.dequeue(tx);
      ASSERT_TRUE(a.has_value() && b.has_value());
      out.push_back(*a);
      out.push_back(*b);
    });
  }
  ASSERT_EQ(out.size(), 24u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<core::Value>(i + 1));  // strict FIFO
  }
  EXPECT_EQ(queue.size_quiescent(), 0u);
}

template <typename Model>
void run_queue_full_empty_boundary(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 4;
  TQueueT<Model> queue(tm, 0, kCap);
  queue.init();
  core::atomically(tm, [&](core::TxView& tx) {
    EXPECT_FALSE(queue.dequeue(tx).has_value());  // empty at start
    for (core::Value v = 1; v <= kCap; ++v) EXPECT_TRUE(queue.enqueue(tx, v));
    EXPECT_FALSE(queue.enqueue(tx, 99));  // full
    EXPECT_EQ(queue.size(tx), std::uint64_t{kCap});
  });
  core::atomically(tm, [&](core::TxView& tx) {
    for (core::Value v = 1; v <= kCap; ++v) {
      EXPECT_EQ(queue.dequeue(tx).value(), v);
    }
    EXPECT_FALSE(queue.dequeue(tx).has_value());  // empty again
    // The boundary is reusable: a second full fill right after the drain.
    for (core::Value v = 10; v < 10 + kCap; ++v) {
      EXPECT_TRUE(queue.enqueue(tx, v));
    }
    EXPECT_FALSE(queue.enqueue(tx, 99));
  });
  EXPECT_EQ(queue.size_quiescent(), std::uint64_t{kCap});
}

// Dead-view composition: on a forcefully aborted transaction every
// container read poisons to 0, so dequeue must resolve to "empty"
// (nullopt), enqueue to false, and ok() to false — never garbage values —
// and none of it may perturb committed state.
template <typename Model>
void run_queue_poison_composition(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCap = 4;
  TQueueT<Model> queue(tm, 0, kCap);
  queue.init();
  core::atomically(tm, [&](core::TxView& tx) {
    ASSERT_TRUE(queue.enqueue(tx, 41));
    ASSERT_TRUE(queue.enqueue(tx, 42));
  });

  core::TxnPtr txn = tm.begin();
  core::TxView tx(tm, *txn);
  tm.try_abort(*txn);  // the view is now doomed: every read poisons
  EXPECT_FALSE(queue.dequeue(tx).has_value());
  EXPECT_FALSE(tx.ok());
  EXPECT_FALSE(queue.enqueue(tx, 99));
  EXPECT_EQ(queue.size(tx), 0u);  // poison positions, not a snapshot

  // Committed state is untouched by the doomed attempt.
  EXPECT_EQ(queue.size_quiescent(), 2u);
  core::atomically(tm, [&](core::TxView& fresh) {
    EXPECT_EQ(queue.dequeue(fresh).value(), 41u);
    EXPECT_EQ(queue.dequeue(fresh).value(), 42u);
  });
}

TEST_P(DsConformanceTest, QueueWraparoundPastCapacity) {
  auto tm = make(TQueue::tvars_needed(4));
  core::with_memory_model(*tm, [&](auto tag) {
    run_queue_wraparound<typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, QueueFullEmptyBoundary) {
  auto tm = make(TQueue::tvars_needed(4));
  core::with_memory_model(*tm, [&](auto tag) {
    run_queue_full_empty_boundary<typename decltype(tag)::type>(*tm);
  });
}

TEST_P(DsConformanceTest, QueueDequeueOnEmptyComposesWithPoison) {
  auto tm = make(TQueue::tvars_needed(4));
  core::with_memory_model(*tm, [&](auto tag) {
    run_queue_poison_composition<typename decltype(tag)::type>(*tm);
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, DsConformanceTest,
                         ::testing::ValuesIn(ds_backends()),
                         conformance::backend_param_name);
INSTANTIATE_TEST_SUITE_P(LayoutsSessionTier, DsConformanceTest,
                         ::testing::ValuesIn(ds_backends_session_tier()),
                         conformance::backend_param_name);

}  // namespace
}  // namespace oftm::ds
