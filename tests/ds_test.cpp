// Transactional data-structure tests: sequential semantics, composed
// multi-container transactions, concurrent stress with structural audits —
// parameterized across backends.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "ds/thashmap.hpp"
#include "ds/tlist.hpp"
#include "ds/tqueue.hpp"
#include "ds/tskiplist.hpp"
#include "runtime/xorshift.hpp"
#include "workload/factory.hpp"

namespace oftm::ds {
namespace {

class DsTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<core::TransactionalMemory> make(std::size_t tvars) {
    return workload::make_tm(GetParam(), tvars);
  }
};

// The sorted-set cases run over both TListSet and TSkipListSet.
template <typename Set>
void sorted_set_sequential_semantics(core::TransactionalMemory& tm) {
  Set set(tm, 0, 16);
  set.init();
  core::atomically(tm, [&](core::TxView& tx) {
    EXPECT_TRUE(set.insert(tx, 5));
    EXPECT_TRUE(set.insert(tx, 3));
    EXPECT_TRUE(set.insert(tx, 9));
    EXPECT_FALSE(set.insert(tx, 5));  // duplicate
    EXPECT_TRUE(set.contains(tx, 3));
    EXPECT_FALSE(set.contains(tx, 4));
    EXPECT_EQ(set.size(tx), 3u);
    EXPECT_TRUE(set.erase(tx, 3));
    EXPECT_FALSE(set.erase(tx, 3));
    EXPECT_EQ(set.size(tx), 2u);
  });
  EXPECT_TRUE(set.audit_quiescent());
}

template <typename Set>
void sorted_set_node_recycling(core::TransactionalMemory& tm) {
  Set set(tm, 0, 4);
  set.init();
  // Fill to capacity, drain, refill — exercises the free list fully.
  for (int round = 0; round < 3; ++round) {
    core::atomically(tm, [&](core::TxView& tx) {
      for (std::uint64_t k = 1; k <= 4; ++k) {
        EXPECT_TRUE(set.insert(tx, k * 10 + static_cast<std::uint64_t>(round)));
      }
    });
    core::atomically(tm, [&](core::TxView& tx) {
      for (std::uint64_t k = 1; k <= 4; ++k) {
        EXPECT_TRUE(set.erase(tx, k * 10 + static_cast<std::uint64_t>(round)));
      }
    });
    EXPECT_TRUE(set.audit_quiescent());
  }
}

template <typename Set>
void sorted_set_abort_rolls_back(core::TransactionalMemory& tm) {
  Set set(tm, 0, 8);
  set.init();
  core::atomically(tm, [&](core::TxView& tx) { set.insert(tx, 1); });
  try {
    core::atomically(tm, [&](core::TxView& tx) {
      set.insert(tx, 2);
      set.insert(tx, 3);
      tx.cancel();  // user abort: nothing of this transaction survives
    });
  } catch (const core::TxCancelled&) {
  }
  core::atomically(tm, [&](core::TxView& tx) {
    EXPECT_TRUE(set.contains(tx, 1));
    EXPECT_FALSE(set.contains(tx, 2));
    EXPECT_FALSE(set.contains(tx, 3));
    EXPECT_EQ(set.size(tx), 1u);
  });
  EXPECT_TRUE(set.audit_quiescent());
}

TEST_P(DsTest, ListSetSequentialSemantics) {
  auto tm = make(TListSet::tvars_needed(16));
  sorted_set_sequential_semantics<TListSet>(*tm);
}

TEST_P(DsTest, SkipListSetSequentialSemantics) {
  auto tm = make(TSkipListSet::tvars_needed(16));
  sorted_set_sequential_semantics<TSkipListSet>(*tm);
}

TEST_P(DsTest, ListSetNodeRecycling) {
  auto tm = make(TListSet::tvars_needed(4));
  sorted_set_node_recycling<TListSet>(*tm);
}

TEST_P(DsTest, SkipListSetNodeRecycling) {
  auto tm = make(TSkipListSet::tvars_needed(4));
  sorted_set_node_recycling<TSkipListSet>(*tm);
}

TEST_P(DsTest, ListSetAbortRollsBackStructure) {
  auto tm = make(TListSet::tvars_needed(8));
  sorted_set_abort_rolls_back<TListSet>(*tm);
}

TEST_P(DsTest, SkipListSetAbortRollsBackStructure) {
  auto tm = make(TSkipListSet::tvars_needed(8));
  sorted_set_abort_rolls_back<TSkipListSet>(*tm);
}

TEST_P(DsTest, HashMapSequentialSemantics) {
  auto tm = make(THashMap::tvars_needed(16));
  THashMap map(*tm, 0, 16);
  map.init();
  core::atomically(*tm, [&](core::TxView& tx) {
    EXPECT_TRUE(map.put(tx, 1, 100));
    EXPECT_TRUE(map.put(tx, 2, 200));
    EXPECT_FALSE(map.put(tx, 1, 101));  // overwrite, not insert
    EXPECT_EQ(map.get(tx, 1).value(), 101u);
    EXPECT_EQ(map.get(tx, 2).value(), 200u);
    EXPECT_FALSE(map.get(tx, 3).has_value());
    EXPECT_EQ(map.size(tx), 2u);
    EXPECT_TRUE(map.erase(tx, 1));
    EXPECT_FALSE(map.erase(tx, 1));
    EXPECT_FALSE(map.get(tx, 1).has_value());
  });
}

TEST_P(DsTest, HashMapTombstoneReuseAndCollisions) {
  auto tm = make(THashMap::tvars_needed(8));
  THashMap map(*tm, 0, 8);
  map.init();
  // Insert through collisions up to near capacity, delete, reinsert.
  core::atomically(*tm, [&](core::TxView& tx) {
    for (std::uint64_t k = 0; k < 6; ++k) EXPECT_TRUE(map.put(tx, k, k));
  });
  core::atomically(*tm, [&](core::TxView& tx) {
    for (std::uint64_t k = 0; k < 6; k += 2) EXPECT_TRUE(map.erase(tx, k));
  });
  core::atomically(*tm, [&](core::TxView& tx) {
    for (std::uint64_t k = 10; k < 13; ++k) EXPECT_TRUE(map.put(tx, k, k));
    for (std::uint64_t k = 1; k < 6; k += 2) {
      EXPECT_EQ(map.get(tx, k).value(), k);
    }
    for (std::uint64_t k = 10; k < 13; ++k) {
      EXPECT_EQ(map.get(tx, k).value(), k);
    }
  });
}

TEST_P(DsTest, QueueFifoAndBounds) {
  auto tm = make(TQueue::tvars_needed(4));
  TQueue queue(*tm, 0, 4);
  queue.init();
  core::atomically(*tm, [&](core::TxView& tx) {
    EXPECT_FALSE(queue.dequeue(tx).has_value());
    for (core::Value v = 1; v <= 4; ++v) EXPECT_TRUE(queue.enqueue(tx, v));
    EXPECT_FALSE(queue.enqueue(tx, 5));  // full
    EXPECT_EQ(queue.size(tx), 4u);
  });
  core::atomically(*tm, [&](core::TxView& tx) {
    for (core::Value v = 1; v <= 4; ++v) {
      EXPECT_EQ(queue.dequeue(tx).value(), v);  // FIFO
    }
    EXPECT_FALSE(queue.dequeue(tx).has_value());
  });
}

TEST_P(DsTest, ComposedTransferBetweenContainers) {
  // Atomic move queue -> map: either both effects or neither.
  auto tm = make(TQueue::tvars_needed(8) + THashMap::tvars_needed(16));
  TQueue queue(*tm, 0, 8);
  THashMap map(*tm, static_cast<core::TVarId>(TQueue::tvars_needed(8)), 16);
  queue.init();
  map.init();
  core::atomically(*tm, [&](core::TxView& tx) {
    queue.enqueue(tx, 42);
    queue.enqueue(tx, 43);
  });
  core::atomically(*tm, [&](core::TxView& tx) {
    const auto v = queue.dequeue(tx);
    ASSERT_TRUE(v.has_value());
    map.put(tx, *v, 1);
  });
  core::atomically(*tm, [&](core::TxView& tx) {
    EXPECT_TRUE(map.get(tx, 42).has_value());
    EXPECT_FALSE(map.get(tx, 43).has_value());
    EXPECT_EQ(queue.size(tx), 1u);
  });
}

// FOCTM (Algorithm 2) is excluded from the walk-heavy *concurrent* stress
// tests: it has no contention manager and acquires exclusive revocable
// ownership even for reads (line 2 = acquire), so concurrent list walkers
// revoke each other indefinitely — the liveness face of the paper's own
// "rather impractical" verdict (footnote 6). Its sequential semantics are
// fully covered above; its concurrency is exercised by the low-sharing
// workloads in stm_stress_test.
bool walk_heavy_concurrency_unsuitable(const std::string& backend) {
  return backend.rfind("foctm", 0) == 0;
}

template <typename Set>
void concurrent_sorted_set_stress(core::TransactionalMemory& tm) {
  constexpr std::uint32_t kCapacity = 64;
  Set set(tm, 0, kCapacity);
  set.init();
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      runtime::Xoshiro256 rng(33 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.next_range(40) + 1;
        if (rng.next_bool(0.5)) {
          core::atomically(tm, [&](core::TxView& tx) { set.insert(tx, key); });
        } else {
          core::atomically(tm, [&](core::TxView& tx) { set.erase(tx, key); });
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(set.audit_quiescent());
}

TEST_P(DsTest, ConcurrentListStressKeepsStructure) {
  if (walk_heavy_concurrency_unsuitable(GetParam())) {
    GTEST_SKIP() << "Algorithm 2 livelocks on hot shared structures";
  }
  auto tm = make(TListSet::tvars_needed(64));
  concurrent_sorted_set_stress<TListSet>(*tm);
}

TEST_P(DsTest, ConcurrentSkipListStressKeepsStructure) {
  if (walk_heavy_concurrency_unsuitable(GetParam())) {
    GTEST_SKIP() << "Algorithm 2 livelocks on hot shared structures";
  }
  auto tm = make(TSkipListSet::tvars_needed(64));
  concurrent_sorted_set_stress<TSkipListSet>(*tm);
}

TEST_P(DsTest, ConcurrentQueueConservesItems) {
  if (walk_heavy_concurrency_unsuitable(GetParam())) {
    GTEST_SKIP() << "Algorithm 2 livelocks on hot shared structures";
  }
  auto tm = make(TQueue::tvars_needed(32));
  TQueue queue(*tm, 0, 32);
  queue.init();
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kItemsPerProducer = 2000;
  std::atomic<std::uint64_t> produced_sum{0};
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> consumed_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 1; i <= kItemsPerProducer; ++i) {
        const core::Value v = (static_cast<core::Value>(p) << 32) | i;
        for (;;) {
          if (core::atomically(*tm, [&](core::TxView& tx) {
                return queue.enqueue(tx, v);
              })) {
            produced_sum.fetch_add(v);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed_count.load() < kProducers * kItemsPerProducer) {
        const auto v = core::atomically(
            *tm, [&](core::TxView& tx) { return queue.dequeue(tx); });
        if (v.has_value()) {
          consumed_sum.fetch_add(*v);
          consumed_count.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed_count.load(), kProducers * kItemsPerProducer);
  EXPECT_EQ(consumed_sum.load(), produced_sum.load());
  EXPECT_EQ(queue.size_quiescent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DsTest,
    ::testing::Values("dstm", "dstm:karma", "foctm-hinted", "tl", "tl2",
                      "coarse"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// What only the skip list has: towers, their budget and their audit. Runs
// on one boxed and one region recipe; the layout follows the backend.

class SkipListLayoutTest : public ::testing::TestWithParam<std::string> {
 protected:
  template <typename F>
  void run(std::size_t words, F&& body) {
    auto tm = workload::make_tm_for_containers(GetParam(), words);
    core::with_memory_model(*tm, [&](auto tag) {
      body(*tm, core::ModelTag<typename decltype(tag)::type>{});
    });
  }
};

// Damaging one index node must fail the level audit, and undoing the
// damage must pass it again. The test reaches inside the node through a
// second model instance over the same words: the model's own field access.
TEST_P(SkipListLayoutTest, AuditCatchesCorruptedTower) {
  constexpr std::uint32_t kCap = 64;
  run(TSkipListSet::tvars_needed(kCap), [&](auto& tm, auto tag) {
    using Model = typename decltype(tag)::type;
    using Set = TSkipListSetT<Model>;
    using Node = typename Set::Node;
    Set set(tm, 0, kCap);
    set.init();
    core::atomically(tm, [&](core::TxView& tx) {
      for (std::uint64_t k = 1; k <= kCap; ++k) set.insert(tx, 2 * k);
    });
    ASSERT_TRUE(set.audit_quiescent());
    const core::TxPtr<Node> index{set.head_quiescent(1)};
    ASSERT_TRUE(index) << kCap << " keys built no tower";

    Model words(tm, 0, Set::tvars_needed(kCap));
    const auto field = [&](core::Value Node::*f) {
      return words.load_quiescent(index.ref, core::field_index(f));
    };
    const auto poke = [&](core::Value Node::*f, core::Value v) {
      core::atomically(tm, [&](core::TxView& tx) {
        core::tx_set(words, tx, index, f, v);
      });
    };
    const core::Value key = field(&Node::key);
    const core::Value down = field(&Node::down);

    // The index key no longer matches the base node below it (an odd key:
    // no base node holds it).
    poke(&Node::key, key - 1);
    EXPECT_FALSE(set.audit_quiescent()) << "index key != down key";
    poke(&Node::key, key);
    EXPECT_TRUE(set.audit_quiescent());

    // The tower's down ref skips to the next base node.
    const core::Value next_base =
        words.load_quiescent(down, core::field_index(&Node::next));
    ASSERT_NE(next_base, core::kNullRef);
    poke(&Node::down, next_base);
    EXPECT_FALSE(set.audit_quiescent()) << "down ref off its key";
    poke(&Node::down, core::kNullRef);
    EXPECT_FALSE(set.audit_quiescent()) << "index node without down ref";
    poke(&Node::down, down);
    EXPECT_TRUE(set.audit_quiescent());
  });
}

// Every key here wants at least two index nodes, so the budget (one index
// node per unit of capacity) runs out: towers shorten, inserts never fail,
// and erasing frees budget for the next round.
TEST_P(SkipListLayoutTest, TowerBudgetShortensTowersNotInserts) {
  constexpr std::uint32_t kCap = 8;
  std::vector<std::uint64_t> keys;
  int wanted_index_nodes = 0;
  for (std::uint64_t k = 1; keys.size() < kCap; ++k) {
    if (TSkipListSet::tower_height(k) >= 3) {
      keys.push_back(k);
      wanted_index_nodes += TSkipListSet::tower_height(k) - 1;
    }
  }
  ASSERT_GT(wanted_index_nodes, static_cast<int>(kCap));
  run(TSkipListSet::tvars_needed(kCap), [&](auto& tm, auto tag) {
    TSkipListSetT<typename decltype(tag)::type> set(tm, 0, kCap);
    set.init();
    for (std::size_t round = 0; round < 3; ++round) {
      for (const std::uint64_t k : keys) {
        EXPECT_TRUE(core::atomically(
            tm, [&](core::TxView& tx) { return set.insert(tx, k); }))
            << "key " << k << " round " << round;
      }
      EXPECT_TRUE(set.audit_quiescent()) << "round " << round;
      core::atomically(tm, [&](core::TxView& tx) {
        EXPECT_EQ(set.size(tx), std::uint64_t{kCap});
        for (const std::uint64_t k : keys) EXPECT_TRUE(set.contains(tx, k));
      });
      // Erase in a rotated order so the next round's towers differ.
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t k = keys[(i + round) % keys.size()];
        EXPECT_TRUE(core::atomically(
            tm, [&](core::TxView& tx) { return set.erase(tx, k); }));
      }
      EXPECT_TRUE(set.audit_quiescent()) << "round " << round;
    }
  });
}

// A search reads O(log n) nodes: at 65,536 keys the mean number of
// transactional reads per contains stays under a logarithmic bound, where
// a sorted list would read half the keys. Pins the read count, not a wall
// clock.
TEST_P(SkipListLayoutTest, ContainsReadsStayLogarithmic) {
  constexpr std::uint32_t kKeys = 65'536;
  constexpr int kProbes = 4096;
  run(TSkipListSet::tvars_needed(kKeys), [&](auto& tm, auto tag) {
    TSkipListSetT<typename decltype(tag)::type> set(tm, 0, kKeys);
    set.init();
    constexpr std::uint64_t kBatch = 64;
    for (std::uint64_t at = 0; at < kKeys; at += kBatch) {
      core::atomically(tm, [&](core::TxView& tx) {
        for (std::uint64_t i = at; i < at + kBatch; ++i) {
          set.insert(tx, 2 * i + 1);
        }
      });
    }
    ASSERT_TRUE(set.audit_quiescent());

    tm.reset_stats();
    runtime::Xoshiro256 rng(5);
    int present = 0;
    for (int i = 0; i < kProbes; ++i) {
      const std::uint64_t key = rng.next_range(2 * kKeys + 2);
      present += core::atomically(
          tm, [&](core::TxView& tx) { return set.contains(tx, key); });
    }
    EXPECT_GT(present, 0);
    EXPECT_LT(present, kProbes);
    const double reads_per_contains =
        static_cast<double>(tm.stats().reads) / kProbes;
    EXPECT_LE(reads_per_contains, 96.0)
        << "mean reads per contains at " << kKeys << " keys";
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SkipListLayoutTest, ::testing::Values("tl2", "tl2-region"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace oftm::ds
