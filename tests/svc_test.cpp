// Unit tests for the sharded KV service (src/svc/): router determinism,
// seeding and the conservation audit, point-op semantics, the 2PC fast
// path / prepare-fail rollback / insufficient-funds votes, counter
// reconciliation under an abort storm, and shard-count transparency — a
// 1-shard and a 5-shard service driven by the same deterministic op
// sequence must be observationally identical (and match a plain map).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/memory_model.hpp"
#include "core/tm.hpp"
#include "runtime/xorshift.hpp"
#include "svc/service.hpp"

namespace oftm::svc {
namespace {

// A boxed-layout service plus the TMs it borrows, seeded and ready.
struct BoxedService {
  ServiceConfig cfg;
  std::vector<std::unique_ptr<core::TransactionalMemory>> tms;
  std::vector<core::TransactionalMemory*> raw;
  std::unique_ptr<KvServiceT<core::BoxedMemory>> svc;

  explicit BoxedService(ServiceConfig c) : cfg(std::move(c)) {
    tms = make_service_tms(cfg);
    for (auto& t : tms) raw.push_back(t.get());
    svc = std::make_unique<KvServiceT<core::BoxedMemory>>(cfg, raw);
    svc->init_and_seed();
  }
};

ServiceConfig small_config(int shards) {
  ServiceConfig cfg;
  cfg.backend = "tl2";
  cfg.num_shards = shards;
  cfg.clients = 2;
  cfg.keys = 256;
  return cfg;
}

// First key pair (src, dst) whose shards satisfy `order(s_src, s_dst)`.
template <typename Pred>
std::pair<std::uint64_t, std::uint64_t> find_pair(const ShardRouter& router,
                                                  std::uint64_t keys,
                                                  Pred order) {
  for (std::uint64_t a = 0; a < keys; ++a) {
    for (std::uint64_t b = 0; b < keys; ++b) {
      if (a != b && order(router.shard_of(a), router.shard_of(b))) {
        return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no key pair with the requested shard order";
  return {0, 1};
}

TEST(SvcRouter, DeterministicAndCoversAllShards) {
  const ShardRouter router(8);
  std::set<int> hit;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const int s = router.shard_of(k);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ASSERT_EQ(s, router.shard_of(k)) << "routing must be deterministic";
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 8u) << "hash partitioning left a shard empty";

  // Routers of equal shard count agree (the service and the tests build
  // separate instances and rely on this).
  const ShardRouter other(8);
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(router.shard_of(k), other.shard_of(k));
  }
}

TEST(SvcService, SeedPartitionsAllKeysAndAuditPasses) {
  BoxedService b(small_config(4));
  std::uint64_t owned = 0;
  for (int i = 0; i < 4; ++i) {
    owned += b.svc->shard(i).keys_owned_quiescent();
    EXPECT_EQ(b.svc->shard(i).locks_held_quiescent(), 0u);
    EXPECT_TRUE(b.svc->shard(i).audit_index_quiescent());
  }
  EXPECT_EQ(owned, b.cfg.keys);

  std::string why;
  EXPECT_TRUE(b.svc->audit(&why)) << why;

  // Every key reads back its seed balance through the router.
  for (std::uint64_t k = 0; k < b.cfg.keys; ++k) {
    ASSERT_EQ(b.svc->do_get(k),
              static_cast<core::Value>(b.cfg.initial_balance));
  }
}

TEST(SvcService, PutAddAccumulatesAndFeedsTheConservationTerm) {
  BoxedService b(small_config(4));
  b.svc->do_put(7, 25);
  b.svc->do_put(7, 5);
  b.svc->do_put(200, 1);
  EXPECT_EQ(b.svc->do_get(7), b.cfg.initial_balance + 30);
  EXPECT_EQ(b.svc->do_get(200), b.cfg.initial_balance + 1);

  core::Value delta = 0;
  for (int i = 0; i < 4; ++i) delta += b.svc->shard(i).applied_put_delta();
  EXPECT_EQ(delta, 31);

  std::string why;
  EXPECT_TRUE(b.svc->audit(&why)) << why;
}

TEST(SvcCoordinator, SingleShardTakesOnlyTheFastPath) {
  BoxedService b(small_config(1));
  CoordinatorStats stats;
  EXPECT_EQ(b.svc->do_transfer(3, 9, 100, stats), Vote::kYes);
  EXPECT_EQ(b.svc->do_transfer(9, 3, 40, stats), Vote::kYes);
  EXPECT_EQ(stats.transfers_attempted, 2u);
  EXPECT_EQ(stats.committed_fast_path, 2u);
  EXPECT_EQ(stats.committed_two_phase, 0u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(b.svc->do_get(3), b.cfg.initial_balance - 100 + 40);
  EXPECT_EQ(b.svc->do_get(9), b.cfg.initial_balance + 100 - 40);
  EXPECT_TRUE(b.svc->audit());
}

TEST(SvcCoordinator, CrossShardTransferRunsTheFullProtocol) {
  BoxedService b(small_config(4));
  const auto [src, dst] = find_pair(b.svc->router(), b.cfg.keys,
                                    [](int s, int d) { return s != d; });
  CoordinatorStats stats;
  EXPECT_EQ(b.svc->do_transfer(src, dst, 123, stats), Vote::kYes);
  EXPECT_EQ(stats.committed_two_phase, 1u);
  EXPECT_EQ(stats.committed_fast_path, 0u);
  EXPECT_EQ(b.svc->do_get(src), b.cfg.initial_balance - 123);
  EXPECT_EQ(b.svc->do_get(dst), b.cfg.initial_balance + 123);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.svc->shard(i).locks_held_quiescent(), 0u);
  }
  EXPECT_TRUE(b.svc->audit());
}

TEST(SvcCoordinator, SecondPrepareBusyRollsBackTheFirst) {
  BoxedService b(small_config(4));
  // shard(src) < shard(dst): dst is prepared *second*, so a lock on dst
  // forces the rollback path (first prepared, then released).
  const auto [src, dst] = find_pair(b.svc->router(), b.cfg.keys,
                                    [](int s, int d) { return s < d; });
  constexpr std::uint64_t kForeignToken = 0xF00D;
  ASSERT_EQ(b.svc->shard_for(dst).prepare(dst, kForeignToken, 0), Vote::kYes);

  CoordinatorStats stats;
  EXPECT_EQ(b.svc->do_transfer(src, dst, 10, stats), Vote::kBusy);
  EXPECT_EQ(stats.busy_second, 1u);
  EXPECT_EQ(stats.busy_first, 0u);
  EXPECT_EQ(stats.rollbacks, 1u) << "prepared src lock must be released";
  EXPECT_EQ(stats.committed_two_phase, 0u);

  // No residue: balances untouched, only the foreign lock remains.
  EXPECT_EQ(b.svc->do_get(src), static_cast<core::Value>(b.cfg.initial_balance));
  EXPECT_EQ(b.svc->do_get(dst), static_cast<core::Value>(b.cfg.initial_balance));
  EXPECT_EQ(b.svc->shard_for(src).locks_held_quiescent(), 0u);
  EXPECT_EQ(b.svc->shard_for(dst).locks_held_quiescent(), 1u);

  // Clear the foreign lock; the same transfer now commits.
  b.svc->shard_for(dst).release(dst, kForeignToken);
  EXPECT_EQ(b.svc->do_transfer(src, dst, 10, stats), Vote::kYes);
  EXPECT_EQ(stats.committed_two_phase, 1u);
  EXPECT_TRUE(b.svc->audit());
}

TEST(SvcCoordinator, FirstPrepareBusyAbortsBeforeAnyLock) {
  BoxedService b(small_config(4));
  const auto [src, dst] = find_pair(b.svc->router(), b.cfg.keys,
                                    [](int s, int d) { return s < d; });
  constexpr std::uint64_t kForeignToken = 0xBEEF;
  ASSERT_EQ(b.svc->shard_for(src).prepare(src, kForeignToken, 0), Vote::kYes);

  CoordinatorStats stats;
  EXPECT_EQ(b.svc->do_transfer(src, dst, 10, stats), Vote::kBusy);
  EXPECT_EQ(stats.busy_first, 1u);
  EXPECT_EQ(stats.rollbacks, 0u) << "nothing was prepared, nothing to release";
  EXPECT_EQ(b.svc->shard_for(dst).locks_held_quiescent(), 0u);
  b.svc->shard_for(src).release(src, kForeignToken);
  EXPECT_TRUE(b.svc->audit());
}

TEST(SvcCoordinator, InsufficientFundsIsFinalAndLockFree) {
  BoxedService b(small_config(4));
  const auto [src, dst] = find_pair(b.svc->router(), b.cfg.keys,
                                    [](int s, int d) { return s != d; });
  CoordinatorStats stats;
  EXPECT_EQ(b.svc->do_transfer(src, dst, b.cfg.initial_balance + 1, stats),
            Vote::kInsufficient);
  EXPECT_EQ(stats.insufficient, 1u);
  EXPECT_EQ(b.svc->do_get(src), static_cast<core::Value>(b.cfg.initial_balance));
  EXPECT_EQ(b.svc->do_get(dst), static_cast<core::Value>(b.cfg.initial_balance));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.svc->shard(i).locks_held_quiescent(), 0u);
  }

  // The debit side prepared *second* (shard(src) > shard(dst)): the credit
  // participant is already locked when the insufficient vote lands, so
  // this shape must also roll back cleanly.
  const auto [src2, dst2] = find_pair(b.svc->router(), b.cfg.keys,
                                      [](int s, int d) { return s > d; });
  CoordinatorStats stats2;
  EXPECT_EQ(b.svc->do_transfer(src2, dst2, b.cfg.initial_balance + 1, stats2),
            Vote::kInsufficient);
  EXPECT_EQ(stats2.insufficient, 1u);
  EXPECT_EQ(stats2.rollbacks, 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.svc->shard(i).locks_held_quiescent(), 0u);
  }
  EXPECT_TRUE(b.svc->audit());
}

// Transfer-only storm on a tiny hot keyspace: every counter the layers
// keep must reconcile exactly, and the audit must hold afterwards.
TEST(SvcService, AbortStormCountersReconcile) {
  ServiceConfig cfg = small_config(4);
  cfg.keys = 64;
  cfg.clients = 4;
  cfg.put_fraction = 0.0;
  cfg.transfer_fraction = 0.9;
  cfg.scan_fraction = 0.0;
  cfg.churn_fraction = 0.0;
  cfg.ops_per_client = 1500;
  BoxedService b(cfg);

  const SvcRunResult r = b.svc->run_clients();

  // Attempt-level: every coordinator attempt ended in exactly one outcome.
  EXPECT_EQ(r.coord.transfers_attempted,
            r.coord.committed_fast_path + r.coord.committed_two_phase +
                r.coord.busy_first + r.coord.busy_second +
                r.coord.insufficient);
  // Client/protocol agreement, outcome by outcome.
  EXPECT_EQ(r.transfers_committed,
            r.coord.committed_fast_path + r.coord.committed_two_phase);
  EXPECT_EQ(r.transfers_insufficient, r.coord.insufficient);
  EXPECT_EQ(r.transfer_busy_retries, r.coord.busy_first + r.coord.busy_second);
  // Rollbacks are exactly the busy-or-insufficient verdicts that arrived
  // after a first participant had already prepared.
  EXPECT_LE(r.coord.rollbacks, r.coord.busy_second + r.coord.insufficient);
  // Op-level: completed ops partition into the per-kind counts.
  EXPECT_EQ(r.ops, r.gets + r.puts + r.scans + r.churns +
                       r.transfers_committed + r.transfers_insufficient);
  EXPECT_EQ(r.puts + r.scans + r.churns, 0u);
  EXPECT_GT(r.transfers_committed, 0u);
  EXPECT_EQ(r.op_latency_ns.count(), r.ops + r.transfers_gave_up);

  std::string why;
  EXPECT_TRUE(b.svc->audit(&why)) << why;
  for (int i = 0; i < cfg.num_shards; ++i) {
    EXPECT_EQ(b.svc->shard(i).locks_held_quiescent(), 0u);
  }
}

// Shard-count transparency: the same deterministic op sequence against a
// 1-shard and a 5-shard service yields identical observable results, and
// both match a plain std::unordered_map oracle.
TEST(SvcService, ShardCountIsObservationallyTransparent) {
  BoxedService one(small_config(1));
  BoxedService five(small_config(5));

  std::unordered_map<std::uint64_t, core::Value> oracle_balance;
  std::set<std::uint64_t> oracle_index;
  for (std::uint64_t k = 0; k < one.cfg.keys; ++k) {
    oracle_balance[k] = one.cfg.initial_balance;
    oracle_index.insert(k);
  }

  runtime::Xoshiro256 rng(2026);
  CoordinatorStats s1, s5;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.next_range(one.cfg.keys);
    switch (rng.next_range(5)) {
      case 0: {  // get
        const core::Value v1 = one.svc->do_get(key);
        const core::Value v5 = five.svc->do_get(key);
        ASSERT_EQ(v1, v5);
        ASSERT_EQ(v1, oracle_balance[key]);
        break;
      }
      case 1: {  // put
        const core::Value delta = rng.next_range(50) + 1;
        one.svc->do_put(key, delta);
        five.svc->do_put(key, delta);
        oracle_balance[key] += delta;
        break;
      }
      case 2: {  // transfer
        std::uint64_t dst = rng.next_range(one.cfg.keys);
        if (dst == key) dst = (dst + 1) % one.cfg.keys;
        const core::Value amount = rng.next_range(400) + 1;
        const Vote v1 = one.svc->do_transfer(key, dst, amount, s1);
        const Vote v5 = five.svc->do_transfer(key, dst, amount, s5);
        ASSERT_EQ(v1, v5) << "transfer verdict depends on shard count";
        ASSERT_NE(v1, Vote::kBusy) << "no concurrency, nothing can be busy";
        if (v1 == Vote::kYes) {
          oracle_balance[key] -= amount;
          oracle_balance[dst] += amount;
        } else {
          ASSERT_LT(oracle_balance[key], amount);
        }
        break;
      }
      case 3: {  // global ordered-index scan
        const std::uint64_t lo = rng.next_range(one.cfg.keys);
        const std::uint64_t hi = lo + rng.next_range(64) + 1;
        const std::uint64_t n1 = one.svc->do_scan_index(lo, hi);
        const std::uint64_t n5 = five.svc->do_scan_index(lo, hi);
        ASSERT_EQ(n1, n5);
        std::uint64_t expect = 0;
        for (std::uint64_t k : oracle_index) {
          if (k >= lo && k < hi) ++expect;
        }
        ASSERT_EQ(n1, expect);
        break;
      }
      default: {  // index churn
        one.svc->do_churn(key);
        five.svc->do_churn(key);
        if (!oracle_index.erase(key)) oracle_index.insert(key);
        break;
      }
    }
  }

  // Single-shard balance range scans match the oracle too.
  for (const auto& [lo, hi] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 256},
        {10, 50},
        {200, 230}}) {
    core::Value expect = 0;
    for (const auto& [k, v] : oracle_balance) {
      if (k >= lo && k < hi) expect += v;
    }
    EXPECT_EQ(one.svc->do_scan_balances(0, lo, hi), expect);
  }

  EXPECT_TRUE(one.svc->audit());
  EXPECT_TRUE(five.svc->audit());
  // The 5-shard run must actually have exercised the protocol.
  EXPECT_GT(s5.committed_two_phase, 0u);
  EXPECT_EQ(s1.committed_two_phase, 0u);
}

// End-to-end smoke on a region recipe through the runtime dispatcher —
// the same service code on tx_alloc'd heap words instead of t-var arenas.
TEST(SvcService, RegionRecipeEndToEnd) {
  ServiceConfig cfg;
  cfg.backend = "tl2-region";
  cfg.num_shards = 2;
  cfg.clients = 2;
  cfg.keys = 256;
  cfg.ops_per_client = 1200;
  const ServiceRun run = run_service(cfg);
  EXPECT_TRUE(run.audit_ok) << run.audit_why;
  EXPECT_GT(run.result.ops, 0u);
  EXPECT_GT(run.result.tm_stats.commits, 0u);
}

TEST(SvcService, NorecRecipeEndToEnd) {
  ServiceConfig cfg;
  cfg.backend = "norec";
  cfg.num_shards = 2;
  cfg.clients = 2;
  cfg.keys = 256;
  cfg.ops_per_client = 1200;
  const ServiceRun run = run_service(cfg);
  EXPECT_TRUE(run.audit_ok) << run.audit_why;
  EXPECT_GT(run.result.ops, 0u);
}

}  // namespace
}  // namespace oftm::svc
