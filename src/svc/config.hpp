// Configuration for the sharded transactional KV service (src/svc/).
//
// The service partitions one logical keyspace [0, keys) across
// `num_shards` *independent* TM instances — the regime "Distributed
// Transactional Systems Cannot Be Fast" (PAPERS.md) predicts the
// interesting cost curve in: single-shard operations stay as cheap as one
// TM allows, while cross-shard transfers pay a two-phase commit built
// from per-shard transactions (svc/coordinator.hpp).
//
// Every knob a run needs is here, so a report line carrying the config is
// reproducible without the source; the derived per-shard container sizing
// lives here too, so the service, the tests and the benches agree on the
// t-var layout byte for byte.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace oftm::svc {

inline constexpr std::uint32_t next_pow2(std::uint64_t v) noexcept {
  std::uint32_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

struct ServiceConfig {
  // Which factory recipe backs every shard (workload::make_tm_for_containers
  // grammar — boxed or region; the service dispatches the layout at runtime
  // via core::with_memory_model).
  std::string backend = "tl2";
  int num_shards = 4;
  int clients = 4;

  // Global keyspace [0, keys), hash-partitioned across shards. Every key
  // is seeded with initial_balance before clients start.
  std::uint64_t keys = 2048;
  core::Value initial_balance = 1000;

  // Client op mix, drawn per op: put / transfer / scan / index churn, the
  // remainder point gets. Fractions are cumulative probabilities' summands
  // and must total <= 1.
  double put_fraction = 0.20;
  double transfer_fraction = 0.20;
  double scan_fraction = 0.05;
  double churn_fraction = 0.05;

  // Range scans cover [lo, lo + scan_span); transfers move 1..max_transfer.
  std::uint64_t scan_span = 64;
  core::Value max_transfer = 16;

  // Zipf skew of the client key distribution (key 0 hottest). 0 = uniform.
  double zipf_s = 0.99;

  // Count mode (run_seconds == 0): each client runs ops_per_client ops.
  // Duration mode (run_seconds > 0): clients run until the deadline.
  std::uint64_t ops_per_client = 10'000;
  double run_seconds = 0;

  std::uint64_t seed = 42;

  // A transfer that keeps losing prepare races (kBusy) is retried with
  // backoff up to this many attempts before the client gives up on it.
  int max_transfer_attempts = 1'000'000;

  // Off by default: the service targets oversubscribed client counts
  // (clients >> cores), where pinning would serialize the world.
  bool pin_threads = false;

  // Extra t-variables appended to every shard's TM beyond the container
  // layout — scratch space the checked-stress harness writes its recorded
  // projection through (tests/svc_checked_stress_test.cpp).
  std::size_t extra_tvars = 0;

  // ---- Derived per-shard sizing ----------------------------------------
  // Shards are hash partitions, so per-shard load is binomial around
  // keys/num_shards; 2x the mean plus constant slack is far beyond any
  // realistic tail (the seeder asserts the real load fits).
  std::uint64_t per_shard_key_bound() const {
    const std::uint64_t mean = keys / static_cast<std::uint64_t>(num_shards);
    const std::uint64_t bound = 2 * mean + 128;
    return bound < keys ? bound : keys;
  }
  // Balance table: open addressing wants <= 50% load.
  std::uint32_t map_capacity() const {
    return next_pow2(2 * per_shard_key_bound());
  }
  // 2PC lock table: at most one entry per in-flight transfer participant.
  std::uint32_t lock_capacity() const {
    const std::uint64_t inflight = 8 * static_cast<std::uint64_t>(clients);
    return next_pow2(inflight < 64 ? 64 : inflight);
  }
  // Sorted key index (range scans / membership churn): a skip list holding
  // every key the shard owns. Its arena bound (a base node per key plus at
  // most as many index nodes) is hard, so tall towers only ever shorten.
  std::uint32_t index_capacity() const {
    return static_cast<std::uint32_t>(per_shard_key_bound());
  }
};

// Upper bound on ONE shard's recorded history length when every shard TM
// is wrapped in a history::RecordingTm (the checked-stress harness hands
// this to Recorder::reserve; the tier asserts size() <= reserved()).
//
// records_container_ops distinguishes the memory models: boxed recipes
// record every container t-var access (including full per-shard table
// scans), region recipes record only the scratch-projection ops the
// checked-stress hook injects (word-tier container traffic forwards
// unrecorded). Per attempt a participating shard records invoke/response
// pairs for each op plus the tryC pair; the constants below are ceilings
// per transaction class, scaled by how many shard transactions a client
// op runs (point ops 1; transfers up to 4, prepare and commit on two
// shards; index scans one leg per shard; balance scans 1), then by
// hash-partition skew and an abort-retry slack covering 2PC busy-loops
// under the default zipf skew.
inline std::size_t estimated_shard_history_events(
    const ServiceConfig& cfg, bool records_container_ops) {
  const double total_ops = static_cast<double>(cfg.clients) *
                           static_cast<double>(cfg.ops_per_client);
  const double shards = static_cast<double>(cfg.num_shards);
  // Scratch-projection hook (3 ops) + tryC: recorded on every attempt of
  // every service transaction, both memory models.
  const double base = 3 * 2 + 2;
  const double ops = records_container_ops ? 2 : 0;  // events per access
  // Container ceilings per shard transaction, boxed recipes only. Point
  // get/put and a transfer leg stay single-digit accesses.
  const double point = base + ops * 12;
  // The key index is a skip list (ds::TSkipListSetT, 8 levels, p = 1/4).
  // A search reads a head or down ref and a next ref per level, plus a
  // key and a next ref per node it steps over — about 4 nodes per level
  // over log4(n) + 1 levels: O(log n) reads, whatever the key.
  const double keys_per_shard =
      static_cast<double>(cfg.per_shard_key_bound());
  const double search = 2 * 8 + 2 * 4 * (std::log(keys_per_shard) /
                                             std::log(4.0) + 1);
  // Churn: an erase, or a missed erase and an insert: two searches, then
  // per tower level an unlink or an allocate-and-link (≤ 12 accesses on
  // the boxed allocator) over the expected 4/3 levels, and the root words.
  const double churn = base + ops * (2 * search + 12 * 4.0 / 3 + 4);
  // An index scan leg: one search to lo, then the leg's share of the span,
  // a key and a next ref per key plus the stop key.
  const double span = static_cast<double>(cfg.scan_span);
  const double scan_leg = base + ops * (search + 2 * (span / shards) + 2);
  // A balance scan reads every key slot of one shard's table plus the
  // values of its live entries.
  const double balance_scan =
      base + ops * (static_cast<double>(cfg.map_capacity()) + keys_per_shard);
  const double point_fraction =
      1.0 - cfg.transfer_fraction - cfg.scan_fraction - cfg.churn_fraction;
  // Expected recorded events per client op, summed over ALL shards; a
  // scan is an index scan or a balance scan with even odds.
  const double per_op =
      point_fraction * point + cfg.transfer_fraction * 4 * point +
      cfg.churn_fraction * churn +
      cfg.scan_fraction * (0.5 * shards * scan_leg + 0.5 * balance_scan);
  const double skew_slack = 1.5;   // hash-partition imbalance
  const double abort_slack = 2.0;  // retried attempts per committed op
  return static_cast<std::size_t>(total_ops * per_op / shards * skew_slack *
                                  (1.0 + abort_slack)) +
         4096;
}

// Outcome of a 2PC prepare (and of the whole transfer, whose verdict is
// the logical AND of its participants' votes).
enum class Vote {
  kYes,           // validated and locked
  kBusy,          // a concurrent transfer holds a participant; retry
  kInsufficient,  // the debit side lacks funds; permanent for this amount
};

inline const char* to_string(Vote v) noexcept {
  switch (v) {
    case Vote::kYes: return "yes";
    case Vote::kBusy: return "busy";
    case Vote::kInsufficient: return "insufficient";
  }
  return "?";
}

}  // namespace oftm::svc
