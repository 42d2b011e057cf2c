// One shard of the KV service: an independent TM instance owning a hash
// partition of the keyspace, with every public operation a single
// committed transaction on that TM.
//
// Per-shard state, all transactional:
//   balances  THashMapT      key -> balance, the primary record store
//   locks     THashMapT      key -> coordinator token; an entry is the 2PC
//                            "prepared" mark for that key
//                            (svc/coordinator.hpp)
//   index     TSkipListSetT  the shard's owned keys in sorted order, for
//                            ordered range scans and membership churn. A
//                            skip list: a scan leg reads O(log n + span)
//                            nodes and a churn toggle O(log n), where a
//                            sorted list read the whole prefix below the key
//   meta      1 t-var        sum of every committed put delta — the term
//                            that keeps the global conservation audit exact
//                            while puts mutate balances concurrently with
//                            transfers
//
// Locking discipline (deadlock freedom): prepare() is a try-lock — it
// *votes* kBusy instead of waiting when a key is already locked, so a
// lock holder never blocks on another lock. Only put_add(), which holds
// no locks, is allowed to wait (tx.retry()) for a lock to clear.
//
// The layout is computed against the instantiated MemoryModel, but TMs
// are sized by the *boxed* footprint (the larger: region containers keep
// their records in the backend heap), so one `shard_tvar_words()` figure
// sizes every recipe and doubles as the scratch-t-var base the
// checked-stress harness projects its recorded history through.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "core/tm.hpp"
#include "ds/thashmap.hpp"
#include "ds/tskiplist.hpp"
#include "runtime/assert.hpp"
#include "svc/config.hpp"

namespace oftm::svc {

// Boxed-layout t-var footprint of one shard (containers + the meta word).
// Boxed recipes need exactly this many t-variables; region recipes get the
// same t-var array (the meta word lives there) plus heap headroom, via
// workload::make_tm_for_containers.
inline std::size_t shard_tvar_words(const ServiceConfig& cfg) {
  return ds::THashMapT<core::BoxedMemory>::tvars_needed(cfg.map_capacity()) +
         ds::THashMapT<core::BoxedMemory>::tvars_needed(cfg.lock_capacity()) +
         ds::TSkipListSetT<core::BoxedMemory>::tvars_needed(
             cfg.index_capacity()) +
         1;
}

template <core::MemoryModel M>
class ShardT {
 public:
  using Map = ds::THashMapT<M>;
  using Set = ds::TSkipListSetT<M>;
  // Runs first inside every transaction this shard executes. The
  // checked-stress harness injects recorded scratch-t-var writes here so
  // each committed transaction is visible to the opacity checker; empty in
  // production (one untaken branch per transaction).
  using TxHook = std::function<void(core::TxView&)>;

  ShardT(core::TransactionalMemory& tm, const ServiceConfig& cfg, int id)
      : tm_(tm),
        id_(id),
        balances_(tm, balances_base(cfg), cfg.map_capacity()),
        locks_(tm, locks_base(cfg), cfg.lock_capacity()),
        index_(tm, index_base(cfg), cfg.index_capacity()),
        meta_var_(meta_base(cfg)) {}

  int id() const noexcept { return id_; }
  core::TransactionalMemory& tm() const noexcept { return tm_; }
  void set_tx_hook(TxHook hook) { hook_ = std::move(hook); }

  void init() {
    balances_.init();
    locks_.init();
    index_.init();
    core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      tx.write(meta_var_, 0);
    });
  }

  // Seed the shard's owned keys, batched so seeding N keys is not N
  // transactions. Quiescent use only (before clients start).
  void seed(const std::vector<std::uint64_t>& keys, core::Value balance) {
    OFTM_ASSERT_MSG(keys.size() <= index_.capacity(),
                    "per-shard load exceeds the sizing bound");
    constexpr std::size_t kBatch = 64;
    for (std::size_t at = 0; at < keys.size(); at += kBatch) {
      const std::size_t end =
          at + kBatch < keys.size() ? at + kBatch : keys.size();
      core::atomically(tm_, [&](core::TxView& tx) {
        run_hook(tx);
        for (std::size_t i = at; i < end; ++i) {
          balances_.put(tx, keys[i], balance);
          index_.insert(tx, keys[i]);
          if (!tx.ok()) return;
        }
      });
    }
  }

  // ---- Single-shard client operations ----------------------------------

  // Point read. Reads ignore the lock table: a prepared-but-uncommitted
  // transfer has not changed any balance yet, so the pre-transfer value is
  // the consistent answer.
  std::optional<core::Value> get(std::uint64_t key) {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      return balances_.get(tx, key);
    });
  }

  // Additive point update, mirrored into the meta word so the global
  // conservation audit stays exact. Waits out a 2PC lock via tx.retry():
  // safe because a put holds no locks while waiting, and the lock holder
  // (the coordinator) never waits on anything.
  void put_add(std::uint64_t key, core::Value delta) {
    core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      if (locks_.get(tx, key).has_value()) tx.retry();
      const auto cur = balances_.get(tx, key);
      if (!tx.ok()) return;
      balances_.put(tx, key, cur.value_or(0) + delta);
      tx.write(meta_var_, tx.read(meta_var_) + delta);
    });
  }

  // Same-shard transfer: both keys live here, so the whole transfer is one
  // transaction and 2PC is pure overhead — the fast path whose share the
  // coordinator reports (it shrinks as the shard count grows).
  Vote transfer_local(std::uint64_t src, std::uint64_t dst,
                      core::Value amount) {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      if (locks_.get(tx, src).has_value() ||
          locks_.get(tx, dst).has_value()) {
        return Vote::kBusy;
      }
      const auto s = balances_.get(tx, src);
      if (!tx.ok() || !s.has_value()) return Vote::kBusy;  // doomed view
      if (*s < amount) return Vote::kInsufficient;
      balances_.put(tx, src, *s - amount);
      const auto d = balances_.get(tx, dst);
      if (!tx.ok() || !d.has_value()) return Vote::kBusy;
      balances_.put(tx, dst, *d + amount);
      return Vote::kYes;
    });
  }

  // Ordered range scan over the shard's key index: |[lo, hi) ∩ owned|.
  std::uint64_t scan_index(std::uint64_t lo, std::uint64_t hi) {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      return index_.scan_range(tx, lo, hi, [](std::uint64_t) {});
    });
  }

  // Range aggregate over the balance table (full-table scan — open
  // addressing has no order; the expensive snapshot the tail-latency
  // histograms exist to expose).
  core::Value scan_balances(std::uint64_t lo, std::uint64_t hi) {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      return balances_.range_sum(tx, lo, hi);
    });
  }

  // Membership churn on the key index: erase if present, insert if not.
  // Only toggles keys the shard was seeded with, so capacity never grows.
  void churn_index(std::uint64_t key) {
    core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      if (!index_.erase(tx, key)) index_.insert(tx, key);
    });
  }

  // ---- 2PC participant operations (svc/coordinator.hpp) -----------------

  // Phase one, try-style: validate funds and lock the key under `token`,
  // or vote without side effects. `required` is the debit this participant
  // must be able to cover (0 for the credit side). Never waits: voting
  // kBusy instead of blocking is what makes the protocol deadlock-free.
  Vote prepare(std::uint64_t key, std::uint64_t token, core::Value required) {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      if (locks_.get(tx, key).has_value()) return Vote::kBusy;
      const auto bal = balances_.get(tx, key);
      if (!tx.ok() || !bal.has_value()) return Vote::kBusy;  // doomed view
      if (*bal < required) return Vote::kInsufficient;
      locks_.put(tx, key, token);
      return Vote::kYes;
    });
  }

  // Phase two, commit side: apply the signed delta and drop the lock.
  // Unconditional once every participant voted yes — retried until it
  // commits (the lock guarantees no validation can fail semantically).
  void commit_apply(std::uint64_t key, std::uint64_t token,
                    std::int64_t delta) {
    core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      const auto held = locks_.get(tx, key);
      if (!tx.ok()) return;
      OFTM_ASSERT_MSG(held.has_value() && *held == token,
                      "2PC commit_apply without holding the lock");
      const auto bal = balances_.get(tx, key);
      if (!tx.ok()) return;
      balances_.put(tx, key,
                    static_cast<core::Value>(
                        static_cast<std::int64_t>(bal.value_or(0)) + delta));
      locks_.erase(tx, key);
    });
  }

  // Phase two, abort side: drop the lock, touch nothing else.
  void release(std::uint64_t key, std::uint64_t token) {
    core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      const auto held = locks_.get(tx, key);
      if (!tx.ok()) return;
      OFTM_ASSERT_MSG(held.has_value() && *held == token,
                      "2PC release without holding the lock");
      locks_.erase(tx, key);
    });
  }

  // ---- Audits -----------------------------------------------------------

  // Transactional sum of every balance the shard holds (one snapshot).
  core::Value sum_balances() {
    return core::atomically(tm_, [&](core::TxView& tx) {
      run_hook(tx);
      core::Value sum = 0;
      balances_.for_each(tx, [&](std::uint64_t, core::Value v) {
        sum += v;
        return true;
      });
      return sum;
    });
  }

  // Sum of committed put deltas (quiescent).
  core::Value applied_put_delta() const {
    return tm_.read_quiescent(meta_var_);
  }

  // 2PC locks still held (quiescent; must be 0 after clients drain).
  std::uint64_t locks_held_quiescent() const {
    return locks_.size_quiescent();
  }

  std::uint64_t keys_owned_quiescent() const {
    return balances_.size_quiescent();
  }

  bool audit_index_quiescent() const { return index_.audit_quiescent(); }

 private:
  // Container bases, laid out sequentially in the instantiated model's
  // footprint (region bases are ignored by RegionMemory but harmless).
  static core::TVarId balances_base(const ServiceConfig&) { return 0; }
  static core::TVarId locks_base(const ServiceConfig& cfg) {
    return balances_base(cfg) +
           static_cast<core::TVarId>(Map::tvars_needed(cfg.map_capacity()));
  }
  static core::TVarId index_base(const ServiceConfig& cfg) {
    return locks_base(cfg) +
           static_cast<core::TVarId>(Map::tvars_needed(cfg.lock_capacity()));
  }
  static core::TVarId meta_base(const ServiceConfig& cfg) {
    return index_base(cfg) +
           static_cast<core::TVarId>(Set::tvars_needed(cfg.index_capacity()));
  }

  void run_hook(core::TxView& tx) {
    if (hook_) hook_(tx);
  }

  core::TransactionalMemory& tm_;
  const int id_;
  Map balances_;
  Map locks_;
  Set index_;
  const core::TVarId meta_var_;
  TxHook hook_;
};

}  // namespace oftm::svc
