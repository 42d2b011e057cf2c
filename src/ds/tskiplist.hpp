// TSkipListSet: a sorted skip-list set, written once against the
// core::MemoryModel concept and instantiated over both layouts.
//
// The ordered counterpart of TListSetT with logarithmic search: the KV
// service's per-shard key index (src/svc/shard.hpp). Under an
// invisible-read TM every transactional read joins the read set and must
// stay valid until commit, so the read count of a search is the cost that
// matters — a sorted list pays O(n) of them to reach a key, this set pays
// O(log n).
//
// Layout: a static root {count, towers, heads[kMaxLevels]} plus dynamically
// allocated 3-word nodes {key, next, down}. Level 0 is the sorted list of
// every key (down = null); a node on level l > 0 is an index node whose
// `down` is the node with the same key on level l - 1. Base and index nodes
// share one shape because BoxedMemory's arena serves one size class.
//
// Tower heights are a hash of the key (p = 1/4, capped at kMaxLevels), not
// a random draw: there is no RNG inside transactions, so runs and recorded
// histories stay deterministic. An insert builds index nodes only while
// `towers` (live index nodes) is below `capacity`, so the arena bound
// tvars_needed = overhead + root + 3 * 2 * capacity is hard; running out of
// tower budget only shortens towers, it never fails an insert.
#pragma once

#include <bit>
#include <cstdint>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "core/types.hpp"
#include "runtime/assert.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::ds {

template <core::MemoryModel M>
class TSkipListSetT {
 public:
  struct Node {
    core::Value key;
    core::Value next;  // successor on this level, kNullRef at the tail
    core::Value down;  // same key one level below, kNullRef on level 0
  };
  static constexpr std::size_t kNodeWords =
      sizeof(Node) / sizeof(core::Value);
  static constexpr int kMaxLevels = 8;

  // Number of words (boxed: t-variables) a set with `capacity` keys
  // occupies: one base node per key plus at most `capacity` index nodes.
  static constexpr std::size_t tvars_needed(std::uint32_t capacity) {
    return M::kOverheadWords + kRootWords +
           2 * kNodeWords * static_cast<std::size_t>(capacity);
  }

  // Levels the tower of `key` spans when the tower budget allows (1 = base
  // node only): one more per leading pair of zero bits of a salted hash.
  // The salt decorrelates heights from svc::ShardRouter, which partitions
  // keys on the unsalted mix64.
  static constexpr int tower_height(std::uint64_t key) {
    const int pairs =
        std::countl_zero(runtime::mix64(key ^ 0x9e3779b97f4a7c15ULL)) / 2;
    return pairs + 1 < kMaxLevels ? pairs + 1 : kMaxLevels;
  }

  TSkipListSetT(core::TransactionalMemory& tm, core::TVarId base,
                std::uint32_t capacity)
      : mem_(tm, base, tvars_needed(capacity)), capacity_(capacity) {
    root_ = mem_.alloc_static(kRootWords);
  }

  // One-time initialization (runs its own committed transaction).
  void init() {
    core::atomically(mem_.tm(), [&](core::TxView& tx) {
      mem_.init(tx);
      mem_.store(tx, root_, kCount, 0);
      mem_.store(tx, root_, kTowers, 0);
      for (int l = 0; l < kMaxLevels; ++l) {
        mem_.store(tx, root_, head_field(l), core::kNullRef);
      }
    });
  }

  // Inserts key; false if already present. On a TM-forced abort the view
  // goes dead (tx.ok() false) and the return value is meaningless —
  // atomically() discards the attempt and retries.
  bool insert(core::TxView& tx, std::uint64_t key) {
    Path path;
    if (!search(tx, key, path)) return false;  // doomed attempt
    if (path.hits & 1) return false;           // already present
    const core::Value count = mem_.load(tx, root_, kCount);
    const core::Value towers = mem_.load(tx, root_, kTowers);
    if (!tx.ok()) return false;
    OFTM_ASSERT_MSG(count < capacity_, "TSkipListSet capacity exhausted");
    const std::uint64_t budget = capacity_ - towers;
    const int wanted = tower_height(key);
    const int levels = static_cast<std::uint64_t>(wanted - 1) <= budget
                           ? wanted
                           : static_cast<int>(budget) + 1;
    core::TxPtr<Node> below{core::kNullRef};
    for (int l = 0; l < levels; ++l) {
      const core::TxPtr<Node> node = core::tx_make<Node>(mem_, tx);
      if (!tx.ok()) return false;
      OFTM_ASSERT_MSG(node, "TSkipListSet arena exhausted");
      core::tx_set(mem_, tx, node, &Node::key, key);
      core::tx_set(mem_, tx, node, &Node::next, path.succs[l]);
      core::tx_set(mem_, tx, node, &Node::down, below.ref);
      link(tx, l, path.preds[l], node.ref);
      below = node;
    }
    mem_.store(tx, root_, kCount, count + 1);
    if (levels > 1) mem_.store(tx, root_, kTowers, towers + levels - 1);
    return true;
  }

  // Removes key and its whole tower; false if absent. The nodes return to
  // their allocator.
  bool erase(core::TxView& tx, std::uint64_t key) {
    Path path;
    if (!search(tx, key, path)) return false;  // doomed attempt (see insert)
    if (!(path.hits & 1)) return false;
    // A tower is contiguous from level 0, so hits is a run of low bits.
    const int levels = std::popcount(path.hits);
    for (int l = 0; l < levels; ++l) {
      const core::TxPtr<Node> victim{path.succs[l]};
      link(tx, l, path.preds[l], core::tx_get(mem_, tx, victim, &Node::next));
      core::tx_destroy(mem_, tx, victim);
    }
    mem_.store(tx, root_, kCount, mem_.load(tx, root_, kCount) - 1);
    if (levels > 1) {
      mem_.store(tx, root_, kTowers,
                 mem_.load(tx, root_, kTowers) - (levels - 1));
    }
    return true;
  }

  bool contains(core::TxView& tx, std::uint64_t key) {
    Path path;
    return search(tx, key, path) && (path.hits & 1);
  }

  // Visit the keys in [lo, hi) in ascending order; returns how many were
  // visited. The index descends to the first key >= lo in O(log n) reads;
  // only then does the base level walk, and it stops at the first key
  // >= hi — so the read set is the search path plus the span. Returns 0 on
  // a dead view (poison refs are not a consistent snapshot).
  template <typename F>
  std::uint64_t scan_range(core::TxView& tx, std::uint64_t lo,
                           std::uint64_t hi, F&& visit) {
    Path path;
    if (!search(tx, lo, path)) return 0;
    std::uint64_t visited = 0;
    std::uint64_t steps = 0;
    core::TxPtr<Node> cur{path.succs[0]};
    while (cur) {
      if (++steps > capacity_) return 0;  // poisoned ref cycled; bail out
      const std::uint64_t k = core::tx_get(mem_, tx, cur, &Node::key);
      if (!tx.ok() || k >= hi) break;
      ++visited;
      visit(k);
      cur = core::TxPtr<Node>{core::tx_get(mem_, tx, cur, &Node::next)};
    }
    return tx.ok() ? visited : 0;
  }

  std::uint64_t size(core::TxView& tx) { return mem_.load(tx, root_, kCount); }

  std::uint32_t capacity() const noexcept { return capacity_; }

  // First node on `level`, read quiescently: the entry point for audits
  // and for tests that inspect (or deliberately damage) a tower.
  core::Ref head_quiescent(int level) const {
    return mem_.load_quiescent(root_, head_field(level));
  }

  // Quiescent structural audit (outside transactions; caller guarantees no
  // concurrency). Every level is strictly sorted; level 0 holds no down
  // refs; each index node's down is exactly the node with the same key on
  // the level below (a merge walk of the two levels) and sits within its
  // key's tower_height. `count` matches level 0, `towers` matches the index
  // nodes and stays within budget, and — when the model can count its free
  // records (boxed) — the allocator conserves every node.
  bool audit_quiescent() const {
    const std::size_t key_field = core::field_index(&Node::key);
    const std::size_t next_field = core::field_index(&Node::next);
    const std::size_t down_field = core::field_index(&Node::down);
    std::uint64_t base_nodes = 0;
    std::uint64_t index_nodes = 0;
    for (int l = 0; l < kMaxLevels; ++l) {
      core::Ref cur = head_quiescent(l);
      // Cursor on level l - 1, advanced in step with level l.
      core::Ref below = l > 0 ? head_quiescent(l - 1) : core::kNullRef;
      std::uint64_t below_steps = 0;
      std::uint64_t on_level = 0;
      std::uint64_t prev_key = 0;
      while (cur != core::kNullRef) {
        if (++on_level > capacity_) return false;  // cycle
        const std::uint64_t k = mem_.load_quiescent(cur, key_field);
        if (on_level > 1 && k <= prev_key) return false;  // unsorted / dup
        if (tower_height(k) <= l) return false;  // taller than its hash
        prev_key = k;
        const core::Ref down = mem_.load_quiescent(cur, down_field);
        if (l == 0) {
          if (down != core::kNullRef) return false;
        } else {
          while (below != core::kNullRef &&
                 mem_.load_quiescent(below, key_field) < k) {
            if (++below_steps > capacity_) return false;  // cycle below
            below = mem_.load_quiescent(below, next_field);
          }
          if (below == core::kNullRef || below != down ||
              mem_.load_quiescent(below, key_field) != k) {
            return false;
          }
        }
        cur = mem_.load_quiescent(cur, next_field);
      }
      (l == 0 ? base_nodes : index_nodes) += on_level;
    }
    if (base_nodes != mem_.load_quiescent(root_, kCount)) return false;
    if (index_nodes != mem_.load_quiescent(root_, kTowers)) return false;
    if (index_nodes > capacity_) return false;
    if (const auto free_records = mem_.free_capacity_quiescent(kNodeWords)) {
      return base_nodes + index_nodes + *free_records ==
             2 * static_cast<std::uint64_t>(capacity_);
    }
    return true;
  }

 private:
  static constexpr std::size_t kCount = 0;
  static constexpr std::size_t kTowers = 1;
  static constexpr std::size_t kRootWords = 2 + kMaxLevels;
  static constexpr std::size_t head_field(int level) {
    return 2 + static_cast<std::size_t>(level);
  }

  // Where a search for `key` stopped on every level: preds[l] is the last
  // node with a smaller key (kNullRef: the level's head), succs[l] the
  // first with key >= `key` (kNullRef at the tail); bit l of hits is set
  // when succs[l] holds `key` itself.
  struct Path {
    core::Ref preds[kMaxLevels] = {};
    core::Ref succs[kMaxLevels] = {};
    unsigned hits = 0;
  };

  // Top-down search filling `path` on every level; false on a dead view.
  // The walk is bounded by the node count, so a poisoned ref can never
  // cycle it, and it stops as soon as the view goes dead.
  bool search(core::TxView& tx, std::uint64_t key, Path& path) {
    const std::uint64_t max_steps =
        2 * static_cast<std::uint64_t>(capacity_) + kMaxLevels;
    std::uint64_t steps = 0;
    core::TxPtr<Node> pred{core::kNullRef};
    for (int l = kMaxLevels - 1; l >= 0; --l) {
      if (pred) {
        pred = core::TxPtr<Node>{core::tx_get(mem_, tx, pred, &Node::down)};
      }
      core::TxPtr<Node> cur{
          pred ? core::tx_get(mem_, tx, pred, &Node::next)
               : mem_.load(tx, root_, head_field(l))};
      std::uint64_t k = 0;
      while (tx.ok() && cur) {
        if (++steps > max_steps) return false;  // poisoned ref cycled
        k = core::tx_get(mem_, tx, cur, &Node::key);
        if (k >= key) break;
        pred = cur;
        cur = core::TxPtr<Node>{core::tx_get(mem_, tx, cur, &Node::next)};
      }
      if (!tx.ok()) return false;
      path.preds[l] = pred.ref;
      path.succs[l] = cur.ref;
      if (cur && k == key) path.hits |= 1u << l;
    }
    return true;
  }

  void link(core::TxView& tx, int level, core::Ref pred, core::Ref target) {
    if (pred == core::kNullRef) {
      mem_.store(tx, root_, head_field(level), target);
    } else {
      core::tx_set(mem_, tx, core::TxPtr<Node>{pred}, &Node::next, target);
    }
  }

  M mem_;
  core::Ref root_ = core::kNullRef;
  const std::uint32_t capacity_;
};

// The boxed instantiation, named like the other containers' aliases.
using TSkipListSet = TSkipListSetT<core::BoxedMemory>;

}  // namespace oftm::ds
