// THashMap: fixed-capacity open-addressing hash map (linear probing,
// tombstone deletion), written once against the core::MemoryModel concept
// and instantiated over both layouts.
//
// Layout: one static record of 1 + 2*capacity words —
//   field 0          live-entry count
//   field 1 + 2i     slot i key   (kEmptyKey / kTombstone sentinels)
//   field 2 + 2i     slot i value
// On the boxed model the record is TVarId arithmetic; on the region model
// it is a contiguous word array in the backend's heap — the probe table
// the region tier's cache-locality comparison is about.
//
// Tombstone hygiene, two halves:
//   insert  reuses the first tombstone seen on the probe path instead of
//           appending at the first empty slot;
//   erase   converts the trailing tombstone run back to empty whenever the
//           slot after the erased one is empty. Sound under +1 linear
//           probing: a lookup only travels past a slot because it was
//           non-empty, and no stored key has an empty slot earlier on its
//           own probe path — so a tombstone whose successor is empty is on
//           nobody's path and may revert. Together they keep probe lengths
//           stable under delete/insert churn instead of degrading forever
//           (pinned by DsConformance HashMapProbeLengthStableUnderChurn).
//
// Keys must avoid the two sentinels; capacity must be a power of two. All
// operations compose through TxView like the other ds:: containers.
#pragma once

#include <cstdint>
#include <optional>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "core/types.hpp"
#include "runtime/assert.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::ds {

template <core::MemoryModel M>
class THashMapT {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::uint64_t kTombstone = ~std::uint64_t{0} - 1;

  static constexpr std::size_t tvars_needed(std::uint32_t capacity) {
    return M::kOverheadWords + 1 + 2 * static_cast<std::size_t>(capacity);
  }

  THashMapT(core::TransactionalMemory& tm, core::TVarId base,
            std::uint32_t capacity)
      : mem_(tm, base, tvars_needed(capacity)), capacity_(capacity) {
    OFTM_ASSERT((capacity & (capacity - 1)) == 0 && capacity >= 2);
    root_ = mem_.alloc_static(1 + 2 * static_cast<std::size_t>(capacity));
  }

  // One-time initialization, quiescent. The slots are emptied in bounded
  // batches, one committed transaction each: a pooled descriptor keeps the
  // capacity of the largest transaction it ever ran, so a single
  // table-sized transaction would pin an O(capacity) write set on the
  // initializing thread for the TM's lifetime.
  void init() {
    core::atomically(mem_.tm(), [&](core::TxView& tx) {
      mem_.init(tx);
      mem_.store(tx, root_, kCount, 0);
    });
    for (std::uint32_t at = 0; at < capacity_; at += kInitBatch) {
      const std::uint32_t end =
          capacity_ - at > kInitBatch ? at + kInitBatch : capacity_;
      core::atomically(mem_.tm(), [&](core::TxView& tx) {
        for (std::uint32_t i = at; i < end; ++i) {
          mem_.store(tx, root_, key_field(i), kEmptyKey);
        }
      });
    }
  }

  // Insert or overwrite; returns true if the key was newly inserted. On a
  // TM-forced abort the view goes dead (tx.ok() false) and the return
  // value is meaningless — atomically() discards the attempt and retries;
  // the probe loops bail out so poison keys cannot trip the capacity
  // assert.
  bool put(core::TxView& tx, std::uint64_t key, core::Value value) {
    OFTM_ASSERT(key != kEmptyKey && key != kTombstone);
    std::uint32_t first_tombstone = capacity_;
    for (std::uint32_t probe = 0; probe < capacity_; ++probe) {
      const std::uint32_t i = slot(key, probe);
      const std::uint64_t k = mem_.load(tx, root_, key_field(i));
      if (!tx.ok()) return false;  // doomed attempt
      if (k == key) {
        mem_.store(tx, root_, val_field(i), value);
        return false;
      }
      if (k == kTombstone && first_tombstone == capacity_) {
        first_tombstone = i;
        continue;
      }
      if (k == kEmptyKey) {
        const std::uint32_t target =
            first_tombstone != capacity_ ? first_tombstone : i;
        place(tx, target, key, value);
        return true;
      }
    }
    if (first_tombstone != capacity_) {
      place(tx, first_tombstone, key, value);
      return true;
    }
    OFTM_ASSERT_MSG(false, "THashMap capacity exhausted");
    return false;
  }

  std::optional<core::Value> get(core::TxView& tx, std::uint64_t key) {
    for (std::uint32_t probe = 0; probe < capacity_; ++probe) {
      const std::uint32_t i = slot(key, probe);
      const std::uint64_t k = mem_.load(tx, root_, key_field(i));
      if (!tx.ok()) return std::nullopt;  // doomed attempt
      if (k == key) return mem_.load(tx, root_, val_field(i));
      if (k == kEmptyKey) return std::nullopt;
    }
    return std::nullopt;
  }

  bool erase(core::TxView& tx, std::uint64_t key) {
    for (std::uint32_t probe = 0; probe < capacity_; ++probe) {
      const std::uint32_t i = slot(key, probe);
      const std::uint64_t k = mem_.load(tx, root_, key_field(i));
      if (!tx.ok()) return false;  // doomed attempt
      if (k == key) {
        mem_.store(tx, root_, key_field(i), kTombstone);
        mem_.store(tx, root_, kCount, mem_.load(tx, root_, kCount) - 1);
        trim_tombstones(tx, i);
        return true;
      }
      if (k == kEmptyKey) return false;
    }
    return false;
  }

  // Visit every live entry as visit(key, value); slot order, which callers
  // must treat as unspecified. A false return from the visitor stops the
  // scan. The whole table's key slots join the read set — that is the
  // point: a scan is an atomic snapshot, so a concurrent put/erase
  // anywhere in the table conflicts with it.
  template <typename F>
  void for_each(core::TxView& tx, F&& visit) {
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      const std::uint64_t k = mem_.load(tx, root_, key_field(i));
      if (!tx.ok()) return;  // doomed attempt
      if (k == kEmptyKey || k == kTombstone) continue;
      const core::Value v = mem_.load(tx, root_, val_field(i));
      if (!tx.ok()) return;
      if (!visit(k, v)) return;
    }
  }

  // Sum of the values stored under keys in [lo, hi) — a full-table range
  // scan (open addressing has no key order to exploit). Meaningless on a
  // dead view, like every other poisoned return.
  core::Value range_sum(core::TxView& tx, std::uint64_t lo, std::uint64_t hi) {
    core::Value sum = 0;
    for_each(tx, [&](std::uint64_t k, core::Value v) {
      if (k >= lo && k < hi) sum += v;
      return true;
    });
    return sum;
  }

  std::uint64_t size(core::TxView& tx) { return mem_.load(tx, root_, kCount); }

  std::uint64_t size_quiescent() const {
    return mem_.load_quiescent(root_, kCount);
  }

  std::uint32_t capacity() const noexcept { return capacity_; }

  // Probes a lookup of `key` would take before terminating (found or hit
  // empty), observed quiescently. The churn regression test pins this.
  std::uint64_t probe_length_quiescent(std::uint64_t key) const {
    for (std::uint32_t probe = 0; probe < capacity_; ++probe) {
      const std::uint64_t k =
          mem_.load_quiescent(root_, key_field(slot(key, probe)));
      if (k == key || k == kEmptyKey) return probe + 1;
    }
    return capacity_;
  }

 private:
  static constexpr std::size_t kCount = 0;
  static constexpr std::uint32_t kInitBatch = 256;
  std::size_t key_field(std::uint32_t i) const {
    return 1 + 2 * static_cast<std::size_t>(i);
  }
  std::size_t val_field(std::uint32_t i) const {
    return 2 + 2 * static_cast<std::size_t>(i);
  }

  std::uint32_t slot(std::uint64_t key, std::uint32_t probe) const {
    return static_cast<std::uint32_t>((runtime::mix64(key) + probe) &
                                      (capacity_ - 1));
  }

  void place(core::TxView& tx, std::uint32_t i, std::uint64_t key,
             core::Value value) {
    mem_.store(tx, root_, key_field(i), key);
    mem_.store(tx, root_, val_field(i), value);
    mem_.store(tx, root_, kCount, mem_.load(tx, root_, kCount) + 1);
  }

  // Erase-time hygiene: if the physical successor of the erased slot is
  // empty, walk backwards from the erased slot converting the contiguous
  // tombstone run to empty (see the header comment for why this is sound).
  void trim_tombstones(core::TxView& tx, std::uint32_t i) {
    const std::uint64_t after =
        mem_.load(tx, root_, key_field((i + 1) & (capacity_ - 1)));
    if (!tx.ok() || after != kEmptyKey) return;
    for (std::uint32_t n = 0; n < capacity_; ++n) {
      const std::uint64_t k = mem_.load(tx, root_, key_field(i));
      if (!tx.ok() || k != kTombstone) return;
      mem_.store(tx, root_, key_field(i), kEmptyKey);
      i = (i + capacity_ - 1) & (capacity_ - 1);
    }
  }

  M mem_;
  core::Ref root_ = core::kNullRef;
  const std::uint32_t capacity_;
};

// The boxed instantiation keeps the historical name and API.
using THashMap = THashMapT<core::BoxedMemory>;

}  // namespace oftm::ds
