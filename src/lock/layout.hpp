// Metadata layouts: where a transactional location, its versioned lock
// word and a transaction's extra resources live. TL2 (lock/tl2.hpp) and
// NOrec (norec/norec.hpp) are each written once over this interface and
// instantiated on both layouts:
//
//   BoxedLayout<P> — the paper's t-variables: one cache line per TVarId
//                    holding the lock word next to the value, on any
//                    platform (HwPlatform, or SimPlatform for the DAP and
//                    model-checking suites). Transactions hold nothing
//                    but their read and write sets.
//   RegionLayout   — raw words of a core::RegionHeap; lock words live in
//                    a dense StripeTable hashed from the word's address
//                    (TL2's per-stripe mode), so aliasing can only add
//                    conflicts. Transactions may allocate and free heap
//                    blocks: their own allocations are private until
//                    commit and accessed in place, frees are retired at
//                    commit, and an epoch pin covers the whole active
//                    lifetime (the argument at the top of core/region.hpp).
//
// Both layouts provide: Platform, Loc (TVarId / word address), kRegion,
// TxResources; loc(x) for t-variable x; load/store with a caller-chosen
// memory order; lock_index(loc) and lock(i) for the versioned lock word;
// key(loc) for the abort heat map; and the resource hooks arm/owns/
// settle/rollback, which compile to nothing on the boxed layout (the
// region layout adds alloc/defer_free behind tx_alloc/tx_free).
//
// WriteSet<Loc> is the redo log both protocols keep over either layout.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/platform.hpp"
#include "core/region.hpp"
#include "core/types.hpp"
#include "lock/stripe_table.hpp"
#include "lock/versioned_lock.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/epoch.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::lock {

// Hash input of a location: a TVarId as is, a word address without its
// always-zero low bits.
template <typename Loc>
std::uint64_t location_bits(Loc loc) noexcept {
  if constexpr (std::is_pointer_v<Loc>) {
    return reinterpret_cast<std::uintptr_t>(loc) >> 3;
  } else {
    return static_cast<std::uint64_t>(loc);
  }
}

// Redo log: location -> value, entries kept densely in insertion order.
// Up to kScanLimit entries a lookup scans them (a few cache lines beat
// hashing); past that, an open-addressed index (linear probing,
// power-of-two size, at most half full) maps a location to its entry.
// clear() and for_each() cost the entries present, not the index size a
// past large transaction grew it to, and both vectors keep their capacity
// across the transactions of a pooled descriptor, so a warmed-up write
// set never allocates. The per-read lookup is the price lazy write-back
// pays; bench_throughput's read-mostly mix measures it.
template <typename Key>
class WriteSet {
 public:
  WriteSet() : index_(kInitialSlots, kNoEntry) {}

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  // Drop every entry but keep both capacities.
  void clear() noexcept {
    if (indexed()) {
      for (const Entry& e : entries_) index_[e.slot] = kNoEntry;
    }
    entries_.clear();
  }

  const core::Value* find(Key k) const noexcept {
    const std::uint32_t ix = lookup(k);
    return ix == kNoEntry ? nullptr : &entries_[ix].value;
  }

  void put(Key k, core::Value v) {
    if (const std::uint32_t ix = lookup(k); ix != kNoEntry) {
      entries_[ix].value = v;
      return;
    }
    entries_.push_back({k, 0, v});
    if (!indexed()) return;
    const bool grow = entries_.size() * 2 > index_.size();
    if (grow) index_.assign(index_.size() * 2, kNoEntry);
    if (grow || entries_.size() == kScanLimit + 1) {
      for (std::uint32_t ix = 0; ix < entries_.size(); ++ix) link(ix);
    } else {
      link(static_cast<std::uint32_t>(entries_.size() - 1));
    }
  }

  // Visits the entries in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : entries_) f(e.key, e.value);
  }

 private:
  struct Entry {
    Key key;
    std::uint32_t slot;  // index_ position, so clear() needs no probing
    core::Value value;
  };
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};
  static constexpr std::size_t kScanLimit = 8;
  static constexpr std::size_t kInitialSlots = 32;

  // While unindexed, every index_ slot is kNoEntry.
  bool indexed() const noexcept { return entries_.size() > kScanLimit; }

  static std::size_t slot_of(Key k, std::size_t mask) noexcept {
    return static_cast<std::size_t>(runtime::mix64(location_bits(k))) & mask;
  }

  std::uint32_t lookup(Key k) const noexcept {
    if (!indexed()) {
      for (std::uint32_t ix = 0; ix < entries_.size(); ++ix) {
        if (entries_[ix].key == k) return ix;
      }
      return kNoEntry;
    }
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = slot_of(k, mask);; i = (i + 1) & mask) {
      const std::uint32_t ix = index_[i];
      if (ix == kNoEntry || entries_[ix].key == k) return ix;
    }
  }

  void link(std::uint32_t ix) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = slot_of(entries_[ix].key, mask);
    while (index_[i] != kNoEntry) i = (i + 1) & mask;
    index_[i] = ix;
    entries_[ix].slot = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
};

template <typename P>
class BoxedLayout {
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  using Platform = P;
  using Loc = core::TVarId;
  static constexpr bool kRegion = false;
  struct TxResources {};

  BoxedLayout(std::size_t num_tvars, const core::RegionOptions&,
              bool /*versioned*/)
      : num_tvars_(num_tvars), slots_(std::make_unique<Slot[]>(num_tvars)) {}

  std::size_t num_tvars() const noexcept { return num_tvars_; }
  Loc loc(core::TVarId x) const noexcept { return x; }

  core::Value load(Loc x, std::memory_order mo) const {
    return slots_[x].value.load(mo);
  }
  void store(Loc x, core::Value v, std::memory_order mo) {
    slots_[x].value.store(v, mo);
  }

  std::size_t lock_index(Loc x) const noexcept { return x; }
  Atomic<std::uint64_t>& lock(std::size_t i) noexcept { return slots_[i].lock; }
  static std::uint64_t key(Loc x) noexcept { return x; }

  void arm(TxResources&) noexcept {}
  bool owns(const TxResources&, Loc) const noexcept { return false; }
  void settle(TxResources&) noexcept {}
  void rollback(TxResources&) noexcept {}

 private:
  // The lock word shares the value's cache line: one miss per access.
  struct alignas(runtime::kCacheLineSize) Slot {
    Atomic<std::uint64_t> lock{LockWord::pack(0, false)};
    Atomic<core::Value> value{0};
  };

  const std::size_t num_tvars_;
  std::unique_ptr<Slot[]> slots_;
};

// Heap words are plain memory; transactional accesses race by design and
// go through std::atomic_ref with the same orders the boxed slots use.
class RegionLayout {
 public:
  using Platform = core::HwPlatform;
  using Loc = core::Value*;
  static constexpr bool kRegion = true;
  struct TxResources {
    std::vector<void*> allocs;  // private until commit
    std::vector<void*> frees;   // retired at commit
    // Pin held for the whole active lifetime; see core/region.hpp.
    std::optional<runtime::EpochManager::Guard> guard;
  };

  // Lays num_tvars contiguous words out in the heap: t-variable x is
  // words_[x]. options.capacity_bytes == 0 sizes the arena from num_tvars
  // plus headroom for transactional alloc/free. A protocol without
  // per-location versions (!versioned) gets a one-stripe table.
  RegionLayout(std::size_t num_tvars, core::RegionOptions options,
               bool versioned)
      : num_tvars_(num_tvars),
        heap_(capacity(options, num_tvars)),
        stripes_(versioned ? stripe_count_log2(options, num_tvars) : 0,
                 options.granularity_log2) {
    words_ = static_cast<core::Value*>(
        heap_.alloc(num_tvars * sizeof(core::Value)));
    OFTM_ASSERT_MSG(words_ != nullptr, "region arena too small for t-vars");
  }

  core::RegionHeap& heap() noexcept { return heap_; }
  const StripeTable& stripes() const noexcept { return stripes_; }

  std::size_t num_tvars() const noexcept { return num_tvars_; }
  Loc loc(core::TVarId x) const noexcept { return words_ + x; }

  core::Value load(const core::Value* addr, std::memory_order mo) const {
    return std::atomic_ref<const core::Value>(*addr).load(mo);
  }
  void store(Loc addr, core::Value v, std::memory_order mo) {
    std::atomic_ref<core::Value>(*addr).store(v, mo);
  }

  std::size_t lock_index(Loc addr) const noexcept {
    return stripes_.index_of(addr);
  }
  std::atomic<std::uint64_t>& lock(std::size_t i) noexcept {
    return stripes_.stripe(i);
  }
  static std::uint64_t key(Loc addr) noexcept {
    return reinterpret_cast<std::uintptr_t>(addr);
  }

  void arm(TxResources& r) {
    r.guard.emplace(heap_.epochs());
    r.allocs.clear();
    r.frees.clear();
  }

  bool owns(const TxResources& r, const core::Value* addr) const {
    const auto* a = reinterpret_cast<const std::byte*>(addr);
    for (void* p : r.allocs) {
      const auto* b = static_cast<const std::byte*>(p);
      if (a >= b && a < b + heap_.block_bytes(p)) return true;
    }
    return false;
  }

  // A zeroed block, private to the transaction until it commits; nullptr
  // when the arena is exhausted.
  void* alloc(TxResources& r, std::size_t bytes) {
    void* p = heap_.alloc(bytes);
    if (p != nullptr) r.allocs.push_back(p);
    return p;
  }

  // Deferred to commit: a committed free retires the block through the
  // grace period; an abort forgets it.
  void defer_free(TxResources& r, void* p) {
    OFTM_ASSERT(heap_.contains(p));
    r.frees.push_back(p);
  }

  // Commit epilogue: blocks allocated and freed by the same transaction
  // were never published and are reused at once; other frees wait out the
  // grace period. Then the pin is dropped.
  void settle(TxResources& r) {
    for (void* p : r.frees) {
      auto it = std::find(r.allocs.begin(), r.allocs.end(), p);
      if (it != r.allocs.end()) {
        *it = r.allocs.back();
        r.allocs.pop_back();
        heap_.free_now(p);
      } else {
        heap_.retire(p);
      }
    }
    r.guard.reset();
  }

  // Abort epilogue: private blocks were never visible, so they return at
  // once; the frees never happened.
  void rollback(TxResources& r) {
    for (void* p : r.allocs) heap_.free_now(p);
    r.allocs.clear();
    r.frees.clear();
    r.guard.reset();
  }

 private:
  static std::size_t capacity(const core::RegionOptions& options,
                              std::size_t num_tvars) {
    return options.capacity_bytes != 0
               ? options.capacity_bytes
               : num_tvars * sizeof(core::Value) + (std::size_t{1} << 20);
  }

  static unsigned stripe_count_log2(const core::RegionOptions& options,
                                    std::size_t num_tvars) {
    return options.stripe_count_log2 != 0
               ? options.stripe_count_log2
               : auto_stripe_count_log2(capacity(options, num_tvars) /
                                        sizeof(core::Value));
  }

  const std::size_t num_tvars_;
  core::RegionHeap heap_;
  StripeTable stripes_;
  core::Value* words_ = nullptr;  // owned by the heap
};

}  // namespace oftm::lock
