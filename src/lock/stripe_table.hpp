// TmRegion tier, part 2: the global versioned-lock stripe array.
//
// TL2's per-stripe (PS) metadata scheme: instead of one LockWord per boxed
// TVar, a single power-of-two array of LockWords covers *every* word the
// region tier transacts over, indexed by a shift-and-mask hash of the
// word's address:
//
//     stripe(addr) = (addr >> granularity_log2) & (2^count_log2 - 1)
//
// Two words hash to the same stripe either because they sit in the same
// 2^granularity-byte granule (adjacency aliasing — the knob that models
// cache-line false sharing at the metadata level) or because their granule
// indices collide modulo the table size (capacity aliasing). Both are
// conservative: an aliased stripe can only cause false conflicts, never
// missed ones, so safety is unconditional and the stripe-count x
// granularity sweep is purely a performance design space.
//
// Deliberately dense — no per-stripe cache-line padding. At 2^20+ stripes
// padding would 8x the table, and the sharing of neighbouring stripe words
// is exactly the behaviour production TL2 tables exhibit and the region
// benches measure. count_log2 = 0 is a single stripe, for protocols that
// keep no per-location versions (NOrec).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "lock/versioned_lock.hpp"
#include "runtime/assert.hpp"

namespace oftm::lock {

class StripeTable {
 public:
  StripeTable(unsigned count_log2, unsigned granularity_log2)
      : shift_(granularity_log2),
        mask_((std::size_t{1} << count_log2) - 1),
        stripes_(new std::atomic<std::uint64_t>[std::size_t{1} << count_log2]) {
    OFTM_ASSERT_MSG(granularity_log2 >= 3,
                    "stripe granularity below one 64-bit word");
    OFTM_ASSERT_MSG(count_log2 <= 28, "unreasonable stripe count");
    for (std::size_t i = 0; i <= mask_; ++i) {
      stripes_[i].store(LockWord::pack(0, false), std::memory_order_relaxed);
    }
  }

  std::size_t count() const noexcept { return mask_ + 1; }
  std::size_t granularity_bytes() const noexcept {
    return std::size_t{1} << shift_;
  }

  std::size_t index_of(const void* addr) const noexcept {
    return (reinterpret_cast<std::uintptr_t>(addr) >> shift_) & mask_;
  }

  std::atomic<std::uint64_t>& stripe(std::size_t index) noexcept {
    return stripes_[index];
  }
  const std::atomic<std::uint64_t>& stripe(std::size_t index) const noexcept {
    return stripes_[index];
  }
  std::atomic<std::uint64_t>& stripe_for(const void* addr) noexcept {
    return stripes_[index_of(addr)];
  }

 private:
  const unsigned shift_;
  const std::size_t mask_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> stripes_;
};

// Auto-sizing used when RegionOptions::stripe_count_log2 is 0: roughly one
// stripe per word, clamped so tiny regions do not under-provision (false
// conflicts) and huge ones do not over-provision (a 2^22 * 8 B = 32 MiB
// table is the ceiling).
inline unsigned auto_stripe_count_log2(std::size_t words) noexcept {
  unsigned k = 14;
  while ((std::size_t{1} << k) < words && k < 22) ++k;
  return k;
}

}  // namespace oftm::lock
