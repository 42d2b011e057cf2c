// NOrec: a progressive lock-based STM with no ownership records — one
// global sequence lock, invisible reads, commit-time *value-based*
// revalidation, and lazy write-back (Dalessandro, Spear & Scott, PPoPP'10).
//
// Why it is in this repo: the source paper argues obstruction-free TMs pay
// an inherent price; the strongest counterpoint in the literature
// ("Why Transactional Memory Should Not Be Obstruction-Free", Kuznetsov &
// Ravi; "Progressive Transactional Memory in Time and Space") is exactly a
// minimal progressive, blocking TM of this shape. NOrec guarantees:
//
//   * progressiveness — a transaction is forcefully aborted only when a
//     concurrent transaction *committed* a conflicting write since its
//     snapshot (value inequality is the conflict witness);
//   * system-wide progress (livelock freedom) — the commit CAS on the
//     sequence lock fails only because some other transaction committed;
//   * opacity — every successful read is consistent with the whole read
//     set at the transaction's current snapshot time.
//
// What it gives up is obstruction freedom: a committer that stalls while
// holding the sequence lock (odd value) blocks every other commit and
// validation. That trade is the comparison this backend anchors.
//
// Value-based validation also means the classic version-clock ABA case
// (write x:=b, then a later transaction restores x:=a) does NOT abort a
// reader that saw a — the snapshot is still semantically consistent.
// tests/norec_test.cpp pins this behaviour down against TL2.
//
// One protocol over either metadata layout (lock/layout.hpp): Norec<P>
// runs over boxed t-variables, NorecRegion over the words of a RegionHeap.
// NOrec reads no per-location metadata at all, which makes NorecRegion the
// baseline the stripe sweep of Tl2Region is compared to. One region
// consequence is worth naming: value-based revalidation may re-read words
// of a block freed and retired after this transaction's snapshot. The
// epoch pin guarantees the block has not been recycled, and retire() does
// not write, so those loads are memory-safe and return the values the
// snapshot saw — revalidation stays sound.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/tm.hpp"
#include "lock/layout.hpp"
#include "lock/layout_tm.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::norec {

struct NorecOptions {
  // Gate the per-read write-set lookup behind a 64-bit Bloom filter (two
  // hash bits per location): a definite miss skips the probe entirely.
  // The classic NOrec hot-path optimisation; off by default so plain
  // "norec" matches the published algorithm and benches isolate the
  // filter's effect.
  bool bloom_reads = false;
};

// Two bits in a 64-bit word per location.
template <typename Loc>
std::uint64_t bloom_mask(Loc loc) noexcept {
  const std::uint64_t h = runtime::mix64(lock::location_bits(loc) + 1);
  return (std::uint64_t{1} << (h & 63)) | (std::uint64_t{1} << ((h >> 6) & 63));
}

template <typename Layout>
class NorecProtocol : public lock::LayoutProtocol<Layout> {
  using Base = lock::LayoutProtocol<Layout>;
  using Loc = typename Layout::Loc;
  using Platform = typename Layout::Platform;

 public:
  using Options = NorecOptions;

  class Txn final : public Base::TxnBase {
    friend class NorecProtocol;
    struct ReadEntry {
      Loc loc;
      core::Value value;  // the value this transaction observed
    };
    std::uint64_t snapshot_ = 0;  // even sequence-lock value the reads are
                                  // currently validated against
    std::vector<ReadEntry> reads_;
    std::uint64_t write_filter_ = 0;
  };

  NorecProtocol(std::size_t num_tvars, const core::RegionOptions& region,
                NorecOptions options)
      : Base(num_tvars, region, /*versioned=*/false), options_(options) {}

  // Re-arm a pooled descriptor: read/write-set capacity survives, nothing
  // allocates. NOrec transactions hold no protocol resources before commit.
  void prepare(Txn& tx) {
    this->arm(tx);
    // Snapshot an even (quiescent) sequence-lock value. All shared-word
    // accesses in this backend are seq_cst: the correctness argument of the
    // sequence-lock protocol is then a statement about the single total
    // order S — and seq_cst loads cost the same as acquire loads on the
    // read hot path of every ISA we target.
    std::uint64_t s = seqlock_.value.load(std::memory_order_seq_cst);
    while (s & 1) {
      Platform::pause();
      s = seqlock_.value.load(std::memory_order_seq_cst);
    }
    tx.snapshot_ = s;
    tx.reads_.clear();
    tx.write_filter_ = 0;
  }

  std::optional<core::Value> read(Txn& tx, Loc loc) {
    Layout& layout = this->layout_;
    this->reads_.add();
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kReadLookup);
      // Read-your-own-writes from the redo log. With the Bloom ablation a
      // definite filter miss skips the probe.
      if (!options_.bloom_reads ||
          (tx.write_filter_ & bloom_mask(loc)) == bloom_mask(loc)) {
        if (const core::Value* w = tx.writes_.find(loc)) return *w;
      }
      // A private region block: invisible to everyone else, so no snapshot
      // discipline applies (and it must not enter the read set — its values
      // may legitimately change in place under this transaction).
      if (layout.owns(tx.res_, loc)) {
        return layout.load(loc, std::memory_order_relaxed);
      }
    }

    // Invisible read with post-validation: the value is consistent iff the
    // sequence lock still equals our snapshot *after* the value load (no
    // commit intervened). If the clock moved, revalidate the whole read
    // set by value and adopt the newer snapshot.
    core::Value v = layout.load(loc, std::memory_order_seq_cst);
    while (seqlock_.value.load(std::memory_order_seq_cst) != tx.snapshot_) {
      if (!revalidate(tx)) {
        this->abort_forced(tx, obs::AbortReason::kReadValidation,
                           Layout::key(loc));
        return std::nullopt;
      }
      v = layout.load(loc, std::memory_order_seq_cst);
    }
    tx.reads_.push_back({loc, v});
    return v;
  }

  bool write(Txn& tx, Loc loc, core::Value v) {
    if (!Base::write(tx, loc, v)) return false;
    tx.write_filter_ |= bloom_mask(loc);
    return true;
  }

  bool try_commit(Txn& tx) {
    if (tx.status_ != core::TxStatus::kActive) return false;

    // Read-only fast path: every read was validated against snapshot_ at
    // read time; nothing to publish, and the global clock is not touched
    // (read-only transactions are invisible end to end).
    if (tx.writes_.empty()) {
      this->settle_commit(tx);
      return true;
    }

    // Acquire the sequence lock at exactly our snapshot. A failed CAS
    // means some other transaction committed (or is committing) since the
    // snapshot — the livelock-freedom witness — so revalidate by value and
    // retry from the newer snapshot.
    std::uint64_t s = tx.snapshot_;
    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kCommitLock);
      while (!seqlock_.value.compare_exchange_strong(
          s, s + 1, std::memory_order_seq_cst)) {
        this->cm_backoffs_.add();
        std::uint64_t culprit = obs::kNoKey;
        if (!revalidate(tx, &culprit)) {
          // The seqlock moved (a concurrent commit) and the read set no
          // longer revalidates at the newer snapshot.
          this->abort_forced(tx, obs::AbortReason::kSnapshotChanged, culprit);
          return false;
        }
        s = tx.snapshot_;
      }
    }

    // Lock held (odd value): lazy write-back, then release with the next
    // even value. A stall here blocks everyone — the obstruction-freedom
    // trade this backend exists to quantify.
    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kWriteBack);
      tx.writes_.for_each([&](Loc loc, core::Value v) {
        this->layout_.store(loc, v, std::memory_order_seq_cst);
      });
    }
    seqlock_.value.store(tx.snapshot_ + 2, std::memory_order_seq_cst);
    this->settle_commit(tx);
    return true;
  }

  std::string name() const {
    return std::string(Layout::kRegion ? "norec-region" : "norec") +
           (options_.bloom_reads ? "+bloom" : "");
  }

 private:
  // Value-based revalidation: wait out any in-flight write-back, re-read
  // every read-set entry, and confirm the sequence lock did not move while
  // we looked. On success the transaction adopts the newer snapshot (its
  // reads are consistent *now*, not just at the old time); failure means a
  // conflicting write committed — the only way NOrec ever force-aborts.
  bool revalidate(Txn& tx, std::uint64_t* culprit = nullptr) {
    OFTM_OBS_PHASE(this->obs_, obs::Phase::kValidation);
    for (;;) {
      std::uint64_t time = seqlock_.value.load(std::memory_order_seq_cst);
      if (time & 1) {
        Platform::pause();
        continue;
      }
      bool values_match = true;
      for (const auto& r : tx.reads_) {
        if (this->layout_.load(r.loc, std::memory_order_seq_cst) != r.value) {
          if (culprit != nullptr) *culprit = Layout::key(r.loc);
          values_match = false;
          break;
        }
      }
      if (!values_match) return false;
      if (seqlock_.value.load(std::memory_order_seq_cst) == time) {
        tx.snapshot_ = time;
        return true;
      }
      // The clock moved under us: some commit raced the scan; try again.
    }
  }

  const NorecOptions options_;
  // The one and only ownership record: even = quiescent, odd = a committer
  // is writing back. Every conflict in this TM is mediated here.
  runtime::CacheAligned<typename Platform::template Atomic<std::uint64_t>>
      seqlock_{0};
};

template <typename P>
using Norec = lock::LayoutTm<NorecProtocol<lock::BoxedLayout<P>>>;
using HwNorec = Norec<core::HwPlatform>;

// A named class rather than an alias, as lock::Tl2Region.
class NorecRegion final
    : public lock::LayoutTm<NorecProtocol<lock::RegionLayout>> {
 public:
  using LayoutTm::LayoutTm;
};

}  // namespace oftm::norec
