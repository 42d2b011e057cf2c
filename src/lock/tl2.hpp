// TL2: commit-time locking with a global version clock [10].
//
// The paper singles this design out as the *exception* among lock-based
// TMs: "Notable exceptions are those TMs that use global timestamps in
// order to speed up the read validation process, e.g., TL2 [10] ... every
// transaction has to access a common memory location to determine its
// timestamp." — i.e., TL2 is NOT strictly disjoint-access-parallel by
// construction (the global clock is a base object shared by all
// transactions), but for the benign reason of a read-mostly-shared counter
// rather than DSTM's read-write descriptor hot spots. The DAP experiments
// report TL2's clock conflicts separately to make that distinction visible.
//
// One protocol over either metadata layout (lock/layout.hpp): Tl2<P> runs
// over boxed t-variables, each with its own lock word; Tl2Region runs over
// the words of a RegionHeap with lock words in a stripe table — the shape
// the original TL2 paper ships (its "PS" mode). There the conflict unit is
// the stripe: aliasing neighbours or colliding granules can only add
// conflicts, never hide one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/tm.hpp"
#include "lock/layout.hpp"
#include "lock/layout_tm.hpp"
#include "lock/versioned_lock.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::lock {

struct Tl2Options {
  int lock_patience = 64;  // spins per write-set lock before self-abort
  // Read-version extension: on a stale read (version > rv), revalidate the
  // read set against the current clock and, if every recorded version is
  // untouched, adopt the new clock value as rv instead of aborting. The
  // classic TL2 refinement; off by default to match the base algorithm —
  // bench_throughput compares both.
  bool rv_extension = false;
};

template <typename Layout>
class Tl2Protocol : public LayoutProtocol<Layout> {
  using Base = LayoutProtocol<Layout>;
  using Loc = typename Layout::Loc;
  using Platform = typename Layout::Platform;

 public:
  using Options = Tl2Options;

  class Txn final : public Base::TxnBase {
    friend class Tl2Protocol;
    struct ReadEntry {
      std::uint32_t lock;     // lock index of the location read
      std::uint64_t version;  // lock-word version observed at read time
    };
    struct CommitEntry {
      core::Value value;
      Loc loc;
      std::uint32_t lock;
    };
    std::uint64_t rv_ = 0;  // read version (global clock at begin)
    std::vector<ReadEntry> reads_;
    // Commit-path scratch, kept across transactions so the commit protocol
    // allocates nothing after warm-up.
    std::vector<CommitEntry> commit_set_;
    std::vector<std::uint32_t> locked_;
    std::vector<std::uint64_t> lock_versions_;
  };

  Tl2Protocol(std::size_t num_tvars, const core::RegionOptions& region,
              Tl2Options options)
      : Base(num_tvars, region, /*versioned=*/true), options_(options) {}

  void prepare(Txn& tx) {
    this->arm(tx);
    // The shared-clock read that makes TL2 non-strictly-DAP.
    tx.rv_ = clock_.value.load(std::memory_order_acquire);
    tx.reads_.clear();
  }

  std::optional<core::Value> read(Txn& tx, Loc loc) {
    Layout& layout = this->layout_;
    this->reads_.add();
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kReadLookup);
      if (const core::Value* w = tx.writes_.find(loc)) return *w;
      // A private region block: nobody else can touch it, and its stripes
      // carry whatever versions the address range's previous life left
      // behind — bypass validation entirely.
      if (layout.owns(tx.res_, loc)) {
        return layout.load(loc, std::memory_order_relaxed);
      }
    }

    const std::size_t li = layout.lock_index(loc);
    auto& lock = layout.lock(li);
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t w1 = lock.load(std::memory_order_acquire);
      const core::Value v = layout.load(loc, std::memory_order_relaxed);
      const std::uint64_t w2 = lock.load(std::memory_order_acquire);
      // Valid iff stable, unlocked, and not newer than our read version.
      if (w1 == w2 && !LockWord::locked(w1) &&
          LockWord::version(w1) <= tx.rv_) {
        tx.reads_.push_back(
            {static_cast<std::uint32_t>(li), LockWord::version(w1)});
        return v;
      }
      // Stale or unstable: try extending rv once, then give up.
      if (pass == 0 && options_.rv_extension && try_extend(tx)) continue;
      break;
    }
    this->abort_forced(tx, obs::AbortReason::kReadValidation, li);
    return std::nullopt;
  }

  bool try_commit(Txn& tx) {
    Layout& layout = this->layout_;
    if (tx.status_ != core::TxStatus::kActive) return false;

    // Read-only fast path: every read was validated against rv at read
    // time; nothing to lock. Region private-block writes and alloc/free
    // logs still settle.
    if (tx.writes_.empty()) {
      this->settle_commit(tx);
      return true;
    }

    // Gather the redo log into commit scratch sorted by (lock, location),
    // and take each distinct lock word once, in ascending order (deadlock
    // avoidance across committers), with bounded spins (self-abort
    // liveness, as in the original).
    auto& cs = tx.commit_set_;
    cs.clear();
    tx.writes_.for_each([&](Loc loc, core::Value v) {
      cs.push_back(
          {v, loc, static_cast<std::uint32_t>(layout.lock_index(loc))});
    });
    std::sort(cs.begin(), cs.end(), [](const auto& a, const auto& b) {
      return a.lock != b.lock ? a.lock < b.lock : a.loc < b.loc;
    });

    std::vector<std::uint32_t>& locked = tx.locked_;
    std::vector<std::uint64_t>& base = tx.lock_versions_;
    locked.clear();
    base.clear();
    typename Platform::Backoff backoff;
    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kCommitLock);
      for (const auto& e : cs) {
        if (!locked.empty() && locked.back() == e.lock) continue;  // shared
        auto& lock = layout.lock(e.lock);
        int spin = 0;
        for (;;) {
          std::uint64_t w = lock.load(std::memory_order_acquire);
          if (!LockWord::locked(w)) {
            const std::uint64_t held =
                LockWord::pack(LockWord::version(w), true);
            if (lock.compare_exchange_strong(w, held,
                                             std::memory_order_acq_rel)) {
              locked.push_back(e.lock);
              base.push_back(LockWord::version(w));
              break;
            }
          }
          if (++spin > options_.lock_patience) {
            unlock(tx);
            this->abort_forced(tx, obs::AbortReason::kLockTimeout, e.lock);
            return false;
          }
          this->cm_backoffs_.add();
          OFTM_OBS_PHASE(this->obs_, obs::Phase::kBackoff);
          backoff.pause();
        }
      }
    }

    // Commit timestamp from the shared clock.
    const std::uint64_t wv =
        clock_.value.fetch_add(1, std::memory_order_acq_rel) + 1;

    // Validate the read set unless nobody could have committed in between.
    // A lock this transaction holds may appear locked.
    if (tx.rv_ + 1 != wv) {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kValidation);
      for (const auto& r : tx.reads_) {
        const bool own =
            std::binary_search(locked.begin(), locked.end(), r.lock);
        const std::uint64_t w =
            layout.lock(r.lock).load(std::memory_order_acquire);
        if ((LockWord::locked(w) && !own) || LockWord::version(w) > tx.rv_) {
          unlock(tx);
          this->abort_forced(tx, obs::AbortReason::kReadValidation, r.lock);
          return false;
        }
      }
    }

    // Write back, then release every lock with the commit version.
    {
      OFTM_OBS_PHASE(this->obs_, obs::Phase::kWriteBack);
      for (const auto& e : cs) {
        layout.store(e.loc, e.value, std::memory_order_relaxed);
      }
      for (std::uint32_t li : locked) {
        layout.lock(li).store(LockWord::pack(wv, false),
                              std::memory_order_release);
      }
    }
    this->settle_commit(tx);
    return true;
  }

  std::string name() const {
    return std::string(Layout::kRegion ? "tl2-region" : "tl2") +
           (options_.rv_extension ? "+ext" : "");
  }

 private:
  // rv extension: sound iff every recorded read is still current at the
  // *new* clock value — the snapshot simply turns out to be fresher than
  // first assumed.
  bool try_extend(Txn& tx) {
    OFTM_OBS_PHASE(this->obs_, obs::Phase::kValidation);
    const std::uint64_t new_rv = clock_.value.load(std::memory_order_acquire);
    if (new_rv <= tx.rv_) return false;
    for (const auto& r : tx.reads_) {
      const std::uint64_t w =
          this->layout_.lock(r.lock).load(std::memory_order_acquire);
      if (LockWord::locked(w) || LockWord::version(w) != r.version) {
        return false;
      }
    }
    tx.rv_ = new_rv;
    return true;
  }

  // Release the locks taken so far at their pre-lock versions.
  void unlock(Txn& tx) {
    for (std::size_t i = 0; i < tx.locked_.size(); ++i) {
      this->layout_.lock(tx.locked_[i])
          .store(LockWord::pack(tx.lock_versions_[i], false),
                 std::memory_order_release);
    }
  }

  const Tl2Options options_;
  runtime::CacheAligned<typename Platform::template Atomic<std::uint64_t>>
      clock_{0};
};

template <typename P>
using Tl2 = LayoutTm<Tl2Protocol<BoxedLayout<P>>>;
using HwTl2 = Tl2<core::HwPlatform>;

// A named class rather than an alias, so the region backend keeps its own
// name in diagnostics and in typed-test names.
class Tl2Region final : public LayoutTm<Tl2Protocol<RegionLayout>> {
 public:
  using LayoutTm::LayoutTm;
};

}  // namespace oftm::lock
