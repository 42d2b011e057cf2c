// The pieces TL2 and NOrec share around their protocols:
//
//   LayoutProtocol<Layout> — the base each protocol derives from: the
//       layout, the stats counters, the descriptor fields every protocol
//       keeps (id, status, redo log, layout resources) and the
//       bookkeeping around them: re-arming a pooled descriptor, buffered
//       writes, tx_alloc/tx_free, abort and commit epilogues.
//   LayoutTm<Protocol> — the one core::TransactionalMemory adapter: it
//       maps TVarId x to layout().loc(x) (a slot index on the boxed
//       layout, word x of one heap allocation on the region layout), runs
//       the pooled sessions, and on the region layout alone adds the
//       word tier (read_word/write_word/tx_alloc/tx_free), through which
//       the ds:: containers lay records out as heap words.
//
// A protocol provides Options, a Txn derived from TxnBase, and
// prepare/read/try_commit/name; see lock/tl2.hpp and norec/norec.hpp.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "core/region.hpp"
#include "core/tm.hpp"
#include "lock/layout.hpp"
#include "runtime/assert.hpp"

namespace oftm::lock {

template <typename L>
class LayoutProtocol : protected core::TmStatsMixin {
 public:
  using Layout = L;
  using Loc = typename Layout::Loc;

  class TxnBase : public core::Transaction {
   public:
    core::TxStatus status() const override { return status_; }
    core::TxId id() const override { return id_; }

   protected:
    // A dropped portability-tier handle may leave a region transaction
    // active, still owning private blocks and the epoch pin: roll it back
    // before the descriptor re-enters the pool.
    void handle_released() noexcept override {
      if constexpr (Layout::kRegion) {
        if (home_ != nullptr && status_ == core::TxStatus::kActive) {
          home_->rollback_abort(*this);
        }
      }
      core::Transaction::handle_released();
    }

    friend class LayoutProtocol;
    LayoutProtocol* home_ = nullptr;
    core::TxId id_ = 0;
    // A pooled descriptor is born finished; prepare() arms it.
    core::TxStatus status_ = core::TxStatus::kAborted;
    WriteSet<Loc> writes_;
    typename Layout::TxResources res_;
  };

  Layout& layout() noexcept { return layout_; }
  const Layout& layout() const noexcept { return layout_; }

  bool write(TxnBase& tx, Loc loc, core::Value v) {
    writes_.add();
    if (tx.status_ != core::TxStatus::kActive) return false;
    if (layout_.owns(tx.res_, loc)) {
      // Private block: write in place, no redo log, no commit-time lock.
      layout_.store(loc, v, std::memory_order_relaxed);
      return true;
    }
    tx.writes_.put(loc, v);
    return true;
  }

  // Exhaustion returns nullptr, not an abort: retrying will not help.
  void* tx_alloc(TxnBase& tx, std::size_t bytes) {
    if (tx.status_ != core::TxStatus::kActive) return nullptr;
    return layout_.alloc(tx.res_, bytes);
  }

  bool tx_free(TxnBase& tx, void* p) {
    if (tx.status_ != core::TxStatus::kActive) return false;
    layout_.defer_free(tx.res_, p);
    return true;
  }

  void try_abort(TxnBase& tx) {
    if (tx.status_ != core::TxStatus::kActive) return;
    rollback_abort(tx);
  }

  runtime::TxStats stats() const { return collect_stats(); }
  void reset_stats() { reset_collect_stats(); }

 protected:
  LayoutProtocol(std::size_t num_tvars, const core::RegionOptions& region,
                 bool versioned)
      : layout_(num_tvars, region, versioned) {}

  // Re-arm a pooled descriptor; set capacities survive. A region
  // transaction abandoned while active still owns resources and is rolled
  // back first; a boxed one holds nothing before commit and is just reset.
  void arm(TxnBase& tx) {
    obs_tx_begin();
    if constexpr (Layout::kRegion) {
      if (tx.home_ != nullptr && tx.status_ == core::TxStatus::kActive) {
        rollback_abort(tx);
      }
      tx.home_ = this;
    }
    layout_.arm(tx.res_);
    tx.id_ = next_tx_id();
    tx.status_ = core::TxStatus::kActive;
    tx.writes_.clear();
  }

  void settle_commit(TxnBase& tx) {
    layout_.settle(tx.res_);
    tx.status_ = core::TxStatus::kCommitted;
    commits_.add();
  }

  // tryA, or an abandoned descriptor: the owner's side asked for it.
  void rollback_abort(TxnBase& tx) {
    layout_.rollback(tx.res_);
    tx.status_ = core::TxStatus::kAborted;
    count_requested_abort();
  }

  void abort_forced(TxnBase& tx, obs::AbortReason reason,
                    std::uint64_t key = obs::kNoKey) {
    layout_.rollback(tx.res_);
    tx.status_ = core::TxStatus::kAborted;
    count_forced_abort(reason, key);
  }

  Layout layout_;

 private:
  static core::TxId next_tx_id() {
    thread_local std::uint64_t counter = 0;
    return core::make_tx_id(Layout::Platform::thread_id(), ++counter);
  }
};

namespace detail {

// The word tier exists on the region layout only; the boxed layout keeps
// TransactionalMemory's asserting defaults.
template <typename Tm, bool kRegion>
class WordTier : public core::TransactionalMemory {};

template <typename Tm>
class WordTier<Tm, true> : public core::TransactionalMemory {
 public:
  bool has_word_access() const final { return true; }

  std::optional<core::Value> read_word(core::Transaction& t,
                                       const core::Value* addr) final {
    OFTM_ASSERT(self().layout().heap().contains(addr));
    // Read and write sets key locations by one mutable word pointer.
    return self().proto_.read(Tm::txn(t), const_cast<core::Value*>(addr));
  }

  bool write_word(core::Transaction& t, core::Value* addr,
                  core::Value v) final {
    OFTM_ASSERT(self().layout().heap().contains(addr));
    return self().proto_.write(Tm::txn(t), addr, v);
  }

  void* tx_alloc(core::Transaction& t, std::size_t bytes) final {
    return self().proto_.tx_alloc(Tm::txn(t), bytes);
  }

  bool tx_free(core::Transaction& t, void* p) final {
    return self().proto_.tx_free(Tm::txn(t), p);
  }

  void* alloc_quiescent(std::size_t bytes) final {
    return self().layout().heap().alloc(bytes);
  }

  core::Value read_word_quiescent(const core::Value* addr) const final {
    return self().layout().load(addr, std::memory_order_seq_cst);
  }

 private:
  Tm& self() { return static_cast<Tm&>(*this); }
  const Tm& self() const { return static_cast<const Tm&>(*this); }
};

}  // namespace detail

// Every override is final, so calls through a concrete LayoutTm (the
// visit_tm hot path) devirtualize; the class itself stays open so a
// backend can be given its own class name (lock::Tl2Region).
template <typename Protocol>
class LayoutTm
    : public detail::WordTier<LayoutTm<Protocol>, Protocol::Layout::kRegion> {
 public:
  using Layout = typename Protocol::Layout;
  using Options = typename Protocol::Options;
  using Txn = typename Protocol::Txn;
  using Session = core::PooledTmSession<Txn>;

  explicit LayoutTm(std::size_t num_tvars, Options options = {})
      : proto_(num_tvars, core::RegionOptions{}, options) {}

  LayoutTm(std::size_t num_tvars, const core::RegionOptions& region,
           Options options = {})
    requires Layout::kRegion
      : proto_(num_tvars, region, options) {}

  Layout& layout() noexcept { return proto_.layout(); }
  const Layout& layout() const noexcept { return proto_.layout(); }

  core::TmSession& this_thread_session() final {
    return this->session(Layout::Platform::thread_id());
  }

  core::Transaction& begin(core::TmSession& session) final {
    Txn& tx = static_cast<Session&>(session).hot();
    proto_.prepare(tx);
    return tx;
  }

  core::TxnPtr begin() final {
    Txn& tx = static_cast<Session&>(this_thread_session()).checkout();
    proto_.prepare(tx);
    return core::TxnPtr(&tx);
  }

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) final {
    return proto_.read(txn(t), loc(x));
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) final {
    return proto_.write(txn(t), loc(x), v);
  }

  bool try_commit(core::Transaction& t) final {
    return proto_.try_commit(txn(t));
  }

  void try_abort(core::Transaction& t) final { proto_.try_abort(txn(t)); }

  std::size_t num_tvars() const final { return layout().num_tvars(); }
  core::Value read_quiescent(core::TVarId x) const final {
    return layout().load(loc(x), std::memory_order_seq_cst);
  }
  std::string name() const final { return proto_.name(); }
  runtime::TxStats stats() const final { return proto_.stats(); }
  void reset_stats() final { proto_.reset_stats(); }

 protected:
  std::unique_ptr<core::TmSession> make_session(
      core::ThreadSlot slot) final {
    return std::make_unique<Session>(slot);
  }

 private:
  friend class detail::WordTier<LayoutTm, Layout::kRegion>;

  static Txn& txn(core::Transaction& t) { return static_cast<Txn&>(t); }

  typename Layout::Loc loc(core::TVarId x) const {
    OFTM_ASSERT(x < layout().num_tvars());
    return layout().loc(x);
  }

  Protocol proto_;
};

}  // namespace oftm::lock
