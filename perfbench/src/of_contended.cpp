// of_contended: the paper's obstruction-free TM (DSTM, polite contention
// manager) under contention, driven through the TM interface's session
// begin / read / write / try_commit calls.
//
// 2,097,152 t-variables (a few hundred MiB of locators, several times the
// last-level cache); each transaction is 4 pairs of ops, every op drawn
// from a 16-variable hot set or uniformly with equal odds, and each pair
// either two reads or a sum-preserving transfer of one unit. The sum of
// all t-variables therefore stays 0 (mod 2^64), which the gate checks.
#include <memory>
#include <optional>
#include <vector>

#include "core/tm.hpp"
#include "report.hpp"
#include "runtime/backoff.hpp"
#include "runtime/xorshift.hpp"
#include "workload/factory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = oftm::core;
using oftm::runtime::mix64;
using oftm::runtime::Xoshiro256;

constexpr std::size_t kTVars = 2'097'152;
constexpr std::uint64_t kHotSet = 16;
constexpr int kPairs = 4;  // 8 ops per transaction
constexpr std::uint64_t kWarmupTxnsPerThread = 20'000;
constexpr int kMaxAttempts = 100'000;

struct alignas(64) ThreadPhase {
  Histogram commit;   // ns from the first begin to the commit
  Histogram retries;  // extra attempts per committed transaction
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t gave_up = 0;
  std::optional<Windows> windows;
  std::optional<Tracer> tracer;

  void merge(const ThreadPhase& o) {
    commit.merge(o.commit);
    retries.merge(o.retries);
    attempted += o.attempted;
    committed += o.committed;
    gave_up += o.gave_up;
    windows->merge(*o.windows);
    if (tracer && o.tracer) tracer->merge(*o.tracer);
  }
};

struct OfPhase {
  ThreadPhase total;
  PhaseStats stats;
  oftm::runtime::TxStats tm;
};

class OfBench {
 public:
  explicit OfBench(std::uint64_t seed)
      : tm_(oftm::workload::make_tm("dstm", kTVars)) {
    for (int t = 0; t < kWorkerThreads; ++t) {
      rngs_.emplace_back(
          mix64(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t) + 1));
    }
  }

  // Writes every t-var once, as one-unit transfers between neighbours,
  // then runs a fixed count of contended transactions. Every locator then
  // already names a committed writer, as it will throughout the run, so
  // the run does not start from the freshly constructed layout and drift
  // away from it as the uniform writes reach each t-var.
  void warm_up() {
    core::TmSession& session = tm_->this_thread_session();
    for (std::size_t x = 0; x + 1 < kTVars; x += 2) {
      const auto a = static_cast<core::TVarId>(x);
      const auto b = static_cast<core::TVarId>(x + 1);
      for (;;) {
        core::Transaction& txn = tm_->begin(session);
        const auto va = tm_->read(txn, a);
        const auto vb = va ? tm_->read(txn, b) : std::nullopt;
        if (va && vb && tm_->write(txn, a, *va - 1) &&
            tm_->write(txn, b, *vb + 1) && tm_->try_commit(txn)) {
          break;
        }
      }
    }
    run(0, kWarmupTxnsPerThread, false, Clock::now());
  }

  OfPhase timed(double seconds, bool traced, Clock::time_point epoch) {
    return run(seconds, 0, traced, epoch);
  }

  // Quiescent: every transfer moved one unit, so the values sum to 0.
  bool sum_preserved() const {
    core::Value sum = 0;
    for (std::size_t x = 0; x < kTVars; ++x) {
      sum += tm_->read_quiescent(static_cast<core::TVarId>(x));
    }
    return sum == 0;
  }

 private:
  OfPhase run(double seconds, std::uint64_t count, bool traced,
              Clock::time_point epoch) {
    tm_->reset_stats();
    std::vector<std::unique_ptr<ThreadPhase>> phases;
    for (int t = 0; t < kWorkerThreads; ++t) {
      phases.push_back(std::make_unique<ThreadPhase>());
    }
    OfPhase out;
    out.stats.before = ProcSample::now();
    const double window_span = count > 0 ? 0.0 : seconds;
    out.stats.wall_s = run_phase(
        kWorkerThreads, count > 0 ? 1e6 : seconds,
        [&](int t, Clock::time_point start, Clock::time_point deadline) {
          ThreadPhase& p = *phases[static_cast<std::size_t>(t)];
          p.windows.emplace(start, window_span);
          if (traced) p.tracer.emplace(t, epoch);
          Xoshiro256& rng = rngs_[static_cast<std::size_t>(t)].rng;
          for (std::uint64_t i = 0;; ++i) {
            const auto begin = Clock::now();
            if (count > 0 ? i >= count : begin >= deadline) break;
            ++p.attempted;
            const int attempts = transaction(rng, p.tracer ? &*p.tracer : nullptr);
            const auto end = Clock::now();
            if (attempts == 0) {
              ++p.gave_up;
              continue;
            }
            ++p.committed;
            p.commit.record(ns_between(begin, end));
            p.retries.record(static_cast<std::uint64_t>(attempts - 1));
            p.windows->tick(end);
          }
        });
    out.stats.after = ProcSample::now();
    out.total = std::move(*phases[0]);
    for (int t = 1; t < kWorkerThreads; ++t) {
      out.total.merge(*phases[static_cast<std::size_t>(t)]);
    }
    out.stats.ops = out.total.committed;
    out.stats.window_rates = out.total.windows->rates();
    out.tm = tm_->stats();
    return out;
  }

  static core::TVarId pick(Xoshiro256& rng) {
    return static_cast<core::TVarId>(
        rng.next_bool(0.5) ? rng.next_range(kHotSet) : rng.next_range(kTVars));
  }

  // One logical transaction, retried until it commits. Returns the number
  // of attempts it took, or 0 when it hit the attempt cap.
  int transaction(Xoshiro256& rng, Tracer* tr) {
    core::TVarId a[kPairs];
    core::TVarId b[kPairs];
    bool update[kPairs];
    for (int j = 0; j < kPairs; ++j) {
      a[j] = pick(rng);
      b[j] = pick(rng);
      if (b[j] == a[j]) b[j] = static_cast<core::TVarId>((a[j] + 1) % kTVars);
      update[j] = rng.next_bool(0.5);
    }
    if (tr) {
      tr->next_op();
      tr->open(SpanKind::kTxn);
    }
    core::TmSession& session = tm_->this_thread_session();
    oftm::runtime::ExponentialBackoff backoff;
    int result = 0;
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      if (tr) tr->open(SpanKind::kAttemptCommit);
      core::Transaction& txn = tm_->begin(session);
      bool ok = true;
      for (int j = 0; ok && j < kPairs; ++j) {
        const auto va = tm_->read(txn, a[j]);
        const auto vb = va ? tm_->read(txn, b[j]) : std::nullopt;
        ok = va && vb;
        if (ok && update[j]) {
          ok = tm_->write(txn, a[j], *va - 1) && tm_->write(txn, b[j], *vb + 1);
        }
      }
      ok = ok && tm_->try_commit(txn);
      if (tr) tr->close(ok ? SpanKind::kAttemptCommit : SpanKind::kAttemptAbort);
      if (ok) {
        result = attempt;
        break;
      }
      backoff.pause();
    }
    if (tr) tr->close();
    return result;
  }

  // One stream per thread, each on its own cache line.
  struct alignas(64) Stream {
    explicit Stream(std::uint64_t seed) : rng(seed) {}
    Xoshiro256 rng;
  };

  std::unique_ptr<core::TransactionalMemory> tm_;
  std::vector<Stream> rngs_;
};

void gate_phase(Outcome& out, const OfPhase& ph, const OfBench& bench,
                const char* phase) {
  const std::string tag = std::string(" (") + phase + ")";
  out.gate(bench.sum_preserved(), "sum over all t-vars changed" + tag);
  out.gate(ph.tm.abort_reasons_consistent(),
           "abort reasons do not sum to the abort count" + tag);
}

}  // namespace

Outcome run_of_contended(const Options& opt) {
  Outcome out;
  std::unique_ptr<OfBench> bench;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bench.reset();
    const auto t0 = Clock::now();
    bench = std::make_unique<OfBench>(opt.seed);
    bench->warm_up();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto epoch = Clock::now();
  const OfPhase plain = bench->timed(opt.seconds, /*traced=*/false, epoch);
  gate_phase(out, plain, *bench, "untraced");
  out.attempted = plain.total.attempted;
  out.failed = plain.total.gave_up;

  EndToEnd e2e;
  plain.stats.fill(e2e);
  e2e.op_p50_us = pct_or_zero(plain.total.commit, 0.50);
  e2e.op_samples = plain.total.commit.count();
  e2e.setup_s = median(setup_s);
  out.end_to_end = e2e.metrics();
  out.detail.push_back({"throughput_mean_ops_s", e2e.mean_ops_s, "1/s",
                        plain.total.committed});
  add_latency_detail(out, "commit", plain.total.commit);
  plain.stats.add_detail(out);
  out.detail.push_back({"failed_op_ratio",
                        ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted)),
                        "ratio", out.attempted});

  if (!opt.trace) return out;

  PerLayer l;
  l.tm = plain.tm;
  l.retries_p99 = pct(plain.total.retries, 0.99, 1.0);
  plain.stats.fill(l);
  const OfPhase traced = bench->timed(opt.seconds, /*traced=*/true, epoch);
  gate_phase(out, traced, *bench, "traced");
  const Tracer& tr = *traced.total.tracer;
  Histogram attempts = tr.durations(SpanKind::kAttemptCommit);
  attempts.merge(tr.durations(SpanKind::kAttemptAbort));
  l.attempt_p50_us = pct(attempts, 0.50);
  l.tracing_overhead_frac = tracing_overhead(plain.stats.median_rate(),
                                             traced.stats.median_rate());
  out.per_layer = l.metrics();
  out.gate(write_trace_files(opt, tr), "cannot write the trace files");
  return out;
}

}  // namespace perfbench
