// Measurement pieces shared by the benchmark's workloads: latency
// histograms with sub-1% buckets, fixed throughput windows, process
// counters, the span recorder of the traced run, and the result report.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/topology.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";  // where a traced run writes its span files
};

// Percentiles come from per-op samples folded into a log-linear histogram:
// values below 256 are exact, larger ones fall into 128 buckets per power
// of two, so a bucket spans at most 1/128 (0.8%) of its values.
class Histogram {
 public:
  Histogram() : buckets_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++buckets_[index_of(v)];
    ++count_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  // Nearest-rank percentile q in (0, 1]; exact below 256, otherwise
  // interpolated linearly by rank inside its bucket. A percentile above
  // the median is empty when fewer than ten samples lie beyond it, so no
  // reported tail rests on a handful of samples.
  std::optional<double> percentile(double q) const {
    if (count_ == 0) return std::nullopt;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    if (q > 0.5 && count_ - rank < 10) return std::nullopt;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        if (i < kExact) return static_cast<double>(i);
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(buckets_[i]);
        return lower_bound(i) + within * width(i);
      }
      seen += buckets_[i];
    }
    return std::nullopt;
  }

 private:
  static constexpr int kSubBits = 7;  // 128 sub-buckets per octave
  static constexpr std::size_t kExact = 256;
  static constexpr std::size_t kBuckets = kExact + (64 - 8) * 128;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);  // >= 8
    const int shift = msb - kSubBits;          // >= 1
    const std::uint64_t top = v >> shift;      // in [128, 256)
    return kExact + static_cast<std::size_t>(shift - 1) * 128 +
           static_cast<std::size_t>(top - 128);
  }

  static double width(std::size_t i) {
    return std::ldexp(1.0, static_cast<int>((i - kExact) / 128 + 1));
  }

  static double lower_bound(std::size_t i) {
    return static_cast<double>((i - kExact) % 128 + 128) * width(i);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Distance between the quartiles over the median, interpolating linearly
// between order statistics; a noise flag for the window rates.
inline double iqr_fraction(std::vector<double> v) {
  if (v.size() < 4) return 0;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  const double med = at(0.5);
  return med > 0 ? (at(0.75) - at(0.25)) / med : 0;
}

// Completed operations per fixed window of the timed phase. Each client
// keeps its own; the phase sums them, and throughput is the median
// window, which a single preempted slice cannot drag down.
class Windows {
 public:
  static constexpr double kWidth = 0.2;  // seconds

  Windows(Clock::time_point start, double seconds)
      : start_(start),
        counts_(static_cast<std::size_t>(std::max(1.0, seconds / kWidth)),
                0) {}

  void tick(Clock::time_point done) {
    const auto i = static_cast<std::size_t>(
        seconds_between(start_, done) / kWidth);
    if (i < counts_.size()) ++counts_[i];
  }

  void merge(const Windows& o) {
    for (std::size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
  }

  std::vector<double> rates() const {
    std::vector<double> r;
    r.reserve(counts_.size());
    for (std::uint64_t c : counts_) r.push_back(static_cast<double>(c) / kWidth);
    return r;
  }

 private:
  Clock::time_point start_;
  std::vector<std::uint64_t> counts_;
};

// Process-wide CPU time and involuntary context switches.
struct ProcSample {
  double cpu_s = 0;
  long invol_switches = 0;

  static ProcSample now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcSample s;
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    s.invol_switches = ru.ru_nivcsw;
    return s;
  }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Runs `threads` clients, each as client(t, start, deadline), released
// together; returns the wall time from release to the last join. An
// exception in a client is rethrown here after every thread has joined.
template <typename Client>
double run_phase(int threads, double seconds, Client&& client) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      oftm::runtime::pin_current_thread(t + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        oftm::runtime::cpu_pause();
      }
      try {
        client(t, start, deadline);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double wall = seconds_between(start, Clock::now());
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return wall;
}

// ---------------------------------------------------------------------------
// Spans of the traced run. Each client thread owns one Tracer; spans nest
// on a stack, so a span's self time is its duration minus the durations of
// the spans opened inside it. Every span feeds its kind's duration and
// self-time histograms; the first kRetained spans per thread are also kept
// for the trace file.

enum class SpanKind : std::uint8_t {
  kGet,           // KvServiceT::do_get
  kPut,           // KvServiceT::do_put
  kTransferOp,    // one client transfer, busy retries included
  kTransferFast,  // TwoPhaseCoordinator::transfer, same-shard path
  kTransfer2pc,   // TwoPhaseCoordinator::transfer, two-phase path
  kChurn,         // KvServiceT::do_churn
  kScanOp,        // one cross-shard index scan (fan-out over the legs)
  kScanLeg,       // ShardT::scan_index on one shard
  kTxn,           // one logical transaction, first begin to commit
  kAttemptCommit, // begin .. try_commit that committed
  kAttemptAbort,  // begin .. the abort that ended the attempt
  kGenerate,      // history::synth::make_history
  kExport,        // interchange::export_history
  kImport,        // interchange::import_history
  kCheck,         // check_mvsg
  kCount
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

struct SpanInfo {
  const char* name;
  const char* layer;  // the layer whose call the span wraps
};

inline const SpanInfo& span_info(SpanKind k) {
  static const SpanInfo kInfo[kSpanKinds] = {
      {"KvServiceT::do_get", "svc"},
      {"KvServiceT::do_put", "svc"},
      {"client.transfer", "bench"},
      {"TwoPhaseCoordinator::transfer[fast]", "svc"},
      {"TwoPhaseCoordinator::transfer[2pc]", "svc"},
      {"KvServiceT::do_churn", "svc"},
      {"client.scan_index", "svc"},
      {"ShardT::scan_index", "ds"},
      {"client.txn", "bench"},
      {"attempt[commit]", "core"},
      {"attempt[abort]", "core"},
      {"synth::make_history", "history"},
      {"export_history", "history"},
      {"import_history", "history"},
      {"check_mvsg", "history"},
  };
  return kInfo[static_cast<std::size_t>(k)];
}

struct Span {
  std::uint64_t op = 0;      // shared by every span of one client op
  std::uint64_t id = 0;      // unique within the thread
  std::uint64_t parent = 0;  // id of the enclosing span, 0 at the top
  std::uint64_t start_ns = 0;  // since the tracer's epoch
  std::uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kGet;
  int thread = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kRetained = 20000;

  Tracer(int thread, Clock::time_point epoch)
      : thread_(thread), epoch_(epoch), dur_(kSpanKinds), self_(kSpanKinds) {
    retained_.reserve(kRetained);
  }

  // Starts the spans of a new client op.
  void next_op() { ++op_; }

  void open(SpanKind kind) {
    stack_.push_back(Open{kind, ++next_id_, Clock::now(), 0});
  }

  // Closes the innermost span, optionally relabelling it (a transfer's
  // path is known only after the call).
  void close(std::optional<SpanKind> relabel = std::nullopt) {
    const Clock::time_point end = Clock::now();
    Open o = stack_.back();
    stack_.pop_back();
    if (relabel) o.kind = *relabel;
    const std::uint64_t dur = ns_between(o.start, end);
    const std::uint64_t self = dur > o.child_ns ? dur - o.child_ns : 0;
    const auto k = static_cast<std::size_t>(o.kind);
    dur_[k].record(dur);
    self_[k].record(self);
    self_total_ns_[k] += self;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (retained_.size() < kRetained) {
      retained_.push_back(Span{op_, o.id, parent, ns_between(epoch_, o.start),
                               ns_between(epoch_, end), o.kind, thread_});
    }
  }

  const Histogram& durations(SpanKind k) const {
    return dur_[static_cast<std::size_t>(k)];
  }
  const Histogram& self_times(SpanKind k) const {
    return self_[static_cast<std::size_t>(k)];
  }
  std::uint64_t self_total_ns(SpanKind k) const {
    return self_total_ns_[static_cast<std::size_t>(k)];
  }
  const std::vector<Span>& retained() const { return retained_; }

  void merge(const Tracer& o) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      dur_[k].merge(o.dur_[k]);
      self_[k].merge(o.self_[k]);
      self_total_ns_[k] += o.self_total_ns_[k];
    }
    retained_.insert(retained_.end(), o.retained_.begin(), o.retained_.end());
  }

 private:
  struct Open {
    SpanKind kind;
    std::uint64_t id;
    Clock::time_point start;
    std::uint64_t child_ns;
  };

  int thread_;
  Clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Histogram> dur_;
  std::vector<Histogram> self_;
  std::uint64_t self_total_ns_[kSpanKinds] = {};
  std::vector<Span> retained_;
};

// Opens a span on a possibly absent tracer; closes it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, SpanKind k) : t_(t) {
    if (t_) t_->open(k);
  }
  ~ScopedSpan() {
    if (t_) t_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
};

// Writes the retained spans as trace_event JSON and the per-kind summary
// (count, p50/p99 duration, self time) beside it. Returns false when a
// file cannot be written.
bool write_trace_files(const Options& opt, const Tracer& merged);

// ---------------------------------------------------------------------------
// The result of one run: named metrics with units and sample counts, the
// correctness verdict and the attempted/failed op counts.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed gate
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Reported in the result line of an untraced run. Every workload
  // reports the same names, each meaningful on every workload.
  std::vector<Metric> end_to_end;
  // Reported in the result line of a traced run; a layer the workload
  // does not exercise reads 0.
  std::vector<Metric> per_layer;
  // Printed for reading only: per-op-kind latencies and run details.
  std::vector<Metric> detail;

  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

// Adds "<prefix>_p50_us" and "<prefix>_p99_us" detail rows from a
// nanosecond histogram, omitting a percentile without ten samples beyond.
inline void add_latency_detail(Outcome& out, const std::string& prefix,
                               const Histogram& h) {
  if (auto p = h.percentile(0.50)) {
    out.detail.push_back({prefix + "_p50_us", *p / 1e3, "us", h.count()});
  }
  if (auto p = h.percentile(0.99)) {
    out.detail.push_back({prefix + "_p99_us", *p / 1e3, "us", h.count()});
  }
}

inline double pct_or_zero(const Histogram& h, double q, double scale = 1e-3) {
  const auto p = h.percentile(q);
  return p ? *p * scale : 0.0;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Set-up runs this many times per run and setup_s is the median, so one
// slow page-fault burst does not decide it; the last set-up's state is
// what the timed phase measures.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kWorkerThreads = 3;  // nproc - 1 on the 4-core target

}  // namespace perfbench
