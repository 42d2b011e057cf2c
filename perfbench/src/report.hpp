// The benchmark's two metric sets. Every workload reports every name of
// both sets, so runs of different workloads line up column for column.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "runtime/stats.hpp"

namespace perfbench {

// End-to-end metrics, as a user of the workload sees them. `op` is the
// workload's headline operation: a transfer on kv_point (the cross-shard
// 2PC tax), a cross-shard index scan on kv_scan, a committed transaction
// on of_contended and a full opacity check on history_check.
struct EndToEnd {
  double throughput_ops_s = 0;  // median of the fixed windows
  double mean_ops_s = 0;        // whole-phase mean, printed beside it
  std::uint64_t windows = 0;
  double op_p50_us = 0;
  std::uint64_t op_samples = 0;
  double setup_s = 0;

  std::vector<Metric> metrics() const {
    return {
        {"throughput_ops_s", throughput_ops_s, "1/s", windows},
        {"op_p50_us", op_p50_us, "us", op_samples},
        {"setup_s", setup_s, "s", static_cast<std::uint64_t>(kSetupRepeats)},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
  }
};

// A percentile with the sample count it rests on; 0 when absent.
struct Pct {
  double value = 0;
  std::uint64_t samples = 0;
};

inline Pct pct(const Histogram& h, double q, double scale = 1e-3) {
  return {pct_or_zero(h, q, scale), h.count()};
}

// Per-layer metrics. Counters are deltas across the untraced timed phase;
// timings come from the spans of the traced phase. A layer the workload
// bypasses keeps its zero, which is the prediction for that workload.
struct PerLayer {
  // svc: coordinator and router
  double transfer_2pc_share = 0;
  Pct transfer_fast_p50_us;
  Pct transfer_2pc_p50_us;
  Pct transfer_2pc_p99_us;
  double busy_votes_per_transfer = 0;
  double rollbacks_per_transfer = 0;
  double shard_load_skew = 0;
  Pct scan_fanout_self_us;
  // ds
  Pct shard_scan_p50_us;
  Pct churn_p50_us;
  Pct churn_p99_us;
  double seed_s = 0;
  // core and cm, from the TM's own counters
  oftm::runtime::TxStats tm;
  Pct attempt_p50_us;
  Pct retries_p99;
  // history
  double gen_s = 0;
  double export_s = 0;
  double import_s = 0;
  double import_mb_s = 0;
  double check_cpu_util = 0;
  // process and benchmark
  double cpu_s_per_kop = 0;
  double invol_ctx_switches = 0;
  double window_iqr_frac = 0;
  double tracing_overhead_frac = 0;

  std::vector<Metric> metrics() const;
};

// The counters of one timed phase every closed-loop workload reports.
struct PhaseStats {
  double wall_s = 0;
  std::uint64_t ops = 0;
  std::vector<double> window_rates;
  ProcSample before;
  ProcSample after;

  double median_rate() const { return median(window_rates); }
  double mean_rate() const { return ratio(static_cast<double>(ops), wall_s); }
  void fill(PerLayer& l) const {
    l.cpu_s_per_kop =
        ratio(after.cpu_s - before.cpu_s, static_cast<double>(ops) / 1e3);
    l.invol_ctx_switches =
        static_cast<double>(after.invol_switches - before.invol_switches);
    l.window_iqr_frac = iqr_fraction(window_rates);
  }
  // Process CPU time and involuntary switches, recorded for every run.
  void add_detail(Outcome& out) const {
    out.detail.push_back({"proc_cpu_s", after.cpu_s - before.cpu_s, "s", 1});
    out.detail.push_back(
        {"invol_ctx_switches",
         static_cast<double>(after.invol_switches - before.invol_switches),
         "count", 1});
  }
  void fill(EndToEnd& e) const {
    e.throughput_ops_s = median_rate();
    e.mean_ops_s = mean_rate();
    e.windows = window_rates.size();
  }
};

inline double tracing_overhead(double untraced_rate, double traced_rate) {
  return untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
}

}  // namespace perfbench
