// The repository benchmark: one workload per process.
//
//   perfbench --workload <kv_point|kv_scan|of_contended|history_check>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints one "# name = value unit (n=samples)" line per metric, then, as
// the last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced run (which first repeats the untraced phase, to price tracing).
// Exits 1 when a correctness gate fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "obs/taxonomy.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<Metric> PerLayer::metrics() const {
  namespace obs = oftm::obs;
  const double commits = static_cast<double>(tm.commits);
  auto per_kcommit = [&](obs::AbortReason r) {
    return ratio(1e3 * static_cast<double>(
                           tm.abort_reason[static_cast<std::size_t>(r)]),
                 commits);
  };
  return {
      {"svc.transfer_2pc_share", transfer_2pc_share, "ratio", 0},
      {"svc.transfer_fast_p50_us", transfer_fast_p50_us.value, "us", transfer_fast_p50_us.samples},
      {"svc.transfer_2pc_p50_us", transfer_2pc_p50_us.value, "us", transfer_2pc_p50_us.samples},
      {"svc.transfer_2pc_p99_us", transfer_2pc_p99_us.value, "us", transfer_2pc_p99_us.samples},
      {"svc.busy_votes_per_transfer", busy_votes_per_transfer, "ratio", 0},
      {"svc.rollbacks_per_transfer", rollbacks_per_transfer, "ratio", 0},
      {"svc.shard_load_skew", shard_load_skew, "ratio", 0},
      {"svc.scan_fanout_self_us", scan_fanout_self_us.value, "us", scan_fanout_self_us.samples},
      {"ds.shard_scan_p50_us", shard_scan_p50_us.value, "us", shard_scan_p50_us.samples},
      {"ds.churn_p50_us", churn_p50_us.value, "us", churn_p50_us.samples},
      {"ds.churn_p99_us", churn_p99_us.value, "us", churn_p99_us.samples},
      {"ds.seed_s", seed_s, "s", 0},
      {"core.aborts_per_commit",
       ratio(static_cast<double>(tm.aborts), commits), "ratio", tm.commits},
      {"core.abort.read_validation_per_kcommit",
       per_kcommit(obs::AbortReason::kReadValidation), "1/kcommit", 0},
      {"core.abort.lock_timeout_per_kcommit",
       per_kcommit(obs::AbortReason::kLockTimeout), "1/kcommit", 0},
      {"core.abort.snapshot_changed_per_kcommit",
       per_kcommit(obs::AbortReason::kSnapshotChanged), "1/kcommit", 0},
      {"core.abort.epoch_pressure_per_kcommit",
       per_kcommit(obs::AbortReason::kEpochPressure), "1/kcommit", 0},
      {"core.abort.cm_kill_per_kcommit",
       per_kcommit(obs::AbortReason::kCmKill), "1/kcommit", 0},
      {"core.reads_per_commit", ratio(static_cast<double>(tm.reads), commits),
       "ratio", 0},
      {"core.writes_per_commit",
       ratio(static_cast<double>(tm.writes), commits), "ratio", 0},
      {"core.attempt_p50_us", attempt_p50_us.value, "us", attempt_p50_us.samples},
      {"core.retries_p99", retries_p99.value, "count", retries_p99.samples},
      {"cm.backoffs_per_commit",
       ratio(static_cast<double>(tm.cm_backoffs), commits), "ratio", 0},
      {"cm.victim_kills_per_commit",
       ratio(static_cast<double>(tm.victim_kills), commits), "ratio", 0},
      {"history.gen_s", gen_s, "s", 0},
      {"history.export_s", export_s, "s", 0},
      {"history.import_s", import_s, "s", 0},
      {"history.import_mb_s", import_mb_s, "MB/s", 0},
      {"history.check_cpu_util", check_cpu_util, "ratio", 0},
      {"proc.cpu_s_per_kop", cpu_s_per_kop, "s", 0},
      {"proc.invol_ctx_switches", invol_ctx_switches, "count", 0},
      {"proc.window_iqr_frac", window_iqr_frac, "ratio", 0},
      {"bench.tracing_overhead_frac", tracing_overhead_frac, "ratio", 0},
  };
}

bool write_trace_files(const Options& opt, const Tracer& merged) {
  const std::string base = opt.trace_dir + "/perfbench-" + opt.workload;
  std::FILE* f = std::fopen((base + ".trace.json").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : merged.retained()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%llu,\"parent\":%llu}}",
                 first ? "" : ",", span_info(s.kind).name,
                 span_info(s.kind).layer, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool trace_ok = std::fclose(f) == 0;

  f = std::fopen((base + ".layers.json").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"spans\":[", opt.workload.c_str());
  first = true;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    const Histogram& d = merged.durations(kind);
    if (d.count() == 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"layer\":\"%s\",\"count\":%llu,"
                 "\"p50_us\":%.6g,\"p99_us\":%.6g,\"self_p50_us\":%.6g,"
                 "\"self_total_s\":%.6g}",
                 first ? "" : ",", span_info(kind).name, span_info(kind).layer,
                 static_cast<unsigned long long>(d.count()),
                 pct_or_zero(d, 0.50), pct_or_zero(d, 0.99),
                 pct_or_zero(merged.self_times(kind), 0.50),
                 static_cast<double>(merged.self_total_ns(kind)) / 1e9);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 && trace_ok;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "workloads: kv_point kv_scan of_contended history_check\n",
               why);
  return 2;
}

void print_metric(const Metric& m) {
  std::printf("# %s = %.9g %s (n=%llu)\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (flag == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Outcome out;
  try {
    if (opt.workload == "kv_point") {
      out = run_kv_point(opt);
    } else if (opt.workload == "kv_scan") {
      out = run_kv_scan(opt);
    } else if (opt.workload == "of_contended") {
      out = run_of_contended(opt);
    } else if (opt.workload == "history_check") {
      out = run_history_check(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::vector<Metric>& reported =
      opt.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : reported) {
    out.gate(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  // An end-to-end metric that reads 0 means its phase measured nothing.
  for (const Metric& m : out.end_to_end) {
    out.gate(m.value > 0, "metric " + m.name + " measured nothing");
  }
  for (const Metric& m : out.detail) print_metric(m);
  for (const Metric& m : out.end_to_end) print_metric(m);
  if (opt.trace) {
    for (const Metric& m : out.per_layer) print_metric(m);
  }
  for (const std::string& f : out.failures) {
    std::printf("# GATE FAILED: %s\n", f.c_str());
  }
  print_result(out, reported);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
