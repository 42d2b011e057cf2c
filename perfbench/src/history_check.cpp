// history_check: the opacity checker and the history interchange, with no
// TM in the loop.
//
// Set-up generates a deterministic synthetic history (250k transactions of
// 4 ops over 4096 t-vars, 10% of ops on a hot key), exports it as elle
// JSON lines and imports it back. The timed op is one full check_mvsg of
// the imported history for opacity, on two threads. A deterministic input
// keeps the checked shape identical from run to run.
#include <string>
#include <vector>

#include "history/checker.hpp"
#include "history/interchange.hpp"
#include "history/synth.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace history = oftm::history;
namespace interchange = oftm::history::interchange;

constexpr std::size_t kTransactions = 250'000;
constexpr int kCheckThreads = 2;

history::MvsgOptions opacity() {
  history::MvsgOptions o;
  o.respect_real_time = true;
  o.include_aborted_readers = true;
  o.threads = kCheckThreads;
  return o;
}

struct Prepared {
  std::vector<history::TxRecord> txns;  // as imported
  bool has_real_time = false;
  bool import_ok = false;
  std::string import_error;
  std::size_t exported_bytes = 0;
  double gen_s = 0;
  double export_s = 0;
  double import_s = 0;
};

Prepared prepare(std::uint64_t seed, Tracer* tr) {
  Prepared p;
  history::synth::SynthOptions s;
  s.transactions = kTransactions;
  s.num_tvars = 4096;
  s.hot_fraction = 0.1;
  s.ops_per_tx = 4;
  s.write_fraction = 0.5;
  s.seed = seed;

  auto t0 = Clock::now();
  std::vector<history::TxRecord> generated;
  {
    ScopedSpan span(tr, SpanKind::kGenerate);
    generated = history::synth::make_history(s);
  }
  auto t1 = Clock::now();
  p.gen_s = seconds_between(t0, t1);

  interchange::ExportOptions eo;
  eo.format = interchange::Format::kElle;
  std::string text;
  {
    ScopedSpan span(tr, SpanKind::kExport);
    text = interchange::export_history(generated, eo);
  }
  generated = {};
  t0 = Clock::now();
  p.export_s = seconds_between(t1, t0);
  p.exported_bytes = text.size();

  interchange::ImportResult imported;
  {
    ScopedSpan span(tr, SpanKind::kImport);
    imported = interchange::import_history(text, interchange::Format::kElle);
  }
  p.import_s = seconds_between(t0, Clock::now());
  p.import_ok = imported.ok;
  p.import_error = imported.error;
  p.has_real_time = imported.has_real_time;
  p.txns = std::move(imported.txns);
  return p;
}

// A copy with a lost update seeded on t-var 0 must be rejected with the
// version-chain fork that names both forked writers.
void gate_lost_update(Outcome& out, const std::vector<history::TxRecord>& txns) {
  std::vector<history::TxRecord> forked = txns;
  oftm::core::TxId w1 = 0;
  oftm::core::TxId w2 = 0;
  if (!history::synth::seed_lost_update(forked, 0, &w1, &w2)) {
    out.gate(false, "no lost update could be seeded");
    return;
  }
  const history::CheckResult r = history::check_mvsg(forked, opacity());
  const bool names_both =
      r.witness.size() == 1 && r.witness[0].tvar == 0 &&
      ((r.witness[0].from == w1 && r.witness[0].to == w2) ||
       (r.witness[0].from == w2 && r.witness[0].to == w1));
  out.gate(!r.ok && r.error.find("version chain fork") != std::string::npos &&
               names_both,
           "seeded lost update was not rejected with its fork witness: " +
               r.error);
}

struct CheckPhase {
  std::vector<double> seconds;  // one per check
  std::uint64_t wrong = 0;      // clean checks that did not return ok
  double wall_s = 0;
  ProcSample before;
  ProcSample after;
};

CheckPhase run_checks(const std::vector<history::TxRecord>& txns,
                      double seconds, Tracer* tr) {
  CheckPhase ph;
  ph.before = ProcSample::now();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (;;) {
    const auto t0 = Clock::now();
    if (t0 >= deadline) break;
    if (tr) tr->next_op();
    history::CheckResult r;
    {
      ScopedSpan span(tr, SpanKind::kCheck);
      r = history::check_mvsg(txns, opacity());
    }
    ph.seconds.push_back(seconds_between(t0, Clock::now()));
    if (!r.ok || !r.witness.empty()) ++ph.wrong;
  }
  ph.wall_s = seconds_between(start, Clock::now());
  ph.after = ProcSample::now();
  return ph;
}

std::vector<double> rates(const CheckPhase& ph) {
  std::vector<double> r;
  for (double s : ph.seconds) r.push_back(static_cast<double>(kTransactions) / s);
  return r;
}

}  // namespace

Outcome run_history_check(const Options& opt) {
  Outcome out;
  Prepared p;
  std::vector<double> setup_s, gen_s, export_s, import_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p = {};
    const auto t0 = Clock::now();
    p = prepare(opt.seed, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(p.gen_s);
    export_s.push_back(p.export_s);
    import_s.push_back(p.import_s);
  }
  out.gate(p.import_ok, "import failed: " + p.import_error);
  out.gate(p.txns.size() == kTransactions,
           "import returned " + std::to_string(p.txns.size()) + " records");
  out.gate(p.has_real_time, "import lost the real-time order");
  // Doubles as the checker's warm-up before the timed phase.
  gate_lost_update(out, p.txns);

  const CheckPhase plain = run_checks(p.txns, opt.seconds, nullptr);
  out.gate(plain.wrong == 0, "a clean check did not return ok");
  out.attempted = plain.seconds.size();
  out.failed = plain.wrong;

  const std::vector<double> plain_rates = rates(plain);
  EndToEnd e2e;
  e2e.throughput_ops_s = median(plain_rates);
  e2e.mean_ops_s = ratio(static_cast<double>(kTransactions * plain.seconds.size()),
                         plain.wall_s);
  e2e.windows = plain_rates.size();
  e2e.op_p50_us = median(plain.seconds) * 1e6;
  e2e.op_samples = plain.seconds.size();
  e2e.setup_s = median(setup_s);
  out.end_to_end = e2e.metrics();
  out.detail.push_back({"throughput_mean_ops_s", e2e.mean_ops_s, "1/s",
                        plain.seconds.size()});
  out.detail.push_back({"check_p50_s", median(plain.seconds), "s",
                        plain.seconds.size()});
  out.detail.push_back({"exported_mb", static_cast<double>(p.exported_bytes) / 1e6,
                        "MB", 1});
  out.detail.push_back({"proc_cpu_s", plain.after.cpu_s - plain.before.cpu_s,
                        "s", 1});
  out.detail.push_back({"invol_ctx_switches",
                        static_cast<double>(plain.after.invol_switches -
                                            plain.before.invol_switches),
                        "count", 1});
  out.detail.push_back({"failed_op_ratio",
                        ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted)),
                        "ratio", out.attempted});

  if (!opt.trace) return out;

  PerLayer l;
  l.gen_s = median(gen_s);
  l.export_s = median(export_s);
  l.import_s = median(import_s);
  l.import_mb_s = ratio(static_cast<double>(p.exported_bytes) / 1e6, l.import_s);
  l.check_cpu_util =
      ratio(plain.after.cpu_s - plain.before.cpu_s, plain.wall_s);
  l.cpu_s_per_kop = ratio(plain.after.cpu_s - plain.before.cpu_s,
                          static_cast<double>(kTransactions *
                                              plain.seconds.size()) / 1e3);
  l.invol_ctx_switches = static_cast<double>(plain.after.invol_switches -
                                             plain.before.invol_switches);
  l.window_iqr_frac = iqr_fraction(plain_rates);

  std::vector<history::TxRecord>().swap(p.txns);  // the traced set-up makes its own
  Tracer tr(0, Clock::now());
  const Prepared traced_prep = prepare(opt.seed, &tr);
  out.gate(traced_prep.import_ok &&
               traced_prep.txns.size() == kTransactions,
           "traced import failed");
  const CheckPhase traced = run_checks(traced_prep.txns, opt.seconds, &tr);
  out.gate(traced.wrong == 0, "a clean traced check did not return ok");
  l.tracing_overhead_frac =
      tracing_overhead(e2e.throughput_ops_s, median(rates(traced)));
  out.per_layer = l.metrics();
  out.gate(write_trace_files(opt, tr), "cannot write the trace files");
  return out;
}

}  // namespace perfbench
