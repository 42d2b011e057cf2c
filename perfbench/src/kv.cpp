// kv_point and kv_scan: closed-loop clients of the sharded KV service
// (src/svc/), calling its public operations directly.
//
// kv_point runs on TL2 with the boxed layout: gets, puts and transfers,
// so the router, the 2PC coordinator, ds::THashMapT and TL2's commit path
// carry the load and the sorted key index is never touched. kv_scan runs
// on TL2 over the region tier: gets, cross-shard index scans, index churn
// and puts, so long read-only transactions validate against concurrent
// churn writers while the coordinator idles.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"
#include "runtime/backoff.hpp"
#include "runtime/xorshift.hpp"
#include "svc/service.hpp"
#include "workload/zipf.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = oftm::core;
namespace svc = oftm::svc;
using oftm::runtime::mix64;
using oftm::runtime::Xoshiro256;

struct KvShape {
  const char* backend;
  // Op mix; gets take the remainder.
  double put;
  double transfer;
  double scan;
  double churn;
  SpanKind headline;  // the op behind op_p50_us
  std::uint64_t warmup_ops_per_client;
};

constexpr KvShape kPoint{"tl2", 0.2, 0.2, 0.0, 0.0, SpanKind::kTransferOp,
                         50'000};
constexpr KvShape kScan{"tl2-region", 0.1, 0.0, 0.3, 0.1, SpanKind::kScanOp,
                        10'000};

constexpr std::uint64_t kKeys = 4096;
constexpr int kShards = 4;
constexpr std::uint64_t kScanSpan = 64;
constexpr core::Value kMaxTransfer = 16;
constexpr int kMaxTransferAttempts = 1'000'000;

svc::ServiceConfig make_config(const KvShape& shape, std::uint64_t seed) {
  svc::ServiceConfig cfg;
  cfg.backend = shape.backend;
  cfg.num_shards = kShards;
  cfg.clients = kWorkerThreads;
  cfg.keys = kKeys;
  cfg.put_fraction = shape.put;
  cfg.transfer_fraction = shape.transfer;
  cfg.scan_fraction = shape.scan;
  cfg.churn_fraction = shape.churn;
  cfg.scan_span = kScanSpan;
  cfg.max_transfer = kMaxTransfer;
  // Far above any balance a run can drain, so insufficient-funds votes
  // stay rare and the op mix does not drift as balances random-walk.
  cfg.initial_balance = 1'000'000'000;
  cfg.zipf_s = 0.99;
  cfg.seed = seed;
  return cfg;
}

// What one client accumulates in one phase.
struct alignas(64) ClientPhase {
  Histogram get, put, transfer, scan, churn;
  svc::CoordinatorStats coord;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t transfers_completed = 0;  // yes or insufficient
  std::uint64_t transfers_gave_up = 0;
  std::uint64_t bad_results = 0;    // a get or scan answer out of range
  std::uint64_t path_mismatch = 0;  // coordinator path != router's shards
  std::optional<Windows> windows;
  std::optional<Tracer> tracer;

  void merge(const ClientPhase& o) {
    get.merge(o.get);
    put.merge(o.put);
    transfer.merge(o.transfer);
    scan.merge(o.scan);
    churn.merge(o.churn);
    coord.merge(o.coord);
    attempted += o.attempted;
    completed += o.completed;
    transfers_completed += o.transfers_completed;
    transfers_gave_up += o.transfers_gave_up;
    bad_results += o.bad_results;
    path_mismatch += o.path_mismatch;
    windows->merge(*o.windows);
    if (tracer && o.tracer) tracer->merge(*o.tracer);
  }
};

struct KvPhase {
  ClientPhase total;
  PhaseStats stats;
  oftm::runtime::TxStats tm;
  std::vector<std::uint64_t> shard_commits;
};

// Per-client random streams, kept across phases so warm-up and the timed
// phase continue one deterministic sequence per seed. Cache-line aligned:
// every op advances them, and neighbouring clients must not share a line.
struct alignas(64) Streams {
  Streams(std::uint64_t seed, int t)
      : rng(mix64(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t) +
                  1)),
        zipf(kKeys, 0.99,
             mix64(seed + 0x5bd1e995u * (static_cast<std::uint64_t>(t) + 1))) {}
  Xoshiro256 rng;
  oftm::workload::ZipfSampler zipf;
};

template <core::MemoryModel M>
class KvBench {
 public:
  KvBench(const svc::ServiceConfig& cfg, const KvShape& shape)
      : cfg_(cfg), shape_(shape), tms_(svc::make_service_tms(cfg)) {
    std::vector<core::TransactionalMemory*> raw;
    for (auto& tm : tms_) raw.push_back(tm.get());
    service_ = std::make_unique<svc::KvServiceT<M>>(cfg, raw);
    for (int t = 0; t < cfg.clients; ++t) streams_.emplace_back(cfg.seed, t);
  }

  ~KvBench() { service_.reset(); }  // the service borrows tms_
  KvBench(const KvBench&) = delete;
  KvBench& operator=(const KvBench&) = delete;

  bool layout_matches() const {
    return tms_.front()->has_word_access() ==
           std::is_same_v<M, core::RegionMemory>;
  }

  // Shard init + seed; returns its seconds. When the workload churns the
  // index, set-up then churns 2 × keys uniformly drawn keys: uniform churn
  // keeps each key in the index with odds 1/2, and re-inserted nodes land
  // wherever the allocator puts them, so the run starts from the index
  // length and node layout it keeps instead of drifting away from the
  // freshly seeded one.
  double seed() {
    const auto t0 = Clock::now();
    service_->init_and_seed();
    const double seconds = seconds_between(t0, Clock::now());
    if (shape_.churn > 0) {
      Xoshiro256 rng(mix64(cfg_.seed ^ 0xc4e5d6f7a8b9ull));
      for (std::uint64_t i = 0; i < 2 * kKeys; ++i) {
        service_->do_churn(rng.next_range(kKeys));
      }
    }
    return seconds;
  }

  // Runs a fixed count of ops per client, recording nothing.
  void warm_up(std::uint64_t ops_per_client) {
    run(0, ops_per_client, /*traced=*/false, Clock::now());
  }

  KvPhase timed(double seconds, bool traced, Clock::time_point epoch) {
    return run(seconds, 0, traced, epoch);
  }

  bool audit(std::string* why) { return service_->audit(why); }

 private:
  KvPhase run(double seconds, std::uint64_t count, bool traced,
              Clock::time_point epoch) {
    for (auto& tm : tms_) tm->reset_stats();
    const int n = cfg_.clients;
    std::vector<std::unique_ptr<ClientPhase>> phases;
    for (int t = 0; t < n; ++t) phases.push_back(std::make_unique<ClientPhase>());
    KvPhase out;
    out.stats.before = ProcSample::now();
    const double window_span = count > 0 ? 0.0 : seconds;
    out.stats.wall_s = run_phase(
        n, count > 0 ? 1e6 : seconds,
        [&](int t, Clock::time_point start, Clock::time_point deadline) {
          ClientPhase& p = *phases[static_cast<std::size_t>(t)];
          p.windows.emplace(start, window_span);
          if (traced) p.tracer.emplace(t, epoch);
          Streams& s = streams_[static_cast<std::size_t>(t)];
          for (std::uint64_t i = 0;; ++i) {
            const auto op_start = Clock::now();
            if (count > 0 ? i >= count : op_start >= deadline) break;
            one_op(s, p, op_start);
          }
        });
    out.stats.after = ProcSample::now();
    out.total = std::move(*phases[0]);
    for (int t = 1; t < n; ++t) out.total.merge(*phases[static_cast<std::size_t>(t)]);
    out.stats.ops = out.total.completed;
    out.stats.window_rates = out.total.windows->rates();
    for (auto& tm : tms_) {
      const oftm::runtime::TxStats st = tm->stats();
      out.shard_commits.push_back(st.commits);
      out.tm.merge(st);
    }
    return out;
  }

  void one_op(Streams& s, ClientPhase& p, Clock::time_point op_start) {
    Tracer* tr = p.tracer ? &*p.tracer : nullptr;
    if (tr) tr->next_op();
    ++p.attempted;
    const double r = s.rng.next_double();
    Histogram* hist = nullptr;
    bool done = true;
    if (r < shape_.put) {
      const std::uint64_t key = s.zipf.next();
      const core::Value delta = s.rng.next_range(8) + 1;
      ScopedSpan span(tr, SpanKind::kPut);
      service_->do_put(key, delta);
      hist = &p.put;
    } else if (r < shape_.put + shape_.transfer) {
      done = transfer(s, p, tr);
      hist = &p.transfer;
    } else if (r < shape_.put + shape_.transfer + shape_.scan) {
      const std::uint64_t lo = s.rng.next_range(kKeys - kScanSpan + 1);
      if (scan(lo, tr) > kScanSpan) ++p.bad_results;
      hist = &p.scan;
    } else if (r < shape_.put + shape_.transfer + shape_.scan + shape_.churn) {
      const std::uint64_t key = s.rng.next_range(kKeys);
      ScopedSpan span(tr, SpanKind::kChurn);
      service_->do_churn(key);
      hist = &p.churn;
    } else {
      const std::uint64_t key = s.zipf.next();
      core::Value v = 0;
      {
        ScopedSpan span(tr, SpanKind::kGet);
        v = service_->do_get(key);
      }
      if (v == ~core::Value{0}) ++p.bad_results;  // every key is seeded
      hist = &p.get;
    }
    const auto op_end = Clock::now();
    if (!done) return;
    ++p.completed;
    hist->record(ns_between(op_start, op_end));
    p.windows->tick(op_end);
  }

  // One client transfer: busy votes are retried with backoff; an
  // insufficient-funds vote completes it. Each coordinator call is checked
  // against the router: same-shard keys must take the fast path.
  bool transfer(Streams& s, ClientPhase& p, Tracer* tr) {
    const std::uint64_t src = s.zipf.next();
    std::uint64_t dst = s.zipf.next();
    if (src == dst) dst = (dst + 1) % kKeys;
    const core::Value amount = s.rng.next_range(kMaxTransfer) + 1;
    const bool cross = service_->router().shard_of(src) !=
                       service_->router().shard_of(dst);
    ScopedSpan op(tr, SpanKind::kTransferOp);
    oftm::runtime::ExponentialBackoff backoff;
    for (int attempt = 1;; ++attempt) {
      const std::uint64_t fast_before = p.coord.committed_fast_path;
      const std::uint64_t two_phase_before = p.coord.committed_two_phase;
      if (tr) tr->open(SpanKind::kTransferFast);
      const svc::Vote v =
          service_->coordinator().transfer(src, dst, amount, p.coord);
      if (tr) tr->close(cross ? SpanKind::kTransfer2pc : SpanKind::kTransferFast);
      if (v == svc::Vote::kYes) {
        const bool took_2pc = p.coord.committed_two_phase != two_phase_before;
        const bool took_fast = p.coord.committed_fast_path != fast_before;
        if (took_2pc != cross || took_fast == cross) ++p.path_mismatch;
      }
      if (v != svc::Vote::kBusy) {
        ++p.transfers_completed;
        return true;
      }
      if (attempt >= kMaxTransferAttempts) {
        ++p.transfers_gave_up;
        return false;
      }
      backoff.pause();
    }
  }

  // Cross-shard ordered index count over [lo, lo + span). Traced runs
  // issue the per-shard legs themselves so each leg gets its own span;
  // the sum is the one do_scan_index computes.
  std::uint64_t scan(std::uint64_t lo, Tracer* tr) {
    if (!tr) return service_->do_scan_index(lo, lo + kScanSpan);
    ScopedSpan op(tr, SpanKind::kScanOp);
    std::uint64_t n = 0;
    for (int i = 0; i < cfg_.num_shards; ++i) {
      ScopedSpan leg(tr, SpanKind::kScanLeg);
      n += service_->shard(i).scan_index(lo, lo + kScanSpan);
    }
    return n;
  }

  svc::ServiceConfig cfg_;
  KvShape shape_;
  std::vector<std::unique_ptr<core::TransactionalMemory>> tms_;
  std::unique_ptr<svc::KvServiceT<M>> service_;
  std::vector<Streams> streams_;
};

void gate_phase(Outcome& out, const KvPhase& ph, const char* phase) {
  const std::string tag = std::string(" (") + phase + ")";
  out.gate(ph.total.bad_results == 0,
           "a get or scan returned an impossible value" + tag);
  out.gate(ph.total.path_mismatch == 0,
           "coordinator path disagrees with the router" + tag);
  out.gate(ph.tm.abort_reasons_consistent(),
           "abort reasons do not sum to the abort count" + tag);
}

template <core::MemoryModel M>
Outcome run_kv(const Options& opt, const KvShape& shape) {
  Outcome out;
  const svc::ServiceConfig cfg = make_config(shape, opt.seed);
  std::unique_ptr<KvBench<M>> bench;
  std::vector<double> setup_s;
  std::vector<double> seed_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bench.reset();
    const auto t0 = Clock::now();
    bench = std::make_unique<KvBench<M>>(cfg, shape);
    seed_s.push_back(bench->seed());
    bench->warm_up(shape.warmup_ops_per_client);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.gate(bench->layout_matches(), "backend layout is not the expected one");
  std::string why;
  out.gate(bench->audit(&why), "audit after warm-up: " + why);

  const auto epoch = Clock::now();
  const KvPhase plain = bench->timed(opt.seconds, /*traced=*/false, epoch);
  gate_phase(out, plain, "untraced");
  out.gate(bench->audit(&why), "audit after the timed phase: " + why);
  out.attempted = plain.total.attempted;
  out.failed = plain.total.transfers_gave_up;

  const Histogram& headline =
      shape.headline == SpanKind::kTransferOp ? plain.total.transfer
                                              : plain.total.scan;
  EndToEnd e2e;
  plain.stats.fill(e2e);
  e2e.op_p50_us = pct_or_zero(headline, 0.50);
  e2e.op_samples = headline.count();
  e2e.setup_s = median(setup_s);
  out.end_to_end = e2e.metrics();

  const ClientPhase& c = plain.total;
  out.detail.push_back({"throughput_mean_ops_s", e2e.mean_ops_s, "1/s",
                        c.completed});
  add_latency_detail(out, "get", c.get);
  add_latency_detail(out, "put", c.put);
  add_latency_detail(out, "transfer", c.transfer);
  add_latency_detail(out, "scan", c.scan);
  add_latency_detail(out, "churn", c.churn);
  plain.stats.add_detail(out);
  out.detail.push_back({"failed_op_ratio",
                        ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted)),
                        "ratio", out.attempted});

  if (!opt.trace) return out;

  PerLayer l;
  const double transfers = static_cast<double>(c.transfers_completed);
  l.transfer_2pc_share = ratio(
      static_cast<double>(c.coord.committed_two_phase),
      static_cast<double>(c.coord.committed_two_phase +
                          c.coord.committed_fast_path));
  l.busy_votes_per_transfer =
      ratio(static_cast<double>(c.coord.busy_first + c.coord.busy_second),
            transfers);
  l.rollbacks_per_transfer =
      ratio(static_cast<double>(c.coord.rollbacks), transfers);
  const auto max_commits =
      *std::max_element(plain.shard_commits.begin(), plain.shard_commits.end());
  double sum_commits = 0;
  for (std::uint64_t n : plain.shard_commits) sum_commits += static_cast<double>(n);
  l.shard_load_skew = ratio(static_cast<double>(max_commits),
                            sum_commits / static_cast<double>(kShards));
  l.seed_s = median(seed_s);
  l.tm = plain.tm;
  plain.stats.fill(l);

  const KvPhase traced = bench->timed(opt.seconds, /*traced=*/true, epoch);
  gate_phase(out, traced, "traced");
  out.gate(bench->audit(&why), "audit after the traced phase: " + why);
  const Tracer& tr = *traced.total.tracer;
  l.transfer_fast_p50_us = pct(tr.durations(SpanKind::kTransferFast), 0.50);
  l.transfer_2pc_p50_us = pct(tr.durations(SpanKind::kTransfer2pc), 0.50);
  l.transfer_2pc_p99_us = pct(tr.durations(SpanKind::kTransfer2pc), 0.99);
  l.scan_fanout_self_us = pct(tr.self_times(SpanKind::kScanOp), 0.50);
  l.shard_scan_p50_us = pct(tr.durations(SpanKind::kScanLeg), 0.50);
  l.churn_p50_us = pct(tr.durations(SpanKind::kChurn), 0.50);
  l.churn_p99_us = pct(tr.durations(SpanKind::kChurn), 0.99);
  l.tracing_overhead_frac = tracing_overhead(plain.stats.median_rate(),
                                             traced.stats.median_rate());
  out.per_layer = l.metrics();
  out.gate(write_trace_files(opt, tr), "cannot write the trace files");
  return out;
}

}  // namespace

Outcome run_kv_point(const Options& opt) {
  return run_kv<core::BoxedMemory>(opt, kPoint);
}

Outcome run_kv_scan(const Options& opt) {
  return run_kv<core::RegionMemory>(opt, kScan);
}

}  // namespace perfbench
