// The five workloads of the end-to-end benchmark, each driven through the
// same public calls the CLIs make. Inputs are generated in-process from the
// seed; one client thread (replay fans out to opt.threads <= 2 workers).
//
// An untraced run sets up (timed as setup_s), then measures for
// opt.seconds. A traced run splits opt.seconds four ways: a plain pass (the
// baseline and the reference outputs), a pass with an obs::Observability
// sink attached (program counters, obs overhead and passivity), a pass with
// the driver's spans on (layer self times, tracing overhead), and the layer
// probes on the workload's own planning problems (core/store/sched).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "alloc_count.h"
#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "e2e.h"
#include "engine/job_run.h"
#include "obs/obs.h"
#include "sched/strategy.h"
#include "service/scheduler.h"
#include "sim/cluster.h"
#include "store/plan_cache.h"
#include "store/plan_service.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace e2e {
namespace {

using namespace ds;

// Volume scales per suite copy in the plan pool, engine seeds per run
// workload, and the jobs in one sched / replay round. Each round of sched and
// replay repeats the same inputs, so later rounds double as determinism
// checks. Sizes keep a round to a few seconds on one 2020s server core.
constexpr int kPoolScales = 16;
constexpr std::size_t kWarmBatch = 4096;
constexpr int kRunEngineSeeds = 3;
constexpr std::size_t kSchedJobs = 16;
constexpr std::size_t kSchedStreams = 3;
constexpr std::uint64_t kSchedClusterSeed = 1;
constexpr double kSchedRate = 1.0 / 250.0;
constexpr std::size_t kReplayJobs = 2000;

class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  bool expired() const { return Clock::now() >= end_; }

 private:
  Clock::time_point end_;
};

bool same_plan(const core::DelaySchedule& a, const core::DelaySchedule& b) {
  return a.delay == b.delay && a.predicted_makespan == b.predicted_makespan &&
         a.predicted_jct == b.predicted_jct;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Percent by which `rate` is slower than `base_rate`.
double overhead_pct(double base_rate, double rate) {
  return rate > 0 ? 100.0 * (base_rate / rate - 1.0) : 0.0;
}

// The program's own counters, read through MetricsRegistry::snapshot().
double counter_of(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return static_cast<double>(v);
  return 0;
}

obs::HistogramStat histogram_of(const obs::MetricsSnapshot& snap,
                                const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h;
  return {};
}

// Plan-cache hit ratio between two snapshots.
double hit_ratio(const obs::MetricsSnapshot& after,
                 const obs::MetricsSnapshot& before = {}) {
  const double hits =
      counter_of(after, "plancache.hits") - counter_of(before, "plancache.hits");
  const double misses = counter_of(after, "plancache.misses") -
                        counter_of(before, "plancache.misses");
  return ratio(hits, hits + misses);
}

// Every per-layer metric, zero where the workload does not cross the layer.
// The time-valued ones (core, store, sched) come from the probes, which run
// on every workload's own planning problems, so none is ever zero.
struct Layers {
  double jct_mean_s = 0;
  double core_pred_makespan_mean_s = 0;
  double core_compute_ms_p50 = 0;
  double core_evals_per_plan = 0;
  double core_memo_hit_ratio = 0;
  double core_score_us = 0;
  double core_ff_skip_ratio = 0;
  double core_allocs_per_plan = 0;
  double store_miss_overhead_ms_p50 = 0;
  double store_signature_us = 0;
  double store_find_ns = 0;
  double store_hit_ratio = 0;
  double sched_plan_ms_p50 = 0;
  double sched_jct_gain_pct = 0;
  double sim_events_per_job = 0;
  double sim_events_per_s = 0;
  double net_flows_per_job = 0;
  double engine_tasks_per_job = 0;
  double engine_allocs_per_job = 0;
  double exec_wait_s_p50 = 0;
  double service_plan_share_pct = 0;
  double service_wait_s_p50 = 0;
  double service_peak_occupancy = 0;
  double service_slowdown_p90 = 0;
  double trace_evals_per_job = 0;
  double util_pool_speedup = 0;
  double obs_overhead_pct = 0;
  double bench_trace_overhead_pct = 0;

  void emit(Report& r) const {
    r.set("jct_mean_s", jct_mean_s, "sim_s");
    r.set("core.pred_makespan_mean_s", core_pred_makespan_mean_s, "sim_s");
    r.set("core.compute_ms_p50", core_compute_ms_p50, "ms");
    r.set("core.evals_per_plan", core_evals_per_plan, "count");
    r.set("core.memo_hit_ratio", core_memo_hit_ratio, "ratio");
    r.set("core.score_us", core_score_us, "us");
    r.set("core.ff_skip_ratio", core_ff_skip_ratio, "ratio");
    r.set("core.allocs_per_plan", core_allocs_per_plan, "count");
    r.set("store.miss_overhead_ms_p50", store_miss_overhead_ms_p50, "ms");
    r.set("store.signature_us", store_signature_us, "us");
    r.set("store.find_ns", store_find_ns, "ns");
    r.set("store.hit_ratio", store_hit_ratio, "ratio");
    r.set("sched.plan_ms_p50", sched_plan_ms_p50, "ms");
    r.set("sched.jct_gain_pct", sched_jct_gain_pct, "%");
    r.set("sim.events_per_job", sim_events_per_job, "count");
    r.set("sim.events_per_s", sim_events_per_s, "1/s");
    r.set("net.flows_per_job", net_flows_per_job, "count");
    r.set("engine.tasks_per_job", engine_tasks_per_job, "count");
    r.set("engine.allocs_per_job", engine_allocs_per_job, "count");
    r.set("exec.wait_s_p50", exec_wait_s_p50, "sim_s");
    r.set("service.plan_share_pct", service_plan_share_pct, "%");
    r.set("service.wait_s_p50", service_wait_s_p50, "sim_s");
    r.set("service.peak_occupancy", service_peak_occupancy, "ratio");
    r.set("service.slowdown_p90", service_slowdown_p90, "ratio");
    r.set("trace.evals_per_job", trace_evals_per_job, "count");
    r.set("util.pool_speedup", util_pool_speedup, "ratio");
    r.set("obs.overhead_pct", obs_overhead_pct, "%");
    r.set("bench.trace_overhead_pct", bench_trace_overhead_pct, "%");
  }
};

void emit_end_to_end(Report& r, double setup_s, double per_s, double ms_p50) {
  r.set("setup_s", setup_s, "s");
  r.set("throughput_per_s", per_s, "1/s");
  r.set("latency_ms_p50", ms_p50, "ms");
}

// ---------------------------------------------------------------------------
// Layer probes: core, store and sched, on one workload's planning problems.

struct Problem {
  const dag::JobDag* dag = nullptr;
  core::JobProfile profile;
  core::CalculatorOptions options;
  sim::ClusterSpec spec;
};

// Default planner options on `spec`, as the CLIs plan. The dags must outlive
// the problems.
std::vector<Problem> problems_on(const std::vector<const dag::JobDag*>& dags,
                                 const sim::ClusterSpec& spec) {
  std::vector<Problem> out;
  for (const dag::JobDag* d : dags)
    out.push_back({d, core::JobProfile::from(*d, spec), {}, spec});
  return out;
}

store::PlanKey key_of(const Problem& p) {
  store::PlanKey key;
  key.signature = core::workload_signature(*p.dag);
  key.bucket = store::bucket_of(p.profile.cluster);
  key.options = store::options_digest(p.options);
  return key;
}

// Replays cold requests through the public pieces, in the order
// PlanService::plan calls them (key → find → compute → insert), with a span
// around each, for `seconds` (at least one request per problem). Checks each
// compute against the service's own cold plan — the cold-start contract of
// store/plan_service.h. Returns the request rate.
double probe_cold_pieces(const std::vector<Problem>& ps, double seconds,
                         Spans& spans, Report& report, Layers& L) {
  store::PlanService service(store::PlanServiceOptions{});
  std::vector<core::DelaySchedule> reference;
  for (const Problem& p : ps)
    reference.push_back(*service.plan(*p.dag, p.profile, p.options).plan);

  store::PlanCache cache(store::PlanCache::Options{});
  std::vector<std::uint64_t> sigs;
  for (const Problem& p : ps) sigs.push_back(core::workload_signature(*p.dag));
  std::vector<double> overhead_ms;
  std::uint64_t bad = 0, requests = 0;
  double root_ms = 0;
  const Deadline deadline(seconds);
  for (std::size_t n = 0; n < ps.size() || !deadline.expired(); ++n) {
    const std::size_t i = n % ps.size();
    const Problem& p = ps[i];
    cache.invalidate_signature(sigs[i]);
    const auto t0 = Clock::now();
    const auto root = spans.span("bench.request", n + 1);
    double piece_ms = 0;
    auto timed = [&](auto&& f) {
      const auto s0 = Clock::now();
      f();
      return 1e3 * seconds_since(s0);
    };
    store::PlanKey key;
    std::shared_ptr<const core::DelaySchedule> hit;
    core::DelaySchedule plan;
    {
      const auto s = spans.span("store.key", n + 1);
      piece_ms += timed([&] { key = key_of(p); });
    }
    {
      const auto s = spans.span("store.find", n + 1);
      piece_ms += timed([&] { hit = cache.find(key, 0); });
    }
    {
      const auto s = spans.span("core.compute", n + 1);
      plan = core::DelayCalculator(p.profile, p.options).compute();
    }
    if (hit != nullptr || !same_plan(plan, reference[i])) ++bad;
    {
      const auto s = spans.span("store.insert", n + 1);
      piece_ms += timed([&] {
        cache.insert(key, 0,
                     std::make_shared<const core::DelaySchedule>(std::move(plan)));
      });
    }
    overhead_ms.push_back(piece_ms);
    root_ms += 1e3 * seconds_since(t0);
    ++requests;
  }
  report.check(requests, bad,
               "piecewise cold plan differs from PlanService's cold plan");
  L.core_compute_ms_p50 = median(spans.durations_ms("core.compute"));
  L.store_miss_overhead_ms_p50 = median(overhead_ms);
  return ratio(1e3 * static_cast<double>(requests), root_ms);
}

void probe_layers(const std::vector<Problem>& ps, double seconds, Report& report,
                  Layers& L) {
  // Allocations of one cold compute per problem.
  std::vector<core::DelaySchedule> plans;
  plans.reserve(ps.size());
  const std::uint64_t a0 = allocations();
  set_alloc_counting(true);
  for (const Problem& p : ps)
    plans.push_back(core::DelayCalculator(p.profile, p.options).compute());
  set_alloc_counting(false);
  L.core_allocs_per_plan = ratio(static_cast<double>(allocations() - a0),
                                 static_cast<double>(ps.size()));
  // Search counters and predictions of those plans: exact, repeatable counts.
  std::vector<double> makespans;
  double evals = 0, memo_hits = 0;
  for (const auto& p : plans) {
    makespans.push_back(p.predicted_makespan);
    evals += static_cast<double>(p.evaluations);
    memo_hits += static_cast<double>(p.memo_hits);
  }
  L.core_pred_makespan_mean_s = mean(makespans);
  L.core_evals_per_plan = ratio(evals, static_cast<double>(ps.size()));
  L.core_memo_hit_ratio = ratio(memo_hits, evals + memo_hits);

  // Evaluator score of each chosen plan with a warm scratch arena.
  constexpr int kScores = 50;
  std::vector<double> score_us;
  std::uint64_t stepped = 0, skipped = 0, bad = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const core::ScheduleEvaluator eval(ps[i].profile, ps[i].options.slot,
                                       ps[i].options.model);
    core::EvalScratch scratch;
    const core::Score first = eval.score(plans[i].delay, scratch);
    const std::uint64_t st0 = eval.slots_stepped(), sk0 = eval.slots_skipped();
    const auto t0 = Clock::now();
    for (int k = 0; k < kScores; ++k) {
      const core::Score s = eval.score(plans[i].delay, scratch);
      if (s.makespan != first.makespan || s.jct != first.jct) ++bad;
    }
    score_us.push_back(1e6 * seconds_since(t0) / kScores);
    stepped += eval.slots_stepped() - st0;
    skipped += eval.slots_skipped() - sk0;
    if (first.makespan != plans[i].predicted_makespan) ++bad;
  }
  report.check(ps.size() * (kScores + 1), bad,
               "evaluator score differs from the planned makespan");
  L.core_score_us = median(score_us);
  L.core_ff_skip_ratio = ratio(static_cast<double>(skipped),
                               static_cast<double>(stepped + skipped));

  // Signature and warm PlanCache::find.
  constexpr int kReps = 256;
  store::PlanCache cache(store::PlanCache::Options{});
  std::vector<store::PlanKey> keys;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    keys.push_back(key_of(ps[i]));
    cache.insert(keys.back(), 0,
                 std::make_shared<const core::DelaySchedule>(plans[i]));
  }
  std::vector<double> sig_us, find_ns;
  std::uint64_t sink = 0, misses = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    auto t0 = Clock::now();
    for (int k = 0; k < kReps; ++k) sink ^= core::workload_signature(*ps[i].dag);
    sig_us.push_back(1e6 * seconds_since(t0) / kReps);
    t0 = Clock::now();
    for (int k = 0; k < kReps; ++k)
      if (cache.find(keys[i], 0) == nullptr) ++misses;
    find_ns.push_back(1e9 * seconds_since(t0) / kReps);
  }
  report.check(ps.size() * kReps, misses, "warm PlanCache::find missed");
  report.check(sink != 1, "signature sink");  // keeps the hash loop live
  L.store_signature_us = median(sig_us);
  L.store_find_ns = median(find_ns);

  // Strategy::plan, the `run` path's planner call, for what is left of the
  // probe's time (at least once per problem).
  std::vector<double> plan_ms;
  const Deadline deadline(seconds);
  for (std::size_t n = 0; n < ps.size() || !deadline.expired(); ++n) {
    const Problem& p = ps[n % ps.size()];
    sched::DelayStageStrategy strategy(p.options);
    const auto t0 = Clock::now();
    const engine::SubmissionPlan plan = strategy.plan(*p.dag, p.spec);
    plan_ms.push_back(1e3 * seconds_since(t0));
    report.check(same_plan(strategy.last_schedule(), plans[n % ps.size()]),
                 "Strategy::plan differs from DelayCalculator::compute");
  }
  L.sched_plan_ms_p50 = median(plan_ms);
}

// Both probes, splitting `seconds` between them.
double probe_all(const std::vector<Problem>& ps, double seconds, Spans& spans,
                 Report& report, Layers& L) {
  const double rate = probe_cold_pieces(ps, 0.6 * seconds, spans, report, L);
  probe_layers(ps, 0.4 * seconds, report, L);
  return rate;
}

// ---------------------------------------------------------------------------
// plan / plan_warm: PlanService::plan over a pool of 64 distinct DAGs.

struct Pool {
  std::vector<dag::JobDag> dags;
  std::vector<Problem> problems;  // one per dag, on paper_prototype
  std::vector<std::uint64_t> sigs;
};

// The §5 suite at 16 volume scales, one drawn from each sixteenth of
// [0.5, 2.0]: distinct planning problems whose mean size barely moves with
// the seed.
std::unique_ptr<Pool> make_pool(std::uint64_t seed) {
  auto pool = std::make_unique<Pool>();
  Rng rng(seed);
  for (int i = 0; i < kPoolScales; ++i) {
    const double scale = 0.5 + 1.5 * (i + rng.uniform()) / kPoolScales;
    for (auto& w : workloads::benchmark_suite(scale))
      pool->dags.push_back(std::move(w.dag));
  }
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  std::vector<const dag::JobDag*> dags;
  for (const auto& d : pool->dags) {
    pool->sigs.push_back(core::workload_signature(d));
    dags.push_back(&d);
  }
  pool->problems = problems_on(dags, spec);
  return pool;
}

struct PlanSetup {
  std::unique_ptr<Pool> pool;
  std::unique_ptr<store::PlanService> service;
  double setup_s = 0;
};

PlanSetup plan_setup(const Options& opt) {
  PlanSetup s;
  s.setup_s = median_setup_seconds([&] {
    s.pool = make_pool(opt.seed);
    s.service = std::make_unique<store::PlanService>(store::PlanServiceOptions{});
  });
  return s;
}

struct ColdPasses {
  std::vector<double> latency_ms;
  std::vector<double> pass_rate;  // plans/s of each full pass
};

// Closed-loop cold requests, pass after pass over the pool, each preceded by
// invalidating the workload's cached plans. At least two passes; every
// request is checked against `reference` (filled by the first pass ever).
ColdPasses cold_passes(const Pool& pool, store::PlanService& service,
                       double seconds, std::vector<core::DelaySchedule>& reference,
                       Report& report) {
  ColdPasses out;
  const Deadline deadline(seconds);
  for (int pass = 0; pass < 2 || !deadline.expired(); ++pass) {
    double pass_ms = 0;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pool.dags.size(); ++i) {
      service.cache().invalidate_signature(pool.sigs[i]);
      const auto t0 = Clock::now();
      const auto planned = service.plan(pool.dags[i], pool.problems[i].profile);
      const double ms = 1e3 * seconds_since(t0);
      pass_ms += ms;
      out.latency_ms.push_back(ms);
      if (reference.size() < pool.dags.size()) reference.push_back(*planned.plan);
      if (planned.cache_hit || !same_plan(*planned.plan, reference[i])) ++bad;
    }
    out.pass_rate.push_back(1e3 * static_cast<double>(pool.dags.size()) / pass_ms);
    report.check(pool.dags.size(), bad, "cold plan differs from pass 0");
  }
  return out;
}

double mean_predicted_jct(const std::vector<core::DelaySchedule>& plans) {
  std::vector<double> v;
  for (const auto& p : plans) v.push_back(p.predicted_jct);
  return mean(v);
}

}  // namespace

void run_plan(const Options& opt, Report& report, Spans& spans) {
  PlanSetup s = plan_setup(opt);
  std::vector<core::DelaySchedule> reference;
  const double share = opt.traced ? 0.25 : 1.0;
  const ColdPasses plain =
      cold_passes(*s.pool, *s.service, share * opt.seconds, reference, report);
  emit_end_to_end(report, s.setup_s, median(plain.pass_rate),
                  median(plain.latency_ms));
  if (!opt.traced) return;

  Layers L;
  L.jct_mean_s = mean_predicted_jct(reference);
  obs::Observability obs;
  store::PlanServiceOptions sopt;
  sopt.calculator.obs = &obs;
  store::PlanService observed(sopt, &obs);
  const ColdPasses with_obs =
      cold_passes(*s.pool, observed, share * opt.seconds, reference, report);
  L.obs_overhead_pct = overhead_pct(median(plain.pass_rate), median(with_obs.pass_rate));
  L.store_hit_ratio = hit_ratio(obs.metrics.snapshot());

  // The spans pass is the piecewise replay of the same cold requests.
  const double pieces_rate =
      probe_all(s.pool->problems, 2 * share * opt.seconds, spans, report, L);
  L.bench_trace_overhead_pct = overhead_pct(median(plain.pass_rate), pieces_rate);
  L.emit(report);
}

void run_plan_warm(const Options& opt, Report& report, Spans& spans) {
  PlanSetup s = plan_setup(opt);
  const Pool& pool = *s.pool;
  std::vector<core::DelaySchedule> reference;
  for (std::size_t i = 0; i < pool.dags.size(); ++i)
    reference.push_back(*s.service->plan(pool.dags[i], pool.problems[i].profile).plan);

  // Round-robin recurrent requests, timed per batch; every one must hit and
  // return its cold plan.
  auto warm_batches = [&](store::PlanService& service, double seconds) {
    std::vector<double> batch_s;
    const Deadline deadline(seconds);
    std::size_t next = 0;
    while (batch_s.size() < 3 || !deadline.expired()) {
      std::uint64_t bad = 0;
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < kWarmBatch; ++r) {
        const std::size_t i = next;
        next = next + 1 == pool.dags.size() ? 0 : next + 1;
        const auto planned = service.plan(pool.dags[i], pool.problems[i].profile);
        if (!planned.cache_hit || !same_plan(*planned.plan, reference[i])) ++bad;
      }
      batch_s.push_back(seconds_since(t0));
      report.check(kWarmBatch, bad, "warm hit differs from its cold plan");
    }
    return batch_s;
  };
  auto per_s = [](const std::vector<double>& batch_s) {
    std::vector<double> rates;
    for (double b : batch_s) rates.push_back(kWarmBatch / b);
    return median(rates);
  };

  const double share = opt.traced ? 0.25 : 1.0;
  const std::vector<double> plain = warm_batches(*s.service, share * opt.seconds);
  emit_end_to_end(report, s.setup_s, per_s(plain),
                  1e3 * median(plain) / kWarmBatch);
  if (!opt.traced) return;

  Layers L;
  L.jct_mean_s = mean_predicted_jct(reference);
  obs::Observability obs;
  store::PlanServiceOptions sopt;
  sopt.calculator.obs = &obs;
  store::PlanService observed(sopt, &obs);
  for (std::size_t i = 0; i < pool.dags.size(); ++i)
    observed.plan(pool.dags[i], pool.problems[i].profile);
  const obs::MetricsSnapshot filled = obs.metrics.snapshot();
  L.obs_overhead_pct = overhead_pct(per_s(plain),
                                    per_s(warm_batches(observed, share * opt.seconds)));
  L.store_hit_ratio = hit_ratio(obs.metrics.snapshot(), filled);

  // Spans pass: the hit path's pieces, a batch at a time (a span per hit
  // would cost more than the hit).
  std::vector<store::PlanKey> keys(kWarmBatch);
  std::vector<double> root_s;
  const Deadline deadline(share * opt.seconds);
  std::size_t next = 0;
  for (std::uint64_t b = 1; root_s.size() < 3 || !deadline.expired(); ++b) {
    const auto t0 = Clock::now();
    const auto root = spans.span("bench.batch", b);
    std::uint64_t bad = 0;
    const std::size_t first = next;
    {
      const auto k = spans.span("store.key", b);
      for (auto& key : keys) {
        key = key_of(pool.problems[next]);
        next = next + 1 == pool.dags.size() ? 0 : next + 1;
      }
    }
    {
      const auto f = spans.span("store.find", b);
      std::size_t i = first;
      for (const auto& key : keys) {
        const auto hit =
            s.service->cache().find(key, s.service->profiles().epoch(key.signature));
        if (hit == nullptr || !same_plan(*hit, reference[i])) ++bad;
        i = i + 1 == pool.dags.size() ? 0 : i + 1;
      }
    }
    root_s.push_back(seconds_since(t0));
    report.check(kWarmBatch, bad, "piecewise warm hit differs from its cold plan");
  }
  L.bench_trace_overhead_pct = overhead_pct(per_s(plain), per_s(root_s));

  probe_all(pool.problems, share * opt.seconds, spans, report, L);
  L.emit(report);
}

// ---------------------------------------------------------------------------
// run: Strategy::plan + JobRun + Simulator::run, one job per fresh cluster.

namespace {

std::vector<const dag::JobDag*> dags_of(const std::vector<workloads::Workload>& ws) {
  std::vector<const dag::JobDag*> out;
  for (const auto& w : ws) out.push_back(&w.dag);
  return out;
}

struct RunPass {
  std::vector<double> round_rate;  // jobs/s of each round
  std::vector<double> job_ms;
  std::uint64_t events = 0;
  std::uint64_t engine_allocs = 0;  // in JobRun + Simulator::run, if counted
  double sim_run_s = 0;
};

}  // namespace

void run_run(const Options& opt, Report& report, Spans& spans) {
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  std::vector<workloads::Workload> suite;
  std::vector<std::unique_ptr<sched::Strategy>> strategies;
  const double setup_s = median_setup_seconds([&] {
    suite = workloads::benchmark_suite(1.0);
    strategies.clear();
    strategies.push_back(sched::make_strategy("Spark"));
    strategies.push_back(sched::make_strategy("DelayStage"));
  });
  const std::size_t jobs_per_round = strategies.size() * suite.size();

  // Reference JCTs by (engine seed slot, strategy, workload), set by the
  // first three rounds; every later run of the same triple must match.
  std::vector<double> jct(kRunEngineSeeds * jobs_per_round, -1);
  std::uint64_t request = 0;
  // Rounds until `seconds` pass, at least `min_rounds`. Round r runs every
  // (strategy, workload) with engine seed seed + r % 3.
  auto pass = [&](double seconds, int min_rounds, obs::Observability* obs,
                  Spans& sp, bool count_allocs) {
    RunPass out;
    const Deadline deadline(seconds);
    for (int r = 0; r < min_rounds || !deadline.expired(); ++r) {
      const auto slot = static_cast<std::uint64_t>(r % kRunEngineSeeds);
      const std::uint64_t engine_seed = opt.seed + slot;
      const auto round0 = Clock::now();
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
          const auto t0 = Clock::now();
          const auto root = sp.span("bench.job", ++request);
          std::optional<sim::Simulator> sim;
          std::optional<sim::Cluster> cluster;
          {
            const auto c = sp.span("sim.cluster", request);
            sim.emplace(obs);
            cluster.emplace(*sim, spec, engine_seed, obs);
          }
          engine::RunOptions ro;
          ro.seed = engine_seed;
          ro.obs = obs;
          {
            const auto p = sp.span("sched.plan", request);
            ro.plan = strategies[s]->plan(suite[w].dag, *cluster);
          }
          const std::uint64_t a0 = allocations();
          set_alloc_counting(count_allocs);
          std::optional<engine::JobRun> run;
          {
            const auto e = sp.span("engine.start", request);
            run.emplace(*cluster, suite[w].dag, ro);
            run->start();
          }
          const auto s0 = Clock::now();
          {
            const auto e = sp.span("sim.run", request);
            sim->run();
          }
          out.sim_run_s += seconds_since(s0);
          set_alloc_counting(false);
          out.engine_allocs += allocations() - a0;
          out.events += sim->events_processed();
          out.job_ms.push_back(1e3 * seconds_since(t0));
          const bool ok = run->finished() && !run->result().failed;
          double& ref = jct[(slot * strategies.size() + s) * suite.size() + w];
          if (ref < 0 && ok) ref = run->result().jct;
          report.check(ok && run->result().jct == ref,
                       "run " + strategies[s]->name() + "/" + suite[w].name +
                           " failed or changed its JCT");
        }
      }
      out.round_rate.push_back(static_cast<double>(jobs_per_round) /
                               seconds_since(round0));
    }
    return out;
  };

  Spans off(false);
  const double share = opt.traced ? 0.25 : 1.0;
  const RunPass plain = pass(share * opt.seconds, kRunEngineSeeds, nullptr, off, false);
  // The Spark arm is strategy 0, DelayStage strategy 1.
  std::vector<double> spark_jct, ds_jct;
  for (std::size_t i = 0; i < jct.size(); ++i)
    ((i / suite.size()) % strategies.size() == 0 ? spark_jct : ds_jct)
        .push_back(jct[i]);
  emit_end_to_end(report, setup_s, median(plain.round_rate), median(plain.job_ms));
  if (!opt.traced) return;

  Layers L;
  L.jct_mean_s = mean(ds_jct);
  L.sched_jct_gain_pct = 100.0 * (1.0 - mean(ds_jct) / mean(spark_jct));
  {
    obs::Observability obs;
    const RunPass with_obs = pass(share * opt.seconds, 1, &obs, off, false);
    L.obs_overhead_pct =
        overhead_pct(median(plain.round_rate), median(with_obs.round_rate));
    const obs::MetricsSnapshot snap = obs.metrics.snapshot();
    const double jobs = static_cast<double>(with_obs.job_ms.size());
    L.net_flows_per_job = counter_of(snap, "net.flows_started") / jobs;
    L.engine_tasks_per_job = counter_of(snap, "engine.tasks_launched") / jobs;
    L.exec_wait_s_p50 = histogram_of(snap, "exec.wait_seconds").p50;
  }
  const RunPass traced = pass(share * opt.seconds, 1, nullptr, spans, true);
  L.bench_trace_overhead_pct =
      overhead_pct(median(plain.round_rate), median(traced.round_rate));
  const double jobs = static_cast<double>(traced.job_ms.size());
  L.sim_events_per_job = static_cast<double>(traced.events) / jobs;
  L.sim_events_per_s = static_cast<double>(traced.events) / traced.sim_run_s;
  L.engine_allocs_per_job = static_cast<double>(traced.engine_allocs) / jobs;

  probe_all(problems_on(dags_of(suite), spec), share * opt.seconds, spans, report, L);
  L.emit(report);
}

// ---------------------------------------------------------------------------
// sched: ds::Scheduler::submit_at + drain over a Poisson job stream.

namespace {

// Open-loop arrivals at `rate` with exponential gaps, stratified: gap i is the
// exponential quantile of (k + 1/4 + u/2) / n for stratum k, with u drawn from
// the seed (the middle half of each stratum keeps the last gap finite), and
// the strata follow one fixed low-discrepancy order (the rank of
// i's bit reversal), so long and short gaps interleave. A short stream then
// carries the same offered load and burst shape for every seed; i.i.d. gaps
// swing its mean JCT by a factor of four.
std::vector<Seconds> stratified_arrivals(std::size_t n, double rate,
                                         std::uint64_t seed) {
  auto bit_reversed = [](std::uint32_t i) {
    std::uint32_t r = 0;
    for (int b = 0; b < 32; ++b, i >>= 1) r = (r << 1) | (i & 1);
    return r;
  };
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bit_reversed(static_cast<std::uint32_t>(a)) <
           bit_reversed(static_cast<std::uint32_t>(b));
  });
  Rng rng(seed);
  std::vector<Seconds> arrivals(n);
  Seconds t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(order[i]) + 0.25 + 0.5 * rng.uniform()) /
                     static_cast<double>(n);
    arrivals[i] = t += -std::log(1.0 - q) / rate;
  }
  return arrivals;
}

// The suite index of each job: every block of `kinds` jobs is a seeded
// permutation of the suite, so the mix is fixed and its order varies.
std::vector<std::size_t> job_mix(std::size_t n, std::size_t kinds,
                                 std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<std::size_t> mix;
  std::vector<std::size_t> block(kinds);
  while (mix.size() < n) {
    for (std::size_t k = 0; k < kinds; ++k) block[k] = k;
    for (std::size_t k = kinds; k > 1; --k)
      std::swap(block[k - 1], block[rng.next_u64() % k]);
    for (std::size_t k = 0; k < kinds && mix.size() < n; ++k) mix.push_back(block[k]);
  }
  return mix;
}

struct SchedRound {
  FleetStats fleet;
  std::vector<double> jct, wait, slowdown;
  double seconds = 0;  // submit + drain, host
};

bool same_round(const SchedRound& a, const SchedRound& b) {
  const FleetStats& x = a.fleet;
  const FleetStats& y = b.fleet;
  return a.jct == b.jct && a.wait == b.wait && a.slowdown == b.slowdown &&
         x.submitted == y.submitted && x.finished == y.finished &&
         x.failed == y.failed && x.makespan == y.makespan &&
         x.mean_wait == y.mean_wait && x.max_wait == y.max_wait &&
         x.mean_jct == y.mean_jct && x.p99_jct == y.p99_jct &&
         x.mean_slowdown == y.mean_slowdown && x.p99_slowdown == y.p99_slowdown &&
         x.peak_slot_occupancy == y.peak_slot_occupancy &&
         x.plan_cache_hit_rate == y.plan_cache_hit_rate &&
         x.mean_planned_delay == y.mean_planned_delay;
}

}  // namespace

void run_sched(const Options& opt, Report& report, Spans& spans) {
  // One fixed testbed: the scheduler's seed draws the cluster's NICs and the
  // per-job engine seeds, and across seeds that draw moves host work per job
  // by about ±12%. The workload seed shapes the job streams instead.
  SchedulerOptions base;
  base.cluster = sim::ClusterSpec::paper_prototype();
  base.seed = kSchedClusterSeed;
  base.policy = service::OrderPolicy::kFifo;
  base.plan_delays = true;
  base.threads = 1;
  // Host work per job still moves ±15% with a stream's arrival jitter and
  // mix order, so each run cycles through kSchedStreams streams.
  struct Stream {
    std::vector<Seconds> arrivals;
    std::vector<std::size_t> mix;  // suite index of each job
  };
  std::vector<workloads::Workload> suite;
  std::vector<Stream> streams(kSchedStreams);
  const double setup_s = median_setup_seconds([&] {
    suite = workloads::benchmark_suite(0.5);
    for (std::size_t v = 0; v < streams.size(); ++v) {
      const std::uint64_t stream_seed = opt.seed * kSchedStreams + v;
      streams[v].arrivals = stratified_arrivals(kSchedJobs, kSchedRate, stream_seed);
      streams[v].mix = job_mix(kSchedJobs, suite.size(), stream_seed);
    }
    const Scheduler scheduler(base);
  });

  std::vector<std::optional<SchedRound>> reference(streams.size());
  std::uint64_t round_id = 0;
  // One round: a fresh Scheduler (constructed outside the timing, like the
  // set-up), stream v submitted, then drained.
  auto round = [&](std::size_t v, obs::Observability* obs, Spans& sp) {
    SchedulerOptions so = base;
    so.obs = obs;
    Scheduler scheduler(so);
    SchedRound out;
    const auto t0 = Clock::now();
    {
      const auto root = sp.span("bench.round", ++round_id);
      {
        const auto s = sp.span("service.submit", round_id);
        for (std::size_t i = 0; i < kSchedJobs; ++i)
          scheduler.submit_at(streams[v].arrivals[i], suite[streams[v].mix[i]].dag);
      }
      const auto d = sp.span("service.drain", round_id);
      scheduler.drain();
    }
    out.seconds = seconds_since(t0);
    out.fleet = scheduler.fleet();
    for (service::JobId id = 1; id <= kSchedJobs; ++id) {
      const JobStatus& st = scheduler.poll(id);
      out.jct.push_back(st.jct);
      out.wait.push_back(st.wait);
      out.slowdown.push_back(st.slowdown);
    }
    if (!reference[v]) reference[v] = out;
    report.check(kSchedJobs, kSchedJobs - std::min(kSchedJobs, out.fleet.finished),
                 "scheduler left jobs unfinished");
    report.check(kSchedJobs, out.fleet.failed, "scheduler failed jobs");
    report.check(same_round(out, *reference[v]),
                 "scheduler round differs from the first round of its stream");
    return out;
  };
  // Rounds cycling the streams until `seconds` pass, at least `min_rounds`.
  auto rounds = [&](double seconds, std::size_t min_rounds, obs::Observability* obs,
                    Spans& sp) {
    std::vector<SchedRound> out;
    const Deadline deadline(seconds);
    while (out.size() < min_rounds || !deadline.expired())
      out.push_back(round(out.size() % streams.size(), obs, sp));
    return out;
  };
  auto per_s = [](const std::vector<SchedRound>& rs) {
    double seconds = 0;
    for (const auto& r : rs) seconds += r.seconds;
    return static_cast<double>(kSchedJobs * rs.size()) / seconds;
  };
  // Percent by which `rs` ran slower than the plain pass, stream by stream.
  std::vector<double> plain_s(streams.size());
  auto slowdown_pct = [&](const std::vector<SchedRound>& rs) {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < rs.size(); ++r)
      ratios.push_back(rs[r].seconds / plain_s[r % streams.size()]);
    return 100.0 * (mean(ratios) - 1.0);
  };

  Spans off(false);
  const double share = opt.traced ? 0.25 : 1.0;
  const std::vector<SchedRound> plain =
      rounds(share * opt.seconds, streams.size(), nullptr, off);
  emit_end_to_end(report, setup_s, per_s(plain), 1e3 / per_s(plain));
  if (!opt.traced) return;

  Layers L;
  std::vector<double> jcts, waits, slowdowns;
  for (std::size_t v = 0; v < streams.size(); ++v) {
    plain_s[v] = plain[v].seconds;
    jcts.push_back(reference[v]->fleet.mean_jct);
    waits.insert(waits.end(), reference[v]->wait.begin(), reference[v]->wait.end());
    slowdowns.insert(slowdowns.end(), reference[v]->slowdown.begin(),
                     reference[v]->slowdown.end());
    L.service_peak_occupancy =
        std::max(L.service_peak_occupancy, reference[v]->fleet.peak_slot_occupancy);
  }
  L.jct_mean_s = mean(jcts);
  L.service_wait_s_p50 = median(waits);
  L.service_slowdown_p90 = percentile(slowdowns, 90);
  {
    // Registry + flight recorder, as `sched --flight-out` runs.
    obs::FlightRecorderOptions fopt;
    fopt.enabled = true;
    obs::Observability obs(obs::TracerOptions{}, fopt);
    const std::vector<SchedRound> with_obs = rounds(share * opt.seconds, 1, &obs, off);
    L.obs_overhead_pct = slowdown_pct(with_obs);
    double drain_s = 0;
    for (const auto& r : with_obs) drain_s += r.seconds;
    const obs::MetricsSnapshot snap = obs.metrics.snapshot();
    const double jobs = static_cast<double>(kSchedJobs * with_obs.size());
    L.service_plan_share_pct =
        100.0 * histogram_of(snap, "planner.plan_wall_seconds").sum / drain_s;
    L.store_hit_ratio = hit_ratio(snap);
    // (The Scheduler's own Simulator publishes no sim.events counter.)
    L.net_flows_per_job = counter_of(snap, "net.flows_started") / jobs;
    L.engine_tasks_per_job = counter_of(snap, "engine.tasks_launched") / jobs;
    L.exec_wait_s_p50 = histogram_of(snap, "exec.wait_seconds").p50;
  }
  L.bench_trace_overhead_pct = slowdown_pct(rounds(share * opt.seconds, 1, nullptr, spans));

  probe_all(problems_on(dags_of(suite), base.cluster), share * opt.seconds, spans,
            report, L);
  L.emit(report);
}

// ---------------------------------------------------------------------------
// replay: trace::replay of a synthetic Alibaba-like trace, DelayStage.

void run_replay(const Options& opt, Report& report, Spans& spans) {
  std::vector<trace::TraceJob> jobs;
  const double setup_s = median_setup_seconds([&] {
    trace::SyntheticTraceOptions topt;
    topt.num_jobs = kReplayJobs;
    topt.seed = opt.seed;
    // Clip the stage-count tail where nearly every seed reaches it: the
    // largest job sets peak memory and much of the planning time, so it
    // should be the same size for every seed.
    topt.max_stages = 64;
    jobs = trace::synthetic_trace(topt);
  });
  trace::ReplayOptions base;
  base.strategy = "DelayStage";
  base.seed = opt.seed;

  std::vector<double> reference;  // per-job JCT of the first round
  std::uint64_t round_id = 0;
  // One replay; returns its host seconds after checking its output.
  auto round = [&](int threads, obs::Observability* obs, Spans& sp) {
    trace::ReplayOptions ro = base;
    ro.threads = threads;
    ro.obs = obs;
    const auto t0 = Clock::now();
    trace::ReplayResult res;
    {
      const auto root = sp.span("bench.round", ++round_id);
      const auto r = sp.span("trace.replay", round_id);
      res = trace::replay(jobs, ro);
    }
    const double seconds = seconds_since(t0);
    std::vector<double> jct;
    std::uint64_t bad = 0;
    for (const auto& j : res.jobs) {
      jct.push_back(j.jct);
      // A job alone on the cluster finishes in exactly its dedicated time,
      // up to the rounding of the processor-sharing clock.
      if (!(j.dedicated_time > 0 && j.jct >= j.dedicated_time * (1 - 1e-9))) ++bad;
    }
    report.check(res.jobs.size(), bad, "replayed job has jct < dedicated time");
    if (reference.empty()) reference = jct;
    report.check(jct == reference && mean(jct) == mean(reference),
                 "replay differs from the first round (threads " +
                     std::to_string(threads) + ")");
    return seconds;
  };
  // Round times until `seconds` pass, at least one.
  auto rounds = [&](double seconds, obs::Observability* obs, Spans& sp) {
    std::vector<double> round_s;
    const Deadline deadline(seconds);
    while (round_s.empty() || !deadline.expired())
      round_s.push_back(round(opt.threads, obs, sp));
    return round_s;
  };
  // Throughput counts planned stages: the input fixes them, and they even
  // out the trace's heavy-tailed job sizes far better than job counts do.
  std::size_t stages = 0;
  for (const auto& j : jobs) stages += j.stages.size();
  auto per_s = [&](const std::vector<double>& round_s) {
    return static_cast<double>(stages) / median(round_s);
  };

  Spans off(false);
  const double share = opt.traced ? 0.25 : 1.0;
  const std::vector<double> plain = rounds(share * opt.seconds, nullptr, off);
  // Bit-identity across thread counts, outside the measured time.
  const double single_s = round(1, nullptr, off);
  emit_end_to_end(report, setup_s, per_s(plain), 1e3 * median(plain));
  if (!opt.traced) return;

  Layers L;
  L.jct_mean_s = mean(reference);
  L.util_pool_speedup = single_s / median(plain);
  {
    obs::Observability obs;
    const std::vector<double> with_obs = rounds(share * opt.seconds, &obs, off);
    L.obs_overhead_pct = overhead_pct(per_s(plain), per_s(with_obs));
    L.trace_evals_per_job =
        counter_of(obs.metrics.snapshot(), "planner.evaluations") /
        static_cast<double>(with_obs.size() * kReplayJobs);
  }
  L.bench_trace_overhead_pct = overhead_pct(
      per_s(plain), per_s(rounds(share * opt.seconds, nullptr, spans)));

  // The planning problems of the first 64 jobs, built as replay builds them:
  // each job on its own sub-cluster, slot width adapted to its size.
  constexpr std::size_t kProbeJobs = 64;
  sim::ClusterSpec cs = base.cluster;
  cs.num_workers = std::min(cs.num_workers, base.machines_per_job);
  trace::ReferenceRates ref;
  ref.nic_bw = 0.5 * (cs.nic_bw_min + cs.nic_bw_max);
  ref.disk_bw = cs.disk_bw;
  ref.num_workers = cs.num_workers;
  ref.executors = static_cast<double>(cs.total_executors());
  ref.tasks_per_node = cs.executors_per_worker;
  std::vector<dag::JobDag> dags;
  for (std::size_t i = 0; i < std::min(kProbeJobs, jobs.size()); ++i)
    dags.push_back(trace::to_job_dag(jobs[i], ref));
  std::vector<Problem> ps;
  for (std::size_t i = 0; i < dags.size(); ++i) {
    core::CalculatorOptions copt;
    const Seconds slot = std::max(1.0, (1.0 + jobs[i].total_solo_time()) /
                                           base.evaluator_slots);
    copt.slot = slot;
    copt.step = slot;
    copt.coarse_candidates = base.coarse_candidates;
    copt.sweeps = base.sweeps;
    copt.seed = base.seed + i;
    copt.threads = 1;
    ps.push_back({&dags[i], core::JobProfile::from(dags[i], cs), copt, cs});
  }
  probe_all(ps, share * opt.seconds, spans, report, L);
  L.emit(report);
}

}  // namespace e2e
