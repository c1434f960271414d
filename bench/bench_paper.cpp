// bench_paper — regenerates the paper's simulated evaluation (Figs. 2–6,
// 10–14 and 16–17, Tables 3–4, Appendix A.2), our ablations and the §6
// multi-job scheduler and geo extensions. Each entry runs one experiment on
// the simulated cluster and prints the rows/series the paper reports
// (Fig. 15's wall-clock overhead is `bench_perf fig15`):
//
//   bench_paper <entry>...   run the named entries in order
//   bench_paper all          run every entry in table order
//   bench_paper help         list the entries
//
// No argument, or an unknown entry, prints the list to stderr and exits 2
// before anything runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/adaptive.h"
#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "core/profile.h"
#include "engine/job_run.h"
#include "metrics/cdf.h"
#include "metrics/sampler.h"
#include "metrics/stats.h"
#include "metrics/timeseries.h"
#include "obs/analytics/analytics.h"
#include "sched/strategy.h"
#include "service/arrivals.h"
#include "service/scheduler.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "trace/replay.h"
#include "trace/stats.h"
#include "trace/synthetic.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::bench {
namespace {

struct BenchRun {
  engine::JobResult result;
  // Time series of a representative worker (worker 0) over the job's run.
  metrics::TimeSeries worker_cpu;   // percent
  metrics::TimeSeries worker_net;   // MB/s received
  metrics::Summary cpu_summary;     // over [0, jct]
  metrics::Summary net_summary;
  std::vector<metrics::TimeSeries> occupancy;  // executors held, per stage
  engine::SubmissionPlan plan;
};

// Runs one workload under one strategy. `opt` carries the engine options
// (locality wait, speculation, an Observability to capture task spans for
// span-based interleaving analytics); the plan and the seed are filled in
// here. The obs layer and the utilization sampler (which also tracks each
// stage's executors) are passive, so results are bit-identical with or
// without them.
BenchRun run_workload(const dag::JobDag& dag, const sim::ClusterSpec& spec,
                      const std::string& strategy_name, std::uint64_t seed,
                      engine::RunOptions opt = {}) {
  sim::Simulator sim(opt.obs);
  sim::Cluster cluster(sim, spec, seed, opt.obs);
  opt.plan = sched::make_strategy(strategy_name)->plan(dag, cluster);
  opt.seed = seed;

  engine::JobRun run(cluster, dag, opt);
  metrics::UtilizationSampler sampler(cluster);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    sampler.track([&run, s] { return static_cast<double>(run.slots_held(s)); });
  sampler.start();
  run.start();
  // The sampler keeps the event queue alive; step until the job completes,
  // then stop sampling and drain.
  while (!run.finished() && sim.step()) {
  }
  sampler.stop();
  sim.run();

  BenchRun out;
  out.result = run.result();
  const obs::analytics::WorkerUtilization wu =
      obs::analytics::worker_utilization(sampler, 0, out.result.jct);
  out.worker_cpu = wu.cpu;
  out.worker_net = wu.net;
  out.cpu_summary = wu.cpu_summary;
  out.net_summary = wu.net_summary;
  out.plan = opt.plan;
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    out.occupancy.push_back(sampler.tracked(static_cast<std::size_t>(s)));
  return out;
}

// Mean JCT of `dag` under `strategy` over `seeds`, every run with `opt`.
double mean_jct(const dag::JobDag& dag, const sim::ClusterSpec& spec,
                const char* strategy, const std::vector<std::uint64_t>& seeds,
                const engine::RunOptions& opt = {}) {
  double mean = 0;
  for (const std::uint64_t seed : seeds)
    mean += run_workload(dag, spec, strategy, seed, opt).result.jct /
            static_cast<double>(seeds.size());
  return mean;
}

// A tracing Observability for span-based bench analytics; sized generously
// so long runs never drop spans.
obs::Observability make_bench_obs() {
  obs::TracerOptions topt;
  topt.enabled = true;
  topt.ring_capacity = std::size_t{1} << 19;
  return obs::Observability(topt);
}

// One-line interleaving digest of a run's task spans (Figs. 5/12): how much
// of the makespan the network and CPU overlap, and the idle fractions left.
void print_interleaving_digest(std::ostream& os, const std::string& strategy,
                               const obs::Observability& obs, Seconds jct) {
  const obs::analytics::InterleavingReport rep =
      obs::analytics::interleaving(obs.tracer, jct);
  const auto& c = rep.cluster;
  os << strategy << " interleaving: net busy "
     << fmt(100.0 * c.network.busy_fraction, 1) << " %, CPU busy "
     << fmt(100.0 * c.cpu.busy_fraction, 1) << " %, net x CPU overlap "
     << fmt(100.0 * c.overlap_fraction, 1) << " % of the scarcer resource ("
     << fmt(100.0 * c.interleaving_score, 1) << " % of makespan)\n";
}

// Print a (time, series...) block bucketed to `bucket` seconds, `max_rows`
// rows maximum — the shape of the paper's time-series figures in text form.
void print_series(const std::string& time_label,
                  const std::vector<std::string>& labels,
                  const std::vector<const metrics::TimeSeries*>& series,
                  Seconds bucket, std::size_t max_rows) {
  std::vector<metrics::TimeSeries> rebucketed;
  rebucketed.reserve(series.size());
  std::size_t rows = 0;
  for (const auto* ts : series) {
    rebucketed.push_back(ts->rebucket(bucket));
    rows = std::max(rows, rebucketed.back().size());
  }
  std::vector<std::string> headers = {time_label};
  headers.insert(headers.end(), labels.begin(), labels.end());
  TablePrinter table(headers);
  table.set_precision(1);
  const std::size_t step = rows <= max_rows ? 1 : (rows + max_rows - 1) / max_rows;
  for (std::size_t r = 0; r < rows; r += step) {
    std::vector<TablePrinter::Cell> row;
    row.emplace_back(rebucketed[0].size() > r ? rebucketed[0].time(r)
                                              : static_cast<double>(r) * bucket);
    for (const auto& ts : rebucketed)
      row.emplace_back(r < ts.size() ? ts.value(r) : 0.0);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

// Stage-breakdown rows (Figs. 6/11/16): per stage, when it was submitted,
// how long the shuffle read ran (grey block) and when it finished.
void print_breakdown(const std::string& strategy, const dag::JobDag& dag,
                     const engine::JobResult& r,
                     const engine::SubmissionPlan& plan) {
  std::cout << strategy << " (JCT " << fmt(r.jct, 1) << " s):\n";
  TablePrinter t({"stage", "delay x_k", "submitted", "read done", "finish"});
  t.set_precision(1);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    const auto& sr = r.stages[static_cast<std::size_t>(s)];
    t.add_row({dag.stage(s).name, plan.delay_for(s), sr.submitted,
               sr.last_read_done, sr.finish});
  }
  t.print(std::cout);
}

// Span of the longest execution path: max finish over the parallel set
// minus the region's start.
double parallel_span(const dag::JobDag& dag, const engine::JobResult& r) {
  double end = 0, start = 1e18;
  for (dag::StageId s : dag.parallel_stage_set()) {
    end = std::max(end, r.stages[static_cast<std::size_t>(s)].finish);
    start = std::min(start, r.stages[static_cast<std::size_t>(s)].ready);
  }
  return end - start;
}

// Stage breakdowns of one workload on the prototype cluster, one table per
// strategy (Figs. 11/16). With `span_line`, also how far the parallel
// region shrank from the first strategy to the last.
void breakdowns(const dag::JobDag& dag, const char* workload,
                const std::vector<const char*>& strategies, bool span_line) {
  std::cout << "--- " << workload << " ---\n";
  const auto spec = sim::ClusterSpec::paper_prototype();
  std::vector<engine::JobResult> results;
  for (const char* strategy : strategies) {
    if (!results.empty()) std::cout << '\n';
    const BenchRun run = run_workload(dag, spec, strategy, 42);
    print_breakdown(strategy, dag, run.result, run.plan);
    results.push_back(run.result);
  }
  if (span_line) {
    const double a = parallel_span(dag, results.front());
    const double b = parallel_span(dag, results.back());
    std::cout << "parallel-region span: " << fmt(a, 1) << " s -> " << fmt(b, 1)
              << " s (-" << fmt(100.0 * (a - b) / a, 1) << " %)\n";
  }
  std::cout << '\n';
}

// Worker 0's network throughput and CPU utilization under stock Spark vs
// DelayStage on the prototype cluster (Figs. 12/17). With `digest`, both
// runs are traced (passive: results are identical to untraced runs) so the
// span-based interleaving digest can quantify the filled valleys.
void compare_utilization(const dag::JobDag& dag, const char* workload,
                         bool digest) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  obs::Observability stock_obs = make_bench_obs();
  obs::Observability ds_obs = make_bench_obs();
  engine::RunOptions stock_opt, ds_opt;
  stock_opt.obs = digest ? &stock_obs : nullptr;
  ds_opt.obs = digest ? &ds_obs : nullptr;
  const BenchRun stock = run_workload(dag, spec, "Spark", 42, stock_opt);
  const BenchRun ds_run = run_workload(dag, spec, "DelayStage", 42, ds_opt);

  std::cout << "--- " << workload << " (worker 0, 20 s buckets) ---\n";
  print_series("t (s)",
               {"Spark net MB/s", "DelayStage net MB/s", "Spark CPU %",
                "DelayStage CPU %"},
               {&stock.worker_net, &ds_run.worker_net, &stock.worker_cpu,
                &ds_run.worker_cpu},
               20.0, 36);
  std::cout << "JCT: Spark " << fmt(stock.result.jct, 1) << " s, DelayStage "
            << fmt(ds_run.result.jct, 1) << " s\n";
  if (digest) {
    print_interleaving_digest(std::cout, "Spark", stock_obs, stock.result.jct);
    print_interleaving_digest(std::cout, "DelayStage", ds_obs,
                              ds_run.result.jct);
  }
  std::cout << '\n';
}

// Statistics of the 20,000-job seed-2018 synthetic Alibaba trace behind
// Figs. 2 and 3, computed once per process.
const trace::TraceStats& alibaba_trace_stats() {
  static const trace::TraceStats stats = [] {
    trace::SyntheticTraceOptions opt;
    opt.num_jobs = 20000;
    opt.seed = 2018;
    return trace::analyze(trace::synthetic_trace(opt));
  }();
  return stats;
}

// The four replays behind Fig. 14 and Table 4, keyed by strategy and
// computed once per process. 1/100-scale replay: 40 machines at trace-like
// load (the full trace is 2.78M jobs on 4000 machines; everything scales
// linearly in job count).
const trace::ReplayResult& trace_replay(const std::string& strategy) {
  static const std::map<std::string, trace::ReplayResult> replays = [] {
    trace::SyntheticTraceOptions topt;
    topt.num_jobs = 2500;
    topt.horizon = 2 * 24 * 3600.0;
    topt.seed = 2018;
    const auto jobs = trace::synthetic_trace(topt);
    std::map<std::string, trace::ReplayResult> out;
    for (const char* s : {"Fuxi", "DelayStage", "random DelayStage",
                          "ascending DelayStage"}) {
      trace::ReplayOptions opt;
      opt.strategy = s;
      opt.cluster.num_workers = 40;
      opt.seed = 7;
      out.emplace(s, trace::replay(jobs, opt));
    }
    return out;
  }();
  return replays.at(strategy);
}

// One row of a parameter sweep at value `x`: mean JCT of stock Spark vs
// `strategy` over `seeds`, and the gain.
void sweep_row(TablePrinter& t, double x, const dag::JobDag& dag,
               const sim::ClusterSpec& spec, const char* strategy,
               const std::vector<std::uint64_t>& seeds) {
  const double stock = mean_jct(dag, spec, "Spark", seeds);
  const double other = mean_jct(dag, spec, strategy, seeds);
  t.add_row({fmt(x, 1), stock, other, 100.0 * (stock - other) / stock});
}

// Per workload, the mean JCT over three seeds of stock Spark, Spark with a
// task-level `mechanism`, DelayStage, and both: whether the mechanism
// composes with stage delays.
void compose_with_delays(const sim::ClusterSpec& spec, const char* label,
                         const engine::RunOptions& mechanism) {
  TablePrinter t({"workload", "stock (s)", std::string("+") + label + " (s)",
                  "+DelayStage (s)", "both (s)"});
  t.set_precision(1);
  const std::vector<std::uint64_t> seeds{42, 7, 99};
  for (const auto& wl : workloads::benchmark_suite()) {
    t.add_row({wl.name, mean_jct(wl.dag, spec, "Spark", seeds),
               mean_jct(wl.dag, spec, "Spark", seeds, mechanism),
               mean_jct(wl.dag, spec, "DelayStage", seeds),
               mean_jct(wl.dag, spec, "DelayStage", seeds, mechanism)});
  }
  t.print(std::cout);
}

// Fig. 2 — CDF of the number of stages and of parallel stages per job in
// the (synthetic) Alibaba-trace workload, plus the §2.1 headline aggregates.
void fig02() {
  std::cout << "=== Fig. 2: CDF of #stages / #parallel stages per job ===\n"
            << "Paper: 68.6% of jobs have parallel stages; parallel stages\n"
            << "are 79.1% of all stages; 90% of jobs have <15 stages.\n\n";
  const trace::TraceStats& st = alibaba_trace_stats();

  TablePrinter t({"CDF %", "# stages", "# parallel stages"});
  t.set_precision(1);
  for (double p : {10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100}) {
    t.add_row({fmt(p, 0), st.stages_per_job.percentile(p),
               st.parallel_stages_per_job.percentile(p)});
  }
  t.print(std::cout);

  std::cout << "\njobs analysed:                " << st.total_jobs
            << "\njobs with parallel stages:    "
            << fmt(100.0 * st.parallel_job_fraction(), 1)
            << " %   (paper: 68.6 %)"
            << "\nparallel share of all stages: "
            << fmt(100.0 * st.parallel_stage_fraction(), 1)
            << " %   (paper: 79.1 %)"
            << "\njobs with <15 stages:         "
            << fmt(st.stages_per_job.fraction_below(15.0), 1)
            << " %   (paper: ~90 %)\n";
}

// Fig. 3 — CDF of the proportion of the parallel-stage makespan to the job
// execution time in the trace workload.
void fig03() {
  std::cout << "=== Fig. 3: parallel-stage makespan / job execution time ===\n"
            << "Paper: >60% share for over 80% of jobs; average 82.3%.\n\n";
  const trace::TraceStats& st = alibaba_trace_stats();

  TablePrinter t({"T(parallel)/T(job) %", "CDF %"});
  t.set_precision(1);
  for (double share : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) {
    t.add_row({fmt(share, 0),
               st.parallel_makespan_share.fraction_below(share)});
  }
  t.print(std::cout);

  std::cout << "\naverage share: " << fmt(st.parallel_makespan_share.mean(), 1)
            << " %   (paper: 82.3 %)\n"
            << "jobs with share > 60%: "
            << fmt(100.0 - st.parallel_makespan_share.fraction_below(60.0), 1)
            << " %   (paper: >80 % of jobs)\n";
}

// Fig. 4 — (a) average CPU and network utilization across machines and
// (b) the utilization of one worker machine, over the 8-day trace replay
// under the stock (Fuxi) scheduler.
void fig04() {
  std::cout << "=== Fig. 4: cluster and per-machine utilization over 8 days ===\n"
            << "Paper: cluster averages fluctuate 20-50% (CPU) / 30-45% (net);\n"
            << "one machine swings 0-98%, below 10% CPU for ~39% of the time.\n\n";

  // 1/10-scale replay: 400 machines at the trace's per-machine load (the
  // full trace is 2.78M jobs on 4000 machines; the replay scales linearly).
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 100000;
  topt.seed = 2018;
  const auto jobs = trace::synthetic_trace(topt);

  trace::ReplayOptions opt;
  opt.strategy = "Fuxi";
  opt.cluster.num_workers = 400;
  opt.seed = 1;
  const trace::ReplayResult r = trace::replay(jobs, opt);

  std::cout << "--- (a) cluster averages (half-day buckets) ---\n";
  print_series("day", {"CPU %", "network %"}, {&r.cluster_cpu, &r.cluster_net},
               12 * 3600.0, 16);

  std::cout << "\n--- (b) one worker machine (half-day buckets) ---\n";
  print_series("day", {"CPU %", "network %"}, {&r.machine_cpu, &r.machine_net},
               12 * 3600.0, 16);

  const auto mc = r.machine_cpu.summarize();
  const obs::analytics::FleetUtilization f =
      obs::analytics::fleet_utilization(r);
  std::cout << "\ncluster mean CPU: " << fmt(f.cluster_cpu_pct, 1)
            << " %, mean network: " << fmt(f.cluster_net_pct, 1) << " %\n"
            << "machine CPU range: " << fmt(mc.min, 1) << "-" << fmt(mc.max, 1)
            << " %; below 10% for "
            << fmt(obs::analytics::percent_below(r.machine_cpu, 10.0), 1)
            << " % of samples (paper: 39.1 %)\n"
            << "job-allocated resources: CPU " << fmt(f.job_cpu_pct, 1)
            << " % busy / " << fmt(f.job_cpu_idle_pct, 1)
            << " % idle; network " << fmt(f.job_net_pct, 1) << " % busy / "
            << fmt(f.job_net_idle_pct, 1) << " % idle\n";
}

// Fig. 5 — CPU utilization and network throughput of one worker node while
// running the ALS job on the three-node stock Spark cluster: the resources
// alternate between saturated and idle.
void fig05() {
  std::cout << "=== Fig. 5: one worker running ALS under stock Spark ===\n"
            << "Paper: CPU and network are each either fully used or idle;\n"
            << "network idle ~58 s and CPU idle ~38 s of a 133 s job.\n\n";

  const auto dag = workloads::als();
  const auto spec = sim::ClusterSpec::three_node();
  const BenchRun run = run_workload(dag, spec, "Spark", 42);

  print_series("t (s)", {"CPU util %", "net rx MB/s"},
               {&run.worker_cpu, &run.worker_net}, 5.0, 40);

  // Idle accounting over the job's run.
  double cpu_idle = 0, net_idle = 0, n = 0;
  for (std::size_t i = 0; i < run.worker_cpu.size(); ++i) {
    if (run.worker_cpu.time(i) > run.result.jct) break;
    cpu_idle += run.worker_cpu.value(i) < 5.0;
    net_idle += run.worker_net.value(i) < 1.0;
    ++n;
  }
  std::cout << "\nJCT: " << fmt(run.result.jct, 1) << " s (paper: ~133 s)\n"
            << "CPU idle:     " << fmt(cpu_idle, 0) << " s of " << fmt(n, 0)
            << " (paper: ~38 s of 133 s)\n"
            << "network idle: " << fmt(net_idle, 0) << " s of " << fmt(n, 0)
            << " (paper: ~58 s of 133 s)\n";
}

// Fig. 6 — the motivation example: ALS under stock Spark vs with DelayStage
// postponing parallel stages. The paper's hand-tuned delays cut the JCT from
// 133 s to 104 s (27.8%) and raised network/CPU utilization by 31.3%/40.1%.
void fig06() {
  std::cout << "=== Fig. 6: ALS timeline, stock Spark vs DelayStage ===\n\n";

  const auto dag = workloads::als();
  const auto spec = sim::ClusterSpec::three_node();

  const BenchRun stock = run_workload(dag, spec, "Spark", 42);
  const BenchRun delayed = run_workload(dag, spec, "DelayStage", 42);

  print_breakdown("(a) stock Spark", dag, stock.result, stock.plan);
  std::cout << '\n';
  print_breakdown("(b) DelayStage", dag, delayed.result, delayed.plan);

  const double jct_gain =
      100.0 * (stock.result.jct - delayed.result.jct) / stock.result.jct;
  const double net_gain = 100.0 *
                          (delayed.net_summary.mean - stock.net_summary.mean) /
                          std::max(stock.net_summary.mean, 1e-9);
  const double cpu_gain = 100.0 *
                          (delayed.cpu_summary.mean - stock.cpu_summary.mean) /
                          std::max(stock.cpu_summary.mean, 1e-9);
  std::cout << "\nJCT: " << fmt(stock.result.jct, 1) << " s -> "
            << fmt(delayed.result.jct, 1) << " s  (-" << fmt(jct_gain, 1)
            << " %; paper: 133 -> 104 s, -27.8 %)\n"
            << "avg network throughput: +" << fmt(net_gain, 1)
            << " % (paper: +31.3 %)\n"
            << "avg CPU utilization:    +" << fmt(cpu_gain, 1)
            << " % (paper: +40.1 %)\n";
}

// Fig. 10 — job completion time of the four benchmark workloads under stock
// Spark, AggShuffle and DelayStage (5 runs each, mean ± std).
void fig10() {
  std::cout << "=== Fig. 10: JCT of four workloads x three strategies ===\n"
            << "Paper: DelayStage -17.5%..-41.3% vs Spark and -4.2%..-17.4%\n"
            << "vs AggShuffle; ConnectedComponents improves least.\n\n";

  const auto spec = sim::ClusterSpec::paper_prototype();
  const std::vector<std::uint64_t> seeds{42, 7, 99, 2024, 5};
  const char* strategies[] = {"Spark", "AggShuffle", "DelayStage"};

  TablePrinter t({"workload", "Spark (s)", "std", "AggShuffle (s)", "std",
                  "DelayStage (s)", "std", "vs Spark %", "vs AggShuffle %"});
  t.set_precision(1);

  for (const auto& wl : workloads::benchmark_suite()) {
    metrics::Summary sum[3];
    std::vector<double> jcts[3];
    for (int i = 0; i < 3; ++i) {
      for (std::uint64_t seed : seeds)
        jcts[i].push_back(
            run_workload(wl.dag, spec, strategies[i], seed).result.jct);
      sum[i] = metrics::summarize(jcts[i]);
    }
    t.add_row({wl.name, sum[0].mean, sum[0].stddev, sum[1].mean, sum[1].stddev,
               sum[2].mean, sum[2].stddev,
               100.0 * (sum[0].mean - sum[2].mean) / sum[0].mean,
               100.0 * (sum[1].mean - sum[2].mean) / sum[1].mean});
  }
  t.print(std::cout);
  std::cout << "\n(5 seeds per cell; 30-node prototype cluster of §5.1)\n";
}

// Fig. 11 — stage execution breakdown for CosineSimilarity and LDA under
// stock Spark, AggShuffle and DelayStage: which stages were delayed and how
// the execution-path spans shrink.
void fig11() {
  std::cout << "=== Fig. 11: stage execution time breakdown ===\n"
            << "Paper: DelayStage delays stages 1-2 of both workloads; the\n"
            << "long path shrinks 29.4% (CosineSimilarity) / 23.8% (LDA);\n"
            << "AggShuffle can lengthen LDA's homogeneous stages 1-2.\n\n";
  breakdowns(workloads::cosine_similarity(), "CosineSimilarity",
             {"Spark", "AggShuffle", "DelayStage"}, false);
  breakdowns(workloads::lda(), "LDA", {"Spark", "AggShuffle", "DelayStage"},
             false);
}

// Fig. 12 — network throughput and CPU utilization of one worker while
// running CosineSimilarity and TriangleCount, stock Spark vs DelayStage:
// DelayStage fills the idle valleys.
void fig12() {
  std::cout << "=== Fig. 12: worker utilization, Spark vs DelayStage ===\n\n";
  compare_utilization(workloads::cosine_similarity(), "CosineSimilarity", true);
  compare_utilization(workloads::triangle_count(), "TriangleCount", true);
}

// Fig. 13 — executor occupation per stage of CosineSimilarity under stock
// Spark vs DelayStage: with the slack stages delayed, stage 3 gets the
// executors (and the storage bandwidth) immediately.
void fig13() {
  std::cout << "=== Fig. 13: executor occupation by stage (CosineSimilarity) ===\n"
            << "Paper: under DelayStage, stage 3 uses the executors and\n"
            << "bandwidth alone while stages 1-2 are postponed.\n\n";
  const auto dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const char* strategy : {"Spark", "DelayStage"}) {
    obs::Observability obs = make_bench_obs();
    engine::RunOptions opt;
    opt.obs = &obs;
    const BenchRun run = run_workload(dag, spec, strategy, 42, opt);

    std::cout << "--- " << strategy << " (JCT " << fmt(run.result.jct, 1)
              << " s) — executors held per stage, 20 s buckets ---\n";
    std::vector<const metrics::TimeSeries*> series;
    std::vector<std::string> labels;
    for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
      series.push_back(&run.occupancy[static_cast<std::size_t>(s)]);
      labels.push_back(dag.stage(s).name);
    }
    print_series("t (s)", labels, series, 20.0, 36);
    print_interleaving_digest(std::cout, strategy, obs, run.result.jct);
    std::cout << '\n';
  }
}

// Table 3 — mean (std) of a worker's network throughput and CPU utilization
// for the four workloads under stock Spark and DelayStage.
void table3() {
  std::cout << "=== Table 3: worker utilization mean (std) ===\n"
            << "Paper: DelayStage raises average network throughput by\n"
            << "18.3-81.8% and CPU utilization by 7.2-28.1%, with smaller\n"
            << "standard deviations.\n\n";

  const auto spec = sim::ClusterSpec::paper_prototype();
  TablePrinter t({"workload", "Spark net MB/s", "DS net MB/s", "net gain %",
                  "Spark CPU %", "DS CPU %", "CPU gain %"});
  t.set_precision(1);

  std::ostringstream digests;  // printed after the table
  for (const auto& wl : workloads::benchmark_suite()) {
    obs::Observability stock_obs = make_bench_obs();
    obs::Observability ds_obs = make_bench_obs();
    engine::RunOptions stock_opt, ds_opt;
    stock_opt.obs = &stock_obs;
    ds_opt.obs = &ds_obs;
    const BenchRun stock = run_workload(wl.dag, spec, "Spark", 42, stock_opt);
    const BenchRun ds_run =
        run_workload(wl.dag, spec, "DelayStage", 42, ds_opt);
    auto cell = [](const metrics::Summary& s) {
      return fmt(s.mean, 1) + " (" + fmt(s.stddev, 1) + ")";
    };
    t.add_row({wl.name, cell(stock.net_summary), cell(ds_run.net_summary),
               100.0 * (ds_run.net_summary.mean - stock.net_summary.mean) /
                   std::max(stock.net_summary.mean, 1e-9),
               cell(stock.cpu_summary), cell(ds_run.cpu_summary),
               100.0 * (ds_run.cpu_summary.mean - stock.cpu_summary.mean) /
                   std::max(stock.cpu_summary.mean, 1e-9)});
    print_interleaving_digest(digests, wl.name + " / Spark", stock_obs,
                              stock.result.jct);
    print_interleaving_digest(digests, wl.name + " / DelayStage", ds_obs,
                              ds_run.result.jct);
  }
  t.print(std::cout);

  std::cout << "\n--- span-based interleaving digest (same runs) ---\n"
            << digests.str();
}

// Fig. 14 — JCT CDF of trace jobs replayed under Alibaba Fuxi and the three
// DelayStage path-order variants (descending = default, random, ascending).
void fig14() {
  std::cout << "=== Fig. 14: trace-driven JCT, Fuxi vs DelayStage variants ===\n"
            << "Paper (2.78M jobs): mean JCT 1373 s (Fuxi), 871 s (default),\n"
            << "945 s (random), 996 s (ascending): -36.6/-31.2/-27.5 %.\n\n";

  const char* strategies[] = {"Fuxi", "DelayStage", "random DelayStage",
                              "ascending DelayStage"};
  metrics::Cdf cdfs[4];
  double means[4] = {0, 0, 0, 0};
  double dedicated[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    const trace::ReplayResult& r = trace_replay(strategies[i]);
    for (const auto& j : r.jobs) cdfs[i].add(j.jct);
    means[i] = r.mean_jct();
    dedicated[i] = r.mean_dedicated();
  }

  TablePrinter t({"CDF %", "Fuxi (s)", "default DS (s)", "random DS (s)",
                  "ascending DS (s)"});
  t.set_precision(0);
  for (double p : {10, 25, 50, 75, 90, 99}) {
    t.add_row({fmt(p, 0), cdfs[0].percentile(p), cdfs[1].percentile(p),
               cdfs[2].percentile(p), cdfs[3].percentile(p)});
  }
  t.print(std::cout);

  std::cout << "\nmean dedicated time (s):";
  for (int i = 0; i < 4; ++i)
    std::cout << "  " << strategies[i] << " " << fmt(dedicated[i], 0);
  std::cout << "\nmean JCT (s):";
  for (int i = 0; i < 4; ++i) std::cout << "  " << strategies[i] << " " << fmt(means[i], 0);
  std::cout << "\nreduction vs Fuxi: default -"
            << fmt(100.0 * (means[0] - means[1]) / means[0], 1)
            << " %, random -" << fmt(100.0 * (means[0] - means[2]) / means[0], 1)
            << " %, ascending -"
            << fmt(100.0 * (means[0] - means[3]) / means[0], 1)
            << " %  (paper: -36.6 / -31.2 / -27.5 %)\n"
            << "(" << trace_replay("Fuxi").jobs.size()
            << " synthetic trace jobs; the full-trace "
            << "replay scales linearly in job count)\n";
}

// Table 4 — average CPU and network utilization of the cluster when running
// trace jobs with Fuxi and the three DelayStage variants.
void table4() {
  std::cout << "=== Table 4: trace replay utilization ===\n"
            << "Paper: CPU 36.2% (Fuxi) vs 43.4/42.2/45.4% (random/ascending/\n"
            << "default DelayStage); network 42.7% vs 49.1/48.3/53.3%.\n\n";

  TablePrinter t({"strategy", "CPU %", "network %"});
  t.set_precision(1);
  std::vector<obs::analytics::FleetUtilization> fleet;
  std::vector<std::string> names;
  for (const char* strategy : {"Fuxi", "random DelayStage",
                               "ascending DelayStage", "DelayStage"}) {
    const obs::analytics::FleetUtilization f =
        obs::analytics::fleet_utilization(trace_replay(strategy));
    t.add_row({std::string(strategy), f.job_cpu_pct, f.job_net_pct});
    fleet.push_back(f);
    names.emplace_back(strategy);
  }
  t.print(std::cout);
  std::cout << "\n--- fleet analytics (idle fractions and delay budget) ---\n";
  TablePrinter d({"strategy", "CPU idle %", "net idle %", "job CPU p50/p90 %",
                  "mean JCT (s)", "mean delay (s)"});
  d.set_precision(1);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& f = fleet[i];
    d.add_row({names[i], f.job_cpu_idle_pct, f.job_net_idle_pct,
               fmt(f.job_cpu_p50, 1) + " / " + fmt(f.job_cpu_p90, 1),
               f.mean_jct_s, f.mean_planned_delay_s});
  }
  d.print(std::cout);
}

// Fig. 16 (appendix A.1) — stage execution breakdown for ConnectedComponents
// and TriangleCount: DelayStage delays one stage of CC and several of Tri,
// shortening the longest parallel path by 28.2% / 42.0%.
void fig16() {
  std::cout << "=== Fig. 16 (appendix): CC and TriangleCount breakdowns ===\n"
            << "Paper: longest path shortened 28.2% (CC) / 42.0% (Tri).\n\n";
  breakdowns(workloads::connected_components(), "ConnectedComponents",
             {"Spark", "DelayStage"}, true);
  breakdowns(workloads::triangle_count(), "TriangleCount",
             {"Spark", "DelayStage"}, true);
}

// Fig. 17 (appendix A.3) — worker network throughput and CPU utilization
// for ConnectedComponents and LDA, stock Spark vs DelayStage.
void fig17() {
  std::cout << "=== Fig. 17 (appendix): worker utilization, CC and LDA ===\n\n";
  compare_utilization(workloads::connected_components(), "ConnectedComponents",
                      false);
  compare_utilization(workloads::lda(), "LDA", false);
}

// Appendix A.2 — prediction accuracy of the analytical performance model:
// per-stage execution time predicted by the ScheduleEvaluator vs the
// task-granular engine, under stock scheduling. The paper reports 1.6-9.1%
// error for LDA (its most homogeneous workload).
void a2() {
  std::cout << "=== Appendix A.2: stage-time prediction accuracy ===\n"
            << "Paper: 1.6-9.1% error on LDA.\n\n";

  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& wl : workloads::benchmark_suite()) {
    const BenchRun run = run_workload(wl.dag, spec, "Spark", 42);

    sim::Simulator sim_probe;
    sim::Cluster cluster(sim_probe, spec, 42);
    const core::JobProfile profile =
        core::JobProfile::from_measured(wl.dag, cluster);
    const core::Evaluation model = core::ScheduleEvaluator(profile).evaluate({});

    std::cout << "--- " << wl.name << " ---\n";
    TablePrinter t({"stage", "engine (s)", "model (s)", "error %"});
    t.set_precision(1);
    double worst = 0, sum = 0;
    for (dag::StageId s = 0; s < wl.dag.num_stages(); ++s) {
      const double eng = run.result.stages[static_cast<std::size_t>(s)].finish -
                         run.result.stages[static_cast<std::size_t>(s)].submitted;
      const double mod = model.stages[static_cast<std::size_t>(s)].finish -
                         model.stages[static_cast<std::size_t>(s)].submitted;
      const double err = 100.0 * std::abs(mod - eng) / std::max(eng, 1e-9);
      worst = std::max(worst, err);
      sum += err;
      t.add_row({wl.dag.stage(s).name, eng, mod, err});
    }
    t.print(std::cout);
    std::cout << "mean error " << fmt(sum / wl.dag.num_stages(), 1)
              << " %, worst " << fmt(worst, 1) << " %; JCT engine "
              << fmt(run.result.jct, 1) << " s vs model " << fmt(model.jct, 1)
              << " s ("
              << fmt(100.0 * std::abs(model.jct - run.result.jct) /
                         run.result.jct,
                     1)
              << " %)\n\n";
  }
}

// Ablation — path-visit order of Alg. 1 on the prototype workloads (the
// paper only compares the orders at trace scale, Fig. 14): descending should
// be the strongest, per §4.1's argument for prioritising the long path.
void path_order() {
  std::cout << "=== Ablation: Alg. 1 path order on the prototype workloads ===\n\n";
  const auto spec = sim::ClusterSpec::paper_prototype();
  const std::vector<std::uint64_t> seeds{42, 7, 99};

  TablePrinter t({"workload", "Spark (s)", "descending (s)", "random (s)",
                  "ascending (s)"});
  t.set_precision(1);
  for (const auto& wl : workloads::benchmark_suite()) {
    t.add_row({wl.name, mean_jct(wl.dag, spec, "Spark", seeds),
               mean_jct(wl.dag, spec, "DelayStage", seeds),
               mean_jct(wl.dag, spec, "random DelayStage", seeds),
               mean_jct(wl.dag, spec, "ascending DelayStage", seeds)});
  }
  t.print(std::cout);
}

// Ablation — sensitivity of DelayStage's gain to the cross-stage contention
// penalty β (DESIGN.md's documented substitution for the non-work-conserving
// behaviour of real networks). At β = 0 the fabric is ideally work-
// conserving and the gain shrinks to pure ordering effects; the default β
// reproduces the paper's gain band.
void contention() {
  std::cout << "=== Ablation: congestion penalty beta vs DelayStage gain ===\n\n";

  TablePrinter t({"beta", "Spark (s)", "DelayStage (s)", "gain %"});
  t.set_precision(1);
  const auto dag = workloads::triangle_count();
  for (double beta : {0.0, 0.3, 0.6, 1.2, 2.0}) {
    sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
    spec.congestion_penalty = beta;
    sweep_row(t, beta, dag, spec, "DelayStage", {42, 7});
  }
  t.print(std::cout);
  std::cout << "\n(TriangleCount, 30-node prototype cluster, 2 seeds)\n";
}

dag::JobDag shuffle_chain(double skew) {
  dag::JobDag j("shuffle-chain");
  dag::Stage map;
  map.name = "map";
  map.num_tasks = 40;
  map.input_bytes = 4_GB;
  map.process_rate = 2.0e6;
  map.output_bytes = 12_GB;
  map.task_skew = skew;
  dag::Stage reduce;
  reduce.name = "reduce";
  reduce.num_tasks = 40;
  reduce.input_bytes = 12_GB;
  reduce.process_rate = 12.0e6;
  reduce.output_bytes = 1_GB;
  const auto m = j.add_stage(map);
  const auto r = j.add_stage(reduce);
  j.add_edge(m, r);
  return j;
}

// Ablation — AggShuffle's dependence on intra-stage task-duration variance
// (§5.2: "the job performance improvement of AggShuffle becomes trivial when
// the stage tasks have nearly homogeneous stage partitions").
void skew() {
  std::cout << "=== Ablation: AggShuffle gain vs task skew ===\n\n";
  const auto spec = sim::ClusterSpec::paper_prototype();
  TablePrinter t({"task skew", "Spark (s)", "AggShuffle (s)", "gain %"});
  t.set_precision(1);
  for (double skew : {0.0, 0.1, 0.2, 0.4, 0.6})
    sweep_row(t, skew, shuffle_chain(skew), spec, "AggShuffle", {42, 7, 99});
  t.print(std::cout);
}

// Mean JCT of the four suite workloads arriving 120 s apart on one shared
// prototype cluster, each planned on its own by `strategy`.
double multijob_mean_jct(const std::string& strategy, std::uint64_t seed) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  const auto suite = workloads::benchmark_suite();
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, seed);

  std::vector<std::unique_ptr<engine::JobRun>> runs;
  std::vector<Seconds> submit;
  Seconds at = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    auto strat = sched::make_strategy(strategy);
    engine::RunOptions opt;
    opt.plan = strat->plan(suite[i].dag, spec);
    opt.seed = seed + i;
    runs.push_back(
        std::make_unique<engine::JobRun>(cluster, suite[i].dag, opt));
    submit.push_back(at);
    at += 120.0;  // staggered arrivals
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine::JobRun* r = runs[i].get();
    sim.schedule_at(submit[i], [r] { r->start(); });
  }
  sim.run();

  double sum = 0;
  for (std::size_t i = 0; i < runs.size(); ++i)
    sum += runs[i]->result().jct - submit[i];
  return sum / static_cast<double>(runs.size());
}

// Ablation — multi-job prototype cluster (§6: "our work can be easily
// extended to reducing the average job completion time in the multi-job
// environment"): several workloads arrive staggered on one 30-node cluster;
// each job's plan is computed independently.
void multijob() {
  std::cout << "=== Ablation: four jobs sharing the prototype cluster ===\n\n";
  TablePrinter t({"strategy", "mean JCT (s)"});
  t.set_precision(1);
  for (const char* strategy :
       {"Spark", "CriticalPathFirst", "AggShuffle", "DelayStage"}) {
    double sum = 0;
    for (std::uint64_t seed : {42ull, 7ull, 99ull})
      sum += multijob_mean_jct(strategy, seed) / 3.0;
    t.add_row({std::string(strategy), sum});
  }
  t.print(std::cout);
  std::cout << "\n(per-job DelayStage plans, staggered arrivals 120 s apart)\n";
}

struct FleetRun {
  Seconds mean_jct = 0;
  double p99_slowdown = 0;
};

// One `ds::Scheduler` fleet: `n_jobs` suite jobs (half-size datasets, in
// suite order) arriving as a Poisson stream at `rate`, each admitted with
// DelayStage planning or, without `plan_delays`, with every stage submitted
// immediately.
FleetRun run_fleet(bool plan_delays, double rate, std::size_t n_jobs,
                   std::uint64_t seed) {
  SchedulerOptions opt;
  opt.cluster = sim::ClusterSpec::paper_prototype();
  opt.seed = seed;
  opt.plan_delays = plan_delays;
  Scheduler scheduler(opt);

  const auto suite = workloads::benchmark_suite(0.5);
  const auto arrivals = service::poisson_arrivals(n_jobs, rate, seed);
  for (std::size_t i = 0; i < n_jobs; ++i)
    scheduler.submit_at(arrivals[i], suite[i % suite.size()].dag);
  scheduler.drain();

  const FleetStats fs = scheduler.fleet();
  DS_CHECK_MSG(fs.finished == n_jobs, "fleet did not finish cleanly");
  return {fs.mean_jct, fs.p99_slowdown};
}

// Ablation — the §6 multi-job claim at service level ("reducing the average
// job completion time in the multi-job environment"), run through
// ds::Scheduler so admission control, residual-capacity planning and the
// ledger all participate: DelayStage planning vs the no-delay stock
// baseline on ONE shared cluster, swept across arrival intensities. For
// each intensity the same arrival stream and workload sequence runs with
// and without planning. Each of the six fleets is an independent simulated
// world, so they run in parallel into per-index slots.
void sched_sweep() {
  constexpr std::size_t kJobs = 24;
  constexpr std::uint64_t kSeed = 42;
  struct Intensity {
    const char* name;
    double rate;  // jobs per second
  };
  // Mean inter-arrival gaps of 250 / 150 / 100 s against per-job service
  // times of ~300-800 s: from light queueing (most jobs admitted on
  // arrival) to a persistent backlog. Below this range jobs barely overlap
  // (nothing to interleave); far above it queueing waits swamp execution
  // and the rebalancer rightly strips the delays — both ends converge to
  // the baseline.
  const Intensity intensities[] = {
      {"low", 1.0 / 250.0}, {"med", 1.0 / 150.0}, {"high", 1.0 / 100.0}};
  constexpr std::size_t kIntensities = std::size(intensities);

  // Slot 2i runs intensity i with planning, slot 2i+1 without.
  std::vector<FleetRun> runs(2 * kIntensities);
  ThreadPool pool(0);
  pool.parallel_for(runs.size(), [&](std::size_t k) {
    runs[k] = run_fleet(k % 2 == 0, intensities[k / 2].rate, kJobs, kSeed);
  });

  std::cout << "=== Multi-job scheduler: DelayStage vs no-delay baseline ("
            << kJobs << " jobs/run) ===\n\n";
  TablePrinter t({"intensity", "rate (j/s)", "mean JCT ds (s)",
                  "mean JCT naive (s)", "JCT gain %", "p99 slow ds",
                  "p99 slow naive", "slow gain %"});
  t.set_precision(3);
  auto gain_pct = [](double baseline, double improved) {
    return 100.0 * (baseline - improved) / baseline;
  };
  for (std::size_t i = 0; i < kIntensities; ++i) {
    const FleetRun& with = runs[2 * i];
    const FleetRun& naive = runs[2 * i + 1];
    t.add_row({std::string(intensities[i].name), intensities[i].rate,
               with.mean_jct, naive.mean_jct,
               gain_pct(naive.mean_jct, with.mean_jct), with.p99_slowdown,
               naive.p99_slowdown,
               gain_pct(naive.p99_slowdown, with.p99_slowdown)});
  }
  t.print(std::cout);
  std::cout << "\n(identical Poisson arrivals per intensity; gains are "
               "naive → DelayStage improvements)\n";
}

// Ablation — §1's contrast: task-level Delay Scheduling (Zaharia et al.,
// locality waits) vs stage-level DelayStage, and the two combined. The
// paper argues the mechanisms are different in kind; here they compose.
void locality() {
  std::cout << "=== Ablation: task-level locality waits vs stage delays ===\n\n";
  engine::RunOptions wait;
  wait.locality_wait = 3.0;
  compose_with_delays(sim::ClusterSpec::paper_prototype(), "locality", wait);
  std::cout << "\n(locality wait 3 s, Spark's default; the paper's §1 point:\n"
               "the two delays answer different questions — where vs when)\n";
}

// Ablation — input-scale sensitivity: DelayStage's gain as the workload
// volumes scale (the `scale` parameter of every workload builder).
void scale() {
  std::cout << "=== Ablation: DelayStage gain vs input scale (TriangleCount) ===\n\n";
  const auto spec = sim::ClusterSpec::paper_prototype();
  TablePrinter t({"scale", "Spark (s)", "DelayStage (s)", "gain %"});
  t.set_precision(1);
  for (double scale : {0.5, 1.0, 2.0, 4.0})
    sweep_row(t, scale, workloads::triangle_count(scale), spec, "DelayStage",
              {42, 7});
  t.print(std::cout);
  std::cout << "\n(gains should persist across scales: the interleaving\n"
               "structure, not the absolute volume, drives the benefit)\n";
}

// Ablation — speculative execution (related work: Hopper, Spark's own
// speculation) on clusters with machine-level stragglers, and how it
// composes with DelayStage: the two attack different problems (slow
// machines vs resource interleaving).
void speculation() {
  std::cout << "=== Ablation: speculation x DelayStage on a heterogeneous "
               "cluster ===\n\n";
  sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  spec.node_speed_min = 0.25;  // machine-level stragglers
  spec.node_speed_max = 1.0;
  engine::RunOptions speculate;
  speculate.speculation = true;
  compose_with_delays(spec, "speculation", speculate);
  std::cout << "\n(worker speeds drawn from [0.25, 1.0]; speculation copies a\n"
               "task once it lags 1.5x the stage's median finished time)\n";
}

struct FaultRun {
  bool completed = false;  // finished successfully (failed/hung otherwise)
  double jct = -1;
  double wasted = 0;
  int crashes = 0;
  int fetch_failures = 0;
  int resubmissions = 0;
  int tasks_rerun = 0;
};

// One run under stochastic node crashes. It keeps its own engine loop: it
// needs the FaultInjector, and a run whose workers are all down never
// finishes, which counts as a failure.
FaultRun run_with_crashes(const dag::JobDag& dag, const sim::ClusterSpec& spec,
                          bool stage_delays, double crash_rate,
                          Seconds horizon, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, seed);
  engine::RunOptions opt;
  if (stage_delays) {
    auto s = sched::make_strategy("DelayStage");
    opt.plan = s->plan(dag, cluster);
  }
  opt.seed = seed;

  sim::FaultPlan plan;
  plan.crash_rate = crash_rate;
  plan.crash_horizon = horizon;
  plan.mean_downtime = 60.0;
  sim::FaultInjector inj(cluster, plan, seed);
  if (crash_rate > 0) opt.faults = &inj;

  engine::JobRun run(cluster, dag, opt);
  if (crash_rate > 0) inj.start();
  run.start();
  while (!run.finished() && sim.step()) {
  }

  FaultRun out;
  if (!run.finished()) return out;  // stranded (all workers down): failed
  const engine::JobResult& r = run.result();
  out.completed = !r.failed;
  out.jct = r.jct;
  out.wasted = r.wasted_seconds();
  out.crashes = r.node_crashes;
  out.fetch_failures = r.fetch_failures;
  out.resubmissions = r.resubmissions();
  out.tasks_rerun = r.tasks_rerun();
  return out;
}

// Ablation — failure-domain fault injection: stochastic node crashes (with
// recovery) swept against the scheduling strategy. Reports how much JCT
// degrades and how much work is wasted (killed attempts, invalidated map
// output, stage resubmissions) under stock Spark submission vs DelayStage
// plans. DelayStage keeps less shuffle output materialised early, but also
// compresses the job into a shorter window — this bench quantifies the net
// robustness effect. Emits a human table plus machine-readable JSON lines.
void faults() {
  std::cout << "=== Ablation: node-crash rate x scheduling strategy ===\n\n";
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  const std::vector<std::uint64_t> seeds = {42, 7, 99};
  const std::vector<double> rates = {0.0, 2e-5, 5e-5, 1e-4, 2e-4};

  TablePrinter t({"workload", "strategy", "crash rate", "runs ok", "mean jct",
                  "degrade %", "wasted s", "crashes", "resubmits"});
  t.set_precision(1);
  std::vector<std::string> json_lines;

  for (const auto& wl : workloads::benchmark_suite()) {
    for (const bool ds_plan : {false, true}) {
      const std::string strategy = ds_plan ? "DelayStage" : "Spark";
      // Healthy baseline per seed; crashes are drawn over 2x the slowest
      // healthy run so recovery tails stay inside the hazard window.
      double healthy_mean = 0, horizon = 0;
      for (const auto seed : seeds) {
        const FaultRun h =
            run_with_crashes(wl.dag, spec, ds_plan, 0.0, 0.0, seed);
        healthy_mean += h.jct / static_cast<double>(seeds.size());
        horizon = std::max(horizon, 2.0 * h.jct);
      }
      for (const double rate : rates) {
        int ok = 0, failed = 0;
        double jct_sum = 0, wasted_sum = 0;
        double crash_sum = 0, resub_sum = 0, fetch_sum = 0, rerun_sum = 0;
        for (const auto seed : seeds) {
          const FaultRun r =
              run_with_crashes(wl.dag, spec, ds_plan, rate, horizon, seed);
          if (r.completed) {
            ++ok;
            jct_sum += r.jct;
            wasted_sum += r.wasted;
          } else {
            ++failed;
          }
          crash_sum += r.crashes;
          resub_sum += r.resubmissions;
          fetch_sum += r.fetch_failures;
          rerun_sum += r.tasks_rerun;
        }
        const double mean_jct = ok > 0 ? jct_sum / ok : -1;
        const double mean_wasted = ok > 0 ? wasted_sum / ok : -1;
        const double degrade =
            ok > 0 ? 100.0 * (mean_jct - healthy_mean) / healthy_mean : -1;
        const double n = static_cast<double>(seeds.size());
        char rate_str[32];
        std::snprintf(rate_str, sizeof(rate_str), "%g", rate);
        t.add_row({wl.name, strategy, std::string(rate_str),
                   static_cast<double>(ok), mean_jct, degrade, mean_wasted,
                   crash_sum / n, resub_sum / n});
        json_lines.push_back(
            "{\"workload\":\"" + wl.name + "\",\"strategy\":\"" + strategy +
            "\",\"crash_rate\":" + std::to_string(rate) +
            ",\"runs\":" + std::to_string(seeds.size()) +
            ",\"completed\":" + std::to_string(ok) +
            ",\"failed\":" + std::to_string(failed) +
            ",\"mean_jct_s\":" + std::to_string(mean_jct) +
            ",\"jct_degradation_pct\":" + std::to_string(degrade) +
            ",\"mean_wasted_s\":" + std::to_string(mean_wasted) +
            ",\"mean_crashes\":" + std::to_string(crash_sum / n) +
            ",\"mean_fetch_failures\":" + std::to_string(fetch_sum / n) +
            ",\"mean_resubmissions\":" + std::to_string(resub_sum / n) +
            ",\"mean_tasks_rerun\":" + std::to_string(rerun_sum / n) + "}");
      }
    }
  }
  t.print(std::cout);
  std::cout << "\n(crash rate is per-worker failures/s over a horizon of 2x\n"
               "the healthy JCT; crashed nodes rejoin after an exponential\n"
               "downtime with mean 60 s and lose their shuffle output;\n"
               "'runs ok' counts seeds that completed without a terminal\n"
               "job failure)\n\n";
  std::cout << "--- JSON ---\n";
  for (const auto& line : json_lines) std::cout << line << "\n";
}

// Ablation — the drift-closed adaptive loop (DESIGN.md §11) against the
// static planner on a drift-sensitive workload. Three scenarios, three
// planning modes each:
//
//   perturbed   the planner's believed profile overstates both network
//               terms 3× (a ≥30% coefficient error); the engine runs the
//               truth. Recurrent submissions let the calibrator learn the
//               lie back out.
//   faults      the profile is accurate but a worker crashes permanently
//               early in every run; the crash snapshot triggers a
//               frozen-prefix replan on the shrunk cluster.
//   accurate    profile matches the cluster, nothing crashes. This row is
//               the identity contract: first-sight calibration is identity
//               and an armed replanner never applies, so both adaptive
//               modes must be bit-identical to static with zero replans.
//
//   static             plan once on the believed profile, reuse verbatim
//   calibrated         AdaptivePlanner plan/observe loop, replanning off
//   calibrated_replan  same loop with replanning armed
//
// All times are simulated, so the golden pins exact model outcomes.
void adaptive() {
  // Three parallel branches with sharply mixed resource profiles: the
  // DelayStage stagger between the net-heavy fetch and the cpu-heavy branch
  // is exactly the decision that drifted coefficients and lost workers
  // invalidate, so this shape separates the planning modes.
  const auto mk = [](const char* name, Bytes in, BytesPerSec rate, Bytes out) {
    dag::Stage s;
    s.name = name;
    s.num_tasks = 6;
    s.input_bytes = in;
    s.process_rate = rate;
    s.output_bytes = out;
    s.task_skew = 0.2;
    return s;
  };
  dag::JobDag dag("fan");
  dag.add_stage(mk("src", 600_MB, 60_MBps, 1.2_GB));
  dag.add_stage(mk("net-heavy", 1.2_GB, 60_MBps, 100_MB));
  dag.add_stage(mk("cpu-heavy", 300_MB, 3_MBps, 100_MB));
  dag.add_stage(mk("mid", 600_MB, 12_MBps, 100_MB));
  dag.add_stage(mk("join", 300_MB, 30_MBps, 0));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(0, 3);
  dag.add_edge(1, 4);
  dag.add_edge(2, 4);
  dag.add_edge(3, 4);
  const auto spec = sim::ClusterSpec::three_node();

  // One run of `dag` on a fresh three-node cluster; `crash` takes worker 1
  // down for good at t = 5 s.
  const auto run_once = [&](engine::RunOptions opt, bool crash) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, 7);
    sim::FaultPlan fp;
    std::unique_ptr<sim::FaultInjector> inj;
    if (crash) {
      fp.crashes.push_back({cluster.worker(1), 5.0, -1});
      inj = std::make_unique<sim::FaultInjector>(cluster, fp, opt.seed);
      opt.faults = inj.get();
      inj->start();
    }
    engine::JobRun run(cluster, dag, std::move(opt));
    run.start();
    sim.run();
    const engine::JobResult& r = run.result();
    DS_CHECK_MSG(r.complete(), "bench job failed: " + r.failure_reason);
    return r;
  };

  struct Scenario {
    const char* name;
    bool lie;          // planner believes a 3× faster network
    bool crash;        // one permanent worker crash early in every run
    int recurrences;   // accurate runs once: it measures the identity contract
  };
  const Scenario scenarios[] = {
      {"perturbed", /*lie=*/true, /*crash=*/false, /*recurrences=*/6},
      {"faults", /*lie=*/false, /*crash=*/true, /*recurrences=*/6},
      {"accurate", /*lie=*/false, /*crash=*/false, /*recurrences=*/1},
  };

  std::cout << "=== Adaptive planning ablation (fan workload) ===\n";
  TablePrinter t({"scenario", "mode", "runs", "mean JCT (s)", "gain vs static %",
                  "replans"});
  t.set_precision(2);
  for (const Scenario& sc : scenarios) {
    core::JobProfile believed = core::JobProfile::from(dag, spec);
    if (sc.lie) {
      believed.cluster.nic_bw *= 3.0;
      believed.cluster.storage_net_bw *= 3.0;
    }
    double static_jct = 0;
    for (const char* mode : {"static", "calibrated", "calibrated_replan"}) {
      const std::string_view m = mode;
      double sum = 0;
      int replans = 0;
      if (m == "static") {
        const core::DelaySchedule plan =
            core::DelayCalculator(believed).compute();
        for (int r = 0; r < sc.recurrences; ++r) {
          engine::RunOptions opt;
          opt.seed = 100 + r;
          opt.plan.delay = plan.delay;
          sum += run_once(std::move(opt), sc.crash).jct;
        }
      } else {
        core::AdaptiveOptions aopt;
        aopt.replan = m == "calibrated_replan";
        core::AdaptivePlanner planner(believed, aopt);
        for (int r = 0; r < sc.recurrences; ++r) {
          planner.plan();
          engine::RunOptions opt;
          opt.seed = 100 + r;
          planner.arm(opt);
          const engine::JobResult res = run_once(std::move(opt), sc.crash);
          sum += res.jct;
          replans += res.replans;
          planner.observe(res);
        }
      }
      const double mean_jct = sum / sc.recurrences;
      if (m == "static") static_jct = mean_jct;
      const double gain_pct = 100.0 * (static_jct - mean_jct) / static_jct;
      // The identity contract is part of the entry's own output validity.
      if (std::string_view(sc.name) == "accurate") {
        DS_CHECK_MSG(gain_pct == 0.0,
                     "accurate-profile run diverged from the static plan");
        DS_CHECK_MSG(replans == 0, "accurate-profile run applied a replan");
      }
      t.add_row({sc.name, mode, static_cast<std::int64_t>(sc.recurrences),
                 mean_jct, gain_pct, static_cast<std::int64_t>(replans)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

// The paper's §6 future-work scenario — the prototype cluster split across
// two datacenters joined by a thin WAN link. Shuffle traffic between sites
// funnels through the WAN, so stage scheduling matters even more.
void geo() {
  const sim::ClusterSpec lan = sim::ClusterSpec::paper_prototype();
  const sim::ClusterSpec two_sites = sim::ClusterSpec::geo_two_sites();
  std::cout << "30-node prototype cluster split over 2 sites, WAN "
            << two_sites.wan_bw * 8.0 / 1e6 << " Mbps\n\n";

  TablePrinter t({"workload", "LAN Spark (s)", "geo Spark (s)",
                  "geo DelayStage (s)", "geo gain %"});
  t.set_precision(1);
  for (const auto& wl : workloads::benchmark_suite()) {
    const double lan_stock = run_workload(wl.dag, lan, "Spark", 42).result.jct;
    const double geo_stock =
        run_workload(wl.dag, two_sites, "Spark", 42).result.jct;
    const double geo_ds =
        run_workload(wl.dag, two_sites, "DelayStage", 42).result.jct;
    t.add_row({wl.name, lan_stock, geo_stock, geo_ds,
               100.0 * (geo_stock - geo_ds) / geo_stock});
  }
  t.print(std::cout);
  std::cout << "\n(the planner profiles the same cluster spec it runs on;\n"
               "cross-site shuffle funnels through the WAN ports)\n";
}

struct Entry {
  const char* name;
  const char* artefact;  // what the entry reproduces
  void (*run)();
};

// Table order is the order of `bench_paper all`.
const Entry kEntries[] = {
    {"fig02", "Fig. 2: CDF of #stages / #parallel stages per job", fig02},
    {"fig03", "Fig. 3: parallel-stage makespan / job execution time", fig03},
    {"fig04", "Fig. 4: cluster and per-machine utilization over 8 days", fig04},
    {"fig05", "Fig. 5: one worker running ALS under stock Spark", fig05},
    {"fig06", "Fig. 6: ALS timeline, stock Spark vs DelayStage", fig06},
    {"fig10", "Fig. 10: JCT of four workloads x three strategies", fig10},
    {"fig11", "Fig. 11: stage breakdown, CosineSimilarity and LDA", fig11},
    {"fig12", "Fig. 12: worker utilization, Spark vs DelayStage", fig12},
    {"fig13", "Fig. 13: executor occupation by stage", fig13},
    {"table3", "Table 3: worker utilization mean (std)", table3},
    {"fig14", "Fig. 14: trace-driven JCT, Fuxi vs DelayStage variants", fig14},
    {"table4", "Table 4: trace replay utilization", table4},
    {"fig16", "Fig. 16 (A.1): stage breakdown, CC and TriangleCount", fig16},
    {"fig17", "Fig. 17 (A.3): worker utilization, CC and LDA", fig17},
    {"a2", "Appendix A.2: stage-time prediction accuracy", a2},
    {"path_order", "ablation: Alg. 1 path order", path_order},
    {"contention", "ablation: congestion penalty beta", contention},
    {"skew", "ablation: AggShuffle gain vs task skew", skew},
    {"multijob", "ablation: four jobs sharing the prototype cluster", multijob},
    {"sched", "Sec. 6: scheduler fleets, DelayStage vs no delay",
     sched_sweep},
    {"locality", "ablation: task-level locality waits vs stage delays",
     locality},
    {"scale", "ablation: DelayStage gain vs input scale", scale},
    {"speculation", "ablation: speculation x DelayStage, slow machines",
     speculation},
    {"faults", "ablation: node-crash rate x strategy", faults},
    {"adaptive", "ablation: adaptive planning under model drift", adaptive},
    {"geo", "Sec. 6: prototype cluster split over two sites", geo},
};

void print_entries(std::ostream& os) {
  os << "usage: bench_paper <entry>... | all | help\n\nentries:\n";
  for (const Entry& e : kEntries)
    os << "  " << std::left << std::setw(12) << e.name << e.artefact << '\n';
}

}  // namespace
}  // namespace ds::bench

int main(int argc, char** argv) {
  using ds::bench::Entry;
  using ds::bench::kEntries;
  std::vector<const Entry*> todo;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "help") {
      ds::bench::print_entries(std::cout);
      return 0;
    }
    const std::size_t before = todo.size();
    for (const Entry& e : kEntries)
      if (arg == "all" || arg == e.name) todo.push_back(&e);
    if (todo.size() == before) {
      std::cerr << "unknown entry '" << arg << "'\n";
      ds::bench::print_entries(std::cerr);
      return 2;
    }
  }
  if (todo.empty()) {
    ds::bench::print_entries(std::cerr);
    return 2;
  }
  for (const Entry* e : todo) e->run();
  return 0;
}
