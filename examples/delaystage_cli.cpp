// Command-line front end: plan and simulate jobs described by spec files,
// and analyse cluster traces. Subcommands come from the registry in
// cli_flags.h.
//
//   ./delaystage_cli plan <job.spec> [--cluster prototype|three_node]
//                                    [--threads N]   # 0 = hardware concurrency
//                                    [--seed N] [--quantile Q]
//   ./delaystage_cli run  <job.spec> [--strategy Spark|AggShuffle|DelayStage|
//                                      CriticalPathFirst] [--seed N]
//                                    [--quantile Q] [--replan]
//                                    [--fail-rate P] [--max-attempts N]
//                                    [--crash NODE@T | --crash NODE@T@DOWN]
//                                    [--crash-rate R --horizon S]
//                                    [--mean-downtime S]
//   ./delaystage_cli report <job.spec> [--cluster ...] [--seed N]
//                                      [--quantile Q]
//                                      [--report-out FILE] [--strict]
//   ./delaystage_cli demo                 # print a sample spec
//   ./delaystage_cli serve [--store FILE] [--cluster ...] [--threads N]
//                          [--batch N] [--cache-shards N] [--cache-capacity N]
//                          [--quantile Q] [--flight-out FILE]
//                          [--telemetry-out FILE] [--telemetry-period S]
//   ./delaystage_cli sched [--jobs N] [--rate R] [--arrival poisson|trace]
//                          [--trace batch_task.csv] [--jobs-in FILE|-]
//                          [--policy fifo|sjf|hard-first] [--no-delay]
//                          [--max-share F] [--min-slots N] [--interference F]
//                          [--delay-budget S] [--store FILE] [--scale F]
//                          [--cluster ...] [--threads N] [--seed N]
//                          [--quantile Q] [--report-out FILE]
//                          [--fail-rate P] [--max-attempts N]
//                          [--flight-out FILE] [--telemetry-out FILE]
//                          [--telemetry-period S] [--slo RULE]...
//   ./delaystage_cli trace [batch_task.csv] [--threads N] [--seed N]
//                          [--adaptive] [--perturb-network F]
//                          [--perturb-compute F] [--report-out FILE]
//
// Daemon mode: `serve` reads newline-delimited JSON plan requests on stdin
// and answers one JSON object per line on stdout (see service/ndjson.h for
// the request schema). Responses carry "cache": "hit" | "miss". --store names
// the persistent profile store (loaded at startup, saved at EOF and on
// {"cmd":"save"}); --batch bounds how many requests are planned concurrently
// per dispatch round.
//
// Scheduler mode: `sched` runs the online multi-job service (ds::Scheduler)
// — a stream of jobs on ONE shared simulated cluster. By default --jobs N
// arrivals are drawn from a Poisson process at --rate jobs/s over the
// benchmark-suite workloads (--scale sizes their datasets); --arrival trace
// replays the inter-arrival gaps and DAGs of an Alibaba batch_task CSV
// (--rate then rescales the gaps, preserving burstiness); --jobs-in reads
// NDJSON submissions (see service/ndjson.h for the v1 schema; `-` = stdin).
// A line that does not parse, or a {"cmd": "save"}, is answered in stream
// order with serve's error row ({"v": 1, "id": …, "error": "line N: …"})
// and skipped; the stream goes on, and the exit status is then 1.
// Each finished job prints one NDJSON line on stdout; the fleet summary
// (wait, slowdown, p99 JCT, cache hit rate) goes to stderr, and
// --report-out writes it as JSON. --no-delay disables DelayStage planning
// (the ablation baseline); --policy picks the cross-job ordering. --store
// loads the profile store before the stream and saves what the stream's
// runs taught the calibrator after the drain (`serve --store` reads it).
//
// Adaptive planning: --quantile Q (0 < Q < 1) makes the planner target the
// Q-th quantile of each stage's straggler distribution instead of the
// legacy mean-ish estimate (0 = off, the bit-exact legacy model). --replan
// (run, DelayStage strategies only) arms mid-job replanning: on model drift
// or a node crash the remaining stages' delays are recomputed against the
// live cluster (see engine/replan.h for the guard constants).
//
// Observability (all commands): --trace-out FILE writes a Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev);
// --metrics-out FILE dumps the metrics registry as JSON; --prom-out FILE
// writes the same registry as a Prometheus text exposition. `plan` traces
// the planner's wall-clock phases plus the predicted stage timeline; `run`
// traces the simulated stage/task lifecycle per worker slot and the
// cluster-utilization counters.
//
// Live observability (sched, serve): --flight-out FILE arms the always-on
// flight recorder — a bounded ring of structured scheduler lifecycle events
// (submit/admit/grant/plan/run/replan/release/finish + queue depth, ledger
// occupancy, cache verdicts, chosen delays) dumped as versioned NDJSON at
// exit and automatically on job failure or invariant violation.
// --telemetry-out FILE streams periodic metric snapshots (NDJSON, one
// registry snapshot per line) every --telemetry-period seconds — simulated
// time for sched (and therefore bit-identical across --threads), wall time
// for serve. --slo p<Q>_<jct|slowdown|queue_wait|plan_latency><=X
// (repeatable, sched only) arms online DDSketch-style quantile tracking per
// priority class; each ok→violated transition emits a structured
// slo_violation flight event. A {"cmd": "stats"} line in --jobs-in answers
// with one live {"ev": "stats"} state line (see service/ndjson.h).
//
// Analytics: `report` plans with the DelayStage calculator, executes the
// schedule, and prints per-stage predicted-vs-actual residuals for the three
// model terms plus per-resource idle/overlap fractions (--strict exits
// nonzero on drift warnings). `run --report-out FILE` attaches the same
// report to any strategy's run; .csv extension selects CSV, else JSON.
//
// Trace analysis: `trace` parses an Alibaba batch_task CSV (or, with no
// file, generates the synthetic trace) and prints the §2.1 parallel-stage
// statistics plus a replay of 300 jobs comparing Fuxi with DelayStage. Its
// --seed (the replay seed) defaults to 7. --trace-out/--metrics-out capture
// the per-job planner phases and search counters of the DelayStage pass;
// --report-out writes per-strategy fleet utilization analytics (mean JCT,
// cluster/job utilization, idle fractions, per-job percentiles, planned
// delay budget) plus per-job rows. --adaptive switches the replay to the
// closed loop: jobs are planned on per-workload calibrated profiles,
// executed through the discrete-event engine, and each run's measured phase
// spans recalibrate the next recurrence. --perturb-network/--perturb-compute
// (planner believes F × the truth; 1.0 = accurate) inject model error to
// watch the calibration converge.
//
// Fault flags: --fail-rate (run, sched) aborts each task attempt with
// probability P — a job whose stage exhausts --max-attempts fails, which in
// sched also triggers a flight-recorder auto-dump;
// --crash schedules a worker crash at time T (rejoining after DOWN seconds,
// or staying down); --crash-rate draws Poisson crashes per worker over
// [0, --horizon) with exponential downtimes of mean --mean-downtime
// (negative = crashed workers never return).
//
// Spec format (see dag/serialize.h):
//   job,my-etl
//   stage,<name>,<tasks>,<input_gb>,<rate_mbps>,<output_gb>,<skew>
//   edge,<parent_index>,<child_index>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/adaptive.h"
#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "core/profile.h"
#include "core/stage_delayer.h"
#include "dag/serialize.h"
#include "engine/job_run.h"
#include "metrics/sampler.h"
#include "obs/analytics/analytics.h"
#include "obs/analytics/report.h"
#include "sched/strategy.h"
#include "service/arrivals.h"
#include "service/daemon.h"
#include "service/ndjson.h"
#include "service/scheduler.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "trace/alibaba.h"
#include "trace/replay.h"
#include "trace/stats.h"
#include "trace/synthetic.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

constexpr const char* kDemoSpec =
    "job,demo-etl\n"
    "stage,extract-a,30,6.0,2.5,2.0,0.2\n"
    "stage,extract-b,30,5.0,2.5,1.5,0.2\n"
    "stage,transform,40,10.0,4.0,4.0,0.2\n"
    "stage,join,40,4.0,2.0,1.0,0.2\n"
    "stage,report,20,4.5,3.0,0.1,0.2\n"
    "edge,2,3\n"
    "edge,0,4\n"
    "edge,1,4\n"
    "edge,3,4\n";

// --cluster NAME (default prototype); an unknown name is an error.
ds::sim::ClusterSpec cluster_flag(int argc, char** argv) {
  ds::sim::ClusterSpec spec;
  if (const ds::Status st = ds::sim::ClusterSpec::by_name(
          ds::cli::flag(argc, argv, "--cluster", "prototype"), &spec);
      !st.is_ok())
    throw std::runtime_error(st.message());
  return spec;
}

// "NODE@T" or "NODE@T@DOWNTIME" → a scheduled crash. Every field must parse
// in full, so "x@y" is an error rather than node 0 crashing at t = 0.
ds::sim::NodeCrash parse_crash(const std::string& s) {
  using ds::cli::parse_int;
  using ds::cli::parse_num;
  const auto first = s.find('@');
  const auto second =
      first == std::string::npos ? first : s.find('@', first + 1);
  ds::sim::NodeCrash c;
  long long node = -1;
  if (first == std::string::npos || !parse_int(s.substr(0, first), &node) ||
      node < 0 || node > std::numeric_limits<int>::max() ||
      !parse_num(s.substr(first + 1, second - first - 1), &c.at) ||
      (second != std::string::npos &&
       !parse_num(s.substr(second + 1), &c.downtime)))
    throw std::runtime_error("--crash wants NODE@TIME[@DOWNTIME]: " + s);
  c.node = static_cast<int>(node);
  return c;
}

// The schedule the planner predicts, rendered onto the trace's stage track
// so plan-time and run-time timelines line up in the same viewer. Consumes
// the timeline the calculator already exported — no re-evaluation.
void trace_predicted_timeline(ds::obs::Tracer* tr,
                              const ds::dag::JobDag& job,
                              const ds::core::DelaySchedule& schedule) {
  using namespace ds;
  if (tr == nullptr) return;
  tr->set_process_name(obs::kJobPid, "predicted stages");
  for (dag::StageId s = 0; s < job.num_stages(); ++s) {
    const auto& t = schedule.predicted_stages[static_cast<std::size_t>(s)];
    const char* name = tr->intern(job.stage(s).name);
    tr->set_thread_name(obs::kJobPid, s, name);
    if (t.submitted > t.ready)
      tr->complete("predicted", "delay", t.ready, t.submitted - t.ready,
                   obs::kJobPid, s, "delay_s", t.submitted - t.ready);
    tr->complete("predicted", "fetch", t.submitted, t.read_done - t.submitted,
                 obs::kJobPid, s);
    tr->complete("predicted", "compute", t.read_done,
                 t.compute_done - t.read_done, obs::kJobPid, s);
    tr->complete("predicted", "write", t.compute_done,
                 t.finish - t.compute_done, obs::kJobPid, s);
  }
}

int cmd_plan(const ds::dag::JobDag& job, const ds::sim::ClusterSpec& spec,
             const ds::cli::CommonFlags& cf, ds::cli::ObsSink& sink) {
  using namespace ds;
  const core::JobProfile profile = core::JobProfile::from(job, spec);
  core::CalculatorOptions copt;
  cf.apply(copt);
  copt.obs = sink.get();
  copt.model.quantile = cf.quantile;
  if (const Status st = core::validate(copt); !st.is_ok())
    throw std::runtime_error(st.message());
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, copt).compute();
  trace_predicted_timeline(obs::tracer(sink.get()), job, schedule);

  std::cout << "# execution paths (descending solo time)\n";
  for (const auto& p : schedule.paths) {
    std::cout << "#  ";
    for (dag::StageId s : p.stages) std::cout << job.stage(s).name << ' ';
    std::cout << '\n';
  }
  std::cout << core::to_properties(schedule.delay);
  std::cout << "# predicted makespan " << schedule.predicted_makespan
            << " s, predicted JCT " << schedule.predicted_jct << " s\n";
  return 0;
}

void print_drift(const ds::obs::analytics::DriftReport& d) {
  using namespace ds;
  std::cout << "# model drift (predicted vs executed, per Eq. 1 term)\n";
  TablePrinter t({"stage", "term", "predicted s", "actual s", "residual s",
                  "rel err %"});
  t.set_precision(2);
  for (const auto& s : d.stages) {
    const struct {
      const char* name;
      const obs::analytics::TermDrift* td;
    } terms[] = {{"network", &s.network},
                 {"compute", &s.compute},
                 {"write", &s.write},
                 {"duration", &s.duration}};
    for (const auto& [tname, td] : terms) {
      t.add_row({s.name, tname, td->predicted, td->actual, td->residual(),
                 100.0 * td->rel_error});
    }
  }
  t.print(std::cout);
  const struct {
    const char* name;
    const obs::analytics::DriftSummary* ds_;
  } sums[] = {{"network", &d.network},
              {"compute", &d.compute},
              {"write", &d.write},
              {"duration", &d.duration}};
  for (const auto& [name, s] : sums) {
    std::cout << "# " << name << " |rel err|: mean " << fmt(100.0 * s->mean, 1)
              << " %, p50 " << fmt(100.0 * s->p50, 1) << " %, p90 "
              << fmt(100.0 * s->p90, 1) << " %, max " << fmt(100.0 * s->max, 1)
              << " %\n";
  }
  for (const auto& w : d.warnings) std::cout << "WARNING: " << w << '\n';
}

void print_interleaving(const ds::obs::analytics::InterleavingReport& rep) {
  using namespace ds;
  std::cout << "# resource interleaving over " << fmt(rep.horizon, 1)
            << " s (busy fractions of the horizon)\n";
  TablePrinter t({"worker", "net busy %", "cpu busy %", "disk busy %",
                  "net idle %", "cpu idle %", "overlap %", "score %"});
  t.set_precision(1);
  auto row = [&](const std::string& label,
                 const obs::analytics::WorkerInterleaving& w) {
    t.add_row({label, 100.0 * w.network.busy_fraction,
               100.0 * w.cpu.busy_fraction, 100.0 * w.disk.busy_fraction,
               100.0 * w.network.idle_fraction, 100.0 * w.cpu.idle_fraction,
               100.0 * w.overlap_fraction, 100.0 * w.interleaving_score});
  };
  for (const auto& w : rep.workers)
    row("node " + std::to_string(w.pid - obs::kNodePidBase), w);
  row("cluster", rep.cluster);
  t.print(std::cout);
}

int cmd_run(const ds::dag::JobDag& job, const ds::sim::ClusterSpec& spec,
            const std::string& strategy_name, std::uint64_t seed,
            const ds::engine::RunOptions& base_opt, double quantile,
            bool replan, const ds::sim::FaultPlan& faults,
            const std::string& report_out, ds::cli::ObsSink& sink) {
  using namespace ds;
  const bool delaystage =
      strategy_name.find("DelayStage") != std::string::npos;
  if ((replan || quantile > 0) && !delaystage)
    throw std::runtime_error(
        "--replan/--quantile tune the DelayStage planner; strategy '" +
        strategy_name + "' does not plan delays (pick a DelayStage variant)");
  std::unique_ptr<sched::Strategy> strategy;
  if (const Status st = sched::strategy_by_name(strategy_name, &strategy);
      !st.is_ok())
    throw std::runtime_error(st.message());
  sim::Simulator sim(sink.get());
  sim::Cluster cluster(sim, spec, seed, sink.get());
  if (const Status st = sim::validate(faults, cluster); !st.is_ok())
    throw std::runtime_error(st.message());
  engine::RunOptions opt = base_opt;
  opt.seed = seed;
  opt.obs = sink.get();
  std::unique_ptr<core::AdaptivePlanner> adaptive;
  core::JobProfile measured;
  if (replan || quantile > 0) {
    // Plan through the adaptive stack: quantile-aware model (co-optimized
    // with the run's speculation policy) and, with --replan, a live
    // replanner bound to this run.
    measured = core::JobProfile::from_measured(job, cluster);
    core::AdaptiveOptions aopt;
    aopt.calculator.seed = seed;
    aopt.calculator.obs = sink.get();
    aopt.calculator.model.quantile = quantile;
    aopt.calculator = sched::co_optimized(aopt.calculator, opt);
    aopt.replan = replan;
    if (const Status st = core::validate(aopt.calculator); !st.is_ok())
      throw std::runtime_error(st.message());
    adaptive = std::make_unique<core::AdaptivePlanner>(measured, aopt);
    adaptive->plan();
    adaptive->arm(opt);
  } else {
    opt.plan = strategy->plan(job, cluster);
  }
  sim::FaultInjector injector(cluster, faults, seed);
  if (!faults.empty()) opt.faults = &injector;
  if (const Status st = engine::validate(opt); !st.is_ok())
    throw std::runtime_error(st.message());
  engine::JobRun run(cluster, job, opt);
  obs::Tracer* const tr = obs::tracer(sink.get());
  metrics::UtilizationSampler sampler(cluster);
  if (tr != nullptr) sampler.start();
  if (!faults.empty()) injector.start();
  run.start();
  while (!run.finished() && sim.step()) {
  }
  if (tr != nullptr) {
    sampler.stop();
    const auto& cpu = sampler.cluster_cpu_util();
    const auto& net = sampler.cluster_net_rx();
    for (std::size_t i = 0; i < cpu.size(); ++i)
      tr->counter("util", "cluster_cpu_pct", cpu.time(i), obs::kJobPid,
                  cpu.value(i));
    for (std::size_t i = 0; i < net.size(); ++i)
      tr->counter("util", "cluster_net_mbps", net.time(i), obs::kJobPid,
                  net.value(i));
  }

  if (!run.finished()) {
    std::cout << strategy_name
              << ": job stranded (every worker crashed for good)\n";
    return 1;
  }
  const auto& r = run.result();
  const bool any_faults = !faults.empty() || opt.task_failure_rate > 0;
  std::vector<std::string> cols = {"stage", "delay", "submitted", "read done",
                                   "finish"};
  if (any_faults) {
    cols.push_back("resubmits");
    cols.push_back("rerun");
    cols.push_back("wasted s");
  }
  TablePrinter t(cols);
  t.set_precision(1);
  for (dag::StageId s = 0; s < job.num_stages(); ++s) {
    const auto& sr = r.stages[static_cast<std::size_t>(s)];
    std::vector<TablePrinter::Cell> row = {job.stage(s).name,
                                           opt.plan.delay_for(s), sr.submitted,
                                           sr.last_read_done, sr.finish};
    if (any_faults) {
      row.push_back(static_cast<std::int64_t>(sr.resubmissions));
      row.push_back(static_cast<std::int64_t>(sr.tasks_rerun));
      row.push_back(sr.wasted_seconds);
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (r.failed) {
    std::cout << strategy_name << " job FAILED at " << fmt(r.failed_at, 1)
              << " s: " << r.failure_reason << '\n';
    return 1;
  }
  std::cout << strategy_name << " JCT: " << fmt(r.jct, 1) << " s\n";
  if (opt.replanner)
    std::cout << "replans applied: " << r.replans << '\n';
  if (any_faults) {
    std::cout << "faults: " << r.node_crashes << " node crash(es), "
              << r.fetch_failures << " fetch failure(s), " << r.resubmissions()
              << " stage resubmission(s), " << r.tasks_rerun()
              << " task(s) rerun, " << fmt(r.wasted_seconds(), 1)
              << " s wasted\n";
  }
  if (!report_out.empty() && tr != nullptr) {
    // Predicted timeline for whatever delays the strategy chose, from the
    // same analytical model the planner scans (profile-from-spec, default
    // slot width).
    const core::JobProfile profile = core::JobProfile::from(job, spec);
    const core::Evaluation ev =
        core::ScheduleEvaluator(profile, core::CalculatorOptions{}.slot)
            .evaluate(opt.plan.delay);
    obs::analytics::JobReport rep;
    rep.job = job.name();
    rep.strategy = strategy_name;
    rep.jct_s = r.jct;
    rep.predicted_makespan_s = ev.parallel_end;
    rep.drift = obs::analytics::model_drift(ev.stages, opt.plan.delay, job, r);
    rep.interleaving = obs::analytics::interleaving(*tr, r.jct);
    if (obs::analytics::write_report_file(report_out, rep))
      std::cout << "# analytics report written to " << report_out << '\n';
  }
  return 0;
}

// Plan with the DelayStage calculator, execute the schedule on the engine,
// and report model drift plus interleaving efficiency — the paper's model
// validation (Figs. 9-11) and overlap studies (Figs. 5/12) for one job.
int cmd_report(const ds::dag::JobDag& job, const ds::sim::ClusterSpec& spec,
               const ds::cli::CommonFlags& cf, const std::string& report_out,
               bool strict, ds::cli::ObsSink& sink) {
  using namespace ds;
  const core::JobProfile profile = core::JobProfile::from(job, spec);
  core::CalculatorOptions copt;
  cf.apply(copt);
  copt.obs = sink.get();
  copt.model.quantile = cf.quantile;
  if (const Status st = core::validate(copt); !st.is_ok())
    throw std::runtime_error(st.message());
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, copt).compute();
  trace_predicted_timeline(obs::tracer(sink.get()), job, schedule);

  sim::Simulator sim(sink.get());
  sim::Cluster cluster(sim, spec, cf.seed, sink.get());
  engine::RunOptions opt;
  opt.plan.delay = schedule.delay;
  opt.seed = cf.seed;
  opt.obs = sink.get();
  engine::JobRun run(cluster, job, opt);
  run.start();
  while (!run.finished() && sim.step()) {
  }
  const auto& r = run.result();
  if (!r.complete()) {
    std::cerr << "report: job did not complete\n";
    return 1;
  }

  obs::analytics::JobReport rep;
  rep.job = job.name();
  rep.strategy = "DelayStage";
  rep.jct_s = r.jct;
  rep.predicted_makespan_s = schedule.predicted_makespan;
  rep.drift = obs::analytics::model_drift(schedule.predicted_stages,
                                          schedule.delay, job, r);
  rep.interleaving =
      obs::analytics::interleaving(*obs::tracer(sink.get()), r.jct);

  std::cout << "# predicted makespan " << fmt(schedule.predicted_makespan, 1)
            << " s, executed JCT " << fmt(r.jct, 1) << " s\n";
  print_drift(rep.drift);
  print_interleaving(rep.interleaving);
  if (!report_out.empty() &&
      obs::analytics::write_report_file(report_out, rep))
    std::cout << "# analytics report written to " << report_out << '\n';
  // --strict turns drift warnings into a nonzero exit (a model-decay gate).
  return strict && !rep.drift.within_bounds() ? 3 : 0;
}

// Plan-as-a-service: NDJSON requests on stdin, responses on stdout, status
// chatter on stderr (so piped clients see clean JSON).
int cmd_serve(int argc, char** argv, const ds::sim::ClusterSpec& spec,
              const ds::cli::CommonFlags& cf, ds::cli::ObsSink& sink) {
  using namespace ds;
  service::DaemonOptions dopt;
  dopt.cluster = spec;
  dopt.threads = cf.threads;
  dopt.batch = cli::count_flag(argc, argv, "--batch", 32);
  dopt.service.store_path = cli::flag(argc, argv, "--store", "");
  dopt.service.cache.shards = cli::count_flag(argc, argv, "--cache-shards", 16);
  if (dopt.service.cache.shards > store::PlanCache::kMaxShards)
    throw std::runtime_error("--cache-shards must be at most " +
                             std::to_string(store::PlanCache::kMaxShards));
  dopt.service.cache.capacity_per_shard =
      cli::count_flag(argc, argv, "--cache-capacity", 64);
  cf.apply(dopt.service.calculator);
  dopt.service.calculator.obs = sink.get();
  dopt.service.calculator.model.quantile = cf.quantile;
  dopt.telemetry = sink.telemetry();
  dopt.telemetry_period = cf.telemetry_period;
  if (const Status st = core::validate(dopt.service.calculator); !st.is_ok())
    throw std::runtime_error(st.message());

  service::PlanDaemon daemon(dopt, sink.get());
  if (!dopt.service.store_path.empty() && !daemon.service().load_info().missing)
    std::cerr << "# profile store: " << daemon.service().load_info().records
              << " workload(s) loaded from " << dopt.service.store_path << '\n';
  const service::DaemonStats st = daemon.serve(std::cin, std::cout);
  if (const Status s = daemon.service().save(); !s.is_ok())
    std::cerr << "warning: " << s.message() << '\n';
  const store::PlanCache& cache = daemon.service().cache();
  std::cerr << "# served " << st.requests << " request(s): " << st.plans
            << " ok, " << st.errors << " error(s); cache " << cache.hits()
            << " hit(s) / " << cache.misses() << " miss(es), "
            << cache.evictions() << " eviction(s)\n";
  return 0;
}

// Online multi-job scheduling: build the arrival stream (Poisson over the
// benchmark suite, trace-driven from an Alibaba CSV, or explicit NDJSON
// submissions), feed it through ds::Scheduler, drain, and report one NDJSON
// row per job (stdout) plus fleet queueing metrics (stderr / --report-out).
int cmd_sched(int argc, char** argv, const ds::sim::ClusterSpec& spec,
              const ds::cli::CommonFlags& cf, ds::cli::ObsSink& sink) {
  using namespace ds;
  SchedulerOptions opt;
  opt.cluster = spec;
  cf.apply(opt);
  opt.obs = sink.get();
  opt.plan.calculator.model.quantile = cf.quantile;
  if (const Status st = service::parse_order_policy(
          cli::flag(argc, argv, "--policy", "fifo"), &opt.policy);
      !st.is_ok())
    throw std::runtime_error(st.message());
  opt.plan_delays = !cli::has_flag(argc, argv, "--no-delay");
  opt.plan.store_path = cli::flag(argc, argv, "--store", "");
  opt.max_share = cli::num_flag(argc, argv, "--max-share", opt.max_share);
  opt.min_slots_per_job = static_cast<int>(
      cli::int_flag(argc, argv, "--min-slots", opt.min_slots_per_job));
  opt.interference =
      cli::num_flag(argc, argv, "--interference", opt.interference);
  opt.delay_budget =
      cli::num_flag(argc, argv, "--delay-budget", opt.delay_budget);
  opt.task_failure_rate = cli::num_flag(argc, argv, "--fail-rate", 0);
  opt.max_attempts =
      static_cast<int>(cli::int_flag(argc, argv, "--max-attempts", 4));
  for (const std::string& spec_text : cf.slo) {
    obs::SloRule rule;
    if (const Status st = obs::parse_slo_rule(spec_text, &rule); !st.is_ok())
      throw std::runtime_error(st.message());
    opt.slo.push_back(rule);
  }
  opt.telemetry = sink.telemetry();
  opt.telemetry_period = cf.telemetry_period;
  if (const Status st = validate(opt); !st.is_ok())
    throw std::runtime_error(st.message());
  Scheduler sched(opt);

  const std::string jobs_in = cli::flag(argc, argv, "--jobs-in", "");
  const std::string arrival = cli::flag(argc, argv, "--arrival", "poisson");
  const std::string trace_file = cli::flag(argc, argv, "--trace", "");
  const std::size_t n = cli::count_flag(argc, argv, "--jobs", 20);
  const double rate = cli::num_flag(argc, argv, "--rate", 0.02);
  if (rate <= 0) throw std::runtime_error("--rate must be > 0");

  bool rejected = false;  // a --jobs-in line was answered with an error row
  // The "id" each --jobs-in job line carried, echoed as its row's
  // "request_id" (the row's own "id" is the scheduler's JobId).
  std::map<service::JobId, json::Value> request_ids;
  if (!jobs_in.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (jobs_in != "-") {
      file.open(jobs_in);
      if (!file) throw std::runtime_error("cannot read " + jobs_in);
      in = &file;
    }
    std::string line;
    Seconds prev = 0;  // absent arrivals ride with the previous job's
    int line_no = 0;
    while (std::getline(*in, line)) {
      ++line_no;
      if (line.empty()) continue;
      service::Request req;
      Status st = service::parse_request(line, &req);
      if (st.is_ok() && req.kind == service::Request::Kind::kSave)
        st = Status::error(
            "cmd \"save\" is a serve command (sched --jobs-in takes stats)");
      if (!st.is_ok()) {
        // Answered in stream order as serve answers it, then skipped: the
        // jobs already accepted still run.
        std::cout << service::error_response(
                         req.object.find("id"),
                         "line " + std::to_string(line_no) + ": " + st.message())
                  << '\n';
        rejected = true;
        continue;
      }
      if (req.kind == service::Request::Kind::kStats) {
        // Answer in stream order: advance past the preceding submissions'
        // arrival time, then emit one live state line.
        sched.run_until(prev);
        sched.write_stats(std::cout);
        continue;
      }
      prev = req.arrival >= 0 ? req.arrival : prev;
      const service::JobId id = sched.submit_at(prev, req.dag, req.priority);
      if (const json::Value* rid = req.object.find("id"); rid != nullptr)
        request_ids.emplace(id, *rid);
    }
  } else if (arrival == "trace" || !trace_file.empty()) {
    if (trace_file.empty())
      throw std::runtime_error("--arrival trace needs --trace batch_task.csv");
    const auto tjobs = trace::parse_batch_task_file(trace_file);
    if (tjobs.empty())
      throw std::runtime_error("no usable jobs in " + trace_file);
    const std::size_t count = std::min(n, tjobs.size());
    auto arrivals = service::trace_arrivals(tjobs, count);
    if (cli::has_flag(argc, argv, "--rate"))
      service::rescale_to_rate(arrivals, rate);
    for (std::size_t i = 0; i < count; ++i)
      sched.submit_at(arrivals[i], trace::to_job_dag(tjobs[i]));
  } else if (arrival == "poisson") {
    const double scale = cli::num_flag(argc, argv, "--scale", 1.0);
    const auto suite = workloads::benchmark_suite(scale);
    const auto arrivals = service::poisson_arrivals(n, rate, cf.seed);
    for (std::size_t i = 0; i < n; ++i)
      sched.submit_at(arrivals[i], suite[i % suite.size()].dag);
  } else {
    throw std::runtime_error("--arrival wants poisson|trace, got '" +
                             arrival + "'");
  }

  sched.drain();
  if (const Status s = sched.plans().save(); !s.is_ok())
    std::cerr << "warning: " << s.message() << '\n';

  const FleetStats fs = sched.fleet();
  for (service::JobId id = 1; id <= fs.submitted; ++id) {
    const auto rid = request_ids.find(id);
    service::write_job_status(
        std::cout, sched.poll(id),
        rid == request_ids.end() ? nullptr : &rid->second);
  }
  std::cerr << "# " << fs.finished << "/" << fs.submitted
            << " job(s) finished (" << fs.failed << " failed), policy "
            << service::to_string(opt.policy)
            << (opt.plan_delays ? "" : ", delays off") << '\n'
            << "# makespan " << fmt(fs.makespan, 1) << " s, wait mean "
            << fmt(fs.mean_wait, 1) << " s / max " << fmt(fs.max_wait, 1)
            << " s, JCT mean " << fmt(fs.mean_jct, 1) << " s / p99 "
            << fmt(fs.p99_jct, 1) << " s\n"
            << "# slowdown mean " << fmt(fs.mean_slowdown, 2) << " / p99 "
            << fmt(fs.p99_slowdown, 2) << ", peak slot occupancy "
            << fmt(100.0 * fs.peak_slot_occupancy, 1) << " %, plan cache hit "
            << fmt(100.0 * fs.plan_cache_hit_rate, 1) << " %\n";
  if (!cf.report_out.empty()) {
    std::ofstream out(cf.report_out);
    if (!out) throw std::runtime_error("cannot write " + cf.report_out);
    out << "{\n  \"v\": 1,\n  \"policy\": \""
        << service::to_string(opt.policy) << "\",\n  \"plan_delays\": "
        << (opt.plan_delays ? "true" : "false") << ",\n  \"submitted\": "
        << fs.submitted << ",\n  \"finished\": " << fs.finished
        << ",\n  \"failed\": " << fs.failed << ",\n  \"makespan_s\": "
        << fs.makespan << ",\n  \"mean_wait_s\": " << fs.mean_wait
        << ",\n  \"max_wait_s\": " << fs.max_wait << ",\n  \"mean_jct_s\": "
        << fs.mean_jct << ",\n  \"p99_jct_s\": " << fs.p99_jct
        << ",\n  \"mean_slowdown\": " << fs.mean_slowdown
        << ",\n  \"p99_slowdown\": " << fs.p99_slowdown
        << ",\n  \"peak_slot_occupancy\": " << fs.peak_slot_occupancy
        << ",\n  \"plan_cache_hit_rate\": " << fs.plan_cache_hit_rate
        << ",\n  \"mean_planned_delay_s\": " << fs.mean_planned_delay
        << "\n}\n";
    if (!out) throw std::runtime_error("failed writing " + cf.report_out);
    std::cerr << "# fleet report written to " << cf.report_out << '\n';
  }
  return fs.failed == 0 && !rejected ? 0 : 1;
}

// Trace statistics (§2.1) plus a Fuxi vs DelayStage replay of a 300-job
// sample, aggregating fleet analytics (per-job and per-strategy) as it goes.
int cmd_trace(int argc, char** argv, const ds::cli::CommonFlags& cf,
              ds::cli::ObsSink& sink) {
  using namespace ds;
  const bool adaptive = cli::has_flag(argc, argv, "--adaptive");
  const double perturb_network =
      cli::num_flag(argc, argv, "--perturb-network", 1.0);
  const double perturb_compute =
      cli::num_flag(argc, argv, "--perturb-compute", 1.0);
  const char* trace_file = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adaptive") == 0) continue;  // valueless
    if (argv[i][0] == '-') {
      ++i;  // every other flag takes a value
      continue;
    }
    trace_file = argv[i];
  }

  std::vector<trace::TraceJob> jobs;
  if (trace_file != nullptr) {
    trace::AlibabaParseStats pstats;
    jobs = trace::parse_batch_task_file(trace_file, &pstats);
    std::cout << "parsed " << pstats.rows << " rows -> " << jobs.size()
              << " usable jobs (" << pstats.dropped_jobs << " dropped, "
              << pstats.bad_rows << " malformed rows)\n\n";
  } else {
    std::cout << "no trace file given; generating a synthetic trace\n\n";
    trace::SyntheticTraceOptions opt;
    opt.num_jobs = 2000;
    opt.seed = 1;  // the generator seed is fixed; --seed varies the replay
    jobs = trace::synthetic_trace(opt);
  }
  if (jobs.empty()) {
    std::cerr << "no jobs to analyse\n";
    return 1;
  }

  const trace::TraceStats st = trace::analyze(jobs);
  std::cout << "jobs:                        " << st.total_jobs << '\n'
            << "stages:                      " << st.total_stages << '\n'
            << "jobs with parallel stages:   "
            << fmt(100.0 * st.parallel_job_fraction(), 1) << " %\n"
            << "parallel stages overall:     "
            << fmt(100.0 * st.parallel_stage_fraction(), 1) << " %\n"
            << "median stages per job:       "
            << fmt(st.stages_per_job.percentile(50), 1) << '\n';
  if (!st.parallel_makespan_share.empty()) {
    std::cout << "mean parallel makespan share: "
              << fmt(st.parallel_makespan_share.mean(), 1) << " %\n";
  }

  std::vector<trace::TraceJob> sample(
      jobs.begin(), jobs.begin() + std::min<std::size_t>(jobs.size(), 300));
  obs::analytics::FleetReport fleet;
  fleet.trace = trace_file != nullptr ? trace_file : "synthetic";
  std::vector<std::string> cols = {"strategy", "mean JCT (s)", "CPU util %",
                                   "net util %"};
  if (adaptive) cols.push_back("mean engine JCT (s)");
  TablePrinter t(cols);
  t.set_precision(1);
  for (const char* strategy : {"Fuxi", "DelayStage"}) {
    trace::ReplayOptions opt;
    opt.strategy = strategy;
    opt.cluster.num_workers = 400;
    cf.apply(opt);
    opt.obs = sink.get();
    opt.adaptive = adaptive;
    opt.perturb_network = perturb_network;
    opt.perturb_compute = perturb_compute;
    if (const Status st = trace::validate(opt); !st.is_ok())
      throw std::runtime_error(st.message());
    const trace::ReplayResult r = trace::replay(sample, opt);
    std::vector<TablePrinter::Cell> row = {std::string(strategy),
                                           r.mean_jct(), r.mean_cpu_util(),
                                           r.mean_net_util()};
    if (adaptive) {
      double engine_sum = 0;
      for (const auto& j : r.jobs) engine_sum += j.engine_jct;
      row.push_back(engine_sum / static_cast<double>(r.jobs.size()));
    }
    t.add_row(std::move(row));
    fleet.strategies.push_back(obs::analytics::fleet_strategy_report(
        strategy, r, /*keep_jobs=*/!cf.report_out.empty()));
  }
  std::cout << '\n';
  t.print(std::cout);
  if (!cf.report_out.empty() &&
      obs::analytics::write_report_file(cf.report_out, fleet))
    std::cout << "# fleet analytics report written to " << cf.report_out
              << '\n';
  return 0;
}

// ---- subcommand entry points (registry in cli_flags.h) -----------------

ds::dag::JobDag job_operand(int argc, char** argv) {
  return argc > 2 && argv[2][0] != '-'
             ? ds::dag::load_job_spec_file(argv[2])
             : ds::dag::load_job_spec_text(kDemoSpec);
}

int sub_demo(int, char**) {
  std::cout << kDemoSpec;
  return 0;
}

int sub_plan(int argc, char** argv) {
  using namespace ds;
  const auto spec = cluster_flag(argc, argv);
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv);
  cli::ObsSink sink(cf);
  const int rc = cmd_plan(job_operand(argc, argv), spec, cf, sink);
  sink.flush();
  return rc;
}

int sub_run(int argc, char** argv) {
  using namespace ds;
  const auto spec = cluster_flag(argc, argv);
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv);
  // `run --report-out` derives its analytics from engine spans, so it needs
  // a live tracer even without --trace-out.
  cli::ObsSink sink(cf, /*force_trace=*/!cf.report_out.empty());
  const std::string strategy =
      cli::flag(argc, argv, "--strategy", "DelayStage");
  engine::RunOptions opt;
  opt.task_failure_rate = cli::num_flag(argc, argv, "--fail-rate", 0);
  opt.max_attempts =
      static_cast<int>(cli::int_flag(argc, argv, "--max-attempts", 4));
  sim::FaultPlan faults;
  for (const auto& c : cli::flags(argc, argv, "--crash"))
    faults.crashes.push_back(parse_crash(c));
  faults.crash_rate = cli::num_flag(argc, argv, "--crash-rate", 0);
  faults.crash_horizon = cli::num_flag(argc, argv, "--horizon", 0);
  faults.mean_downtime = cli::num_flag(argc, argv, "--mean-downtime", -1);
  const int rc = cmd_run(job_operand(argc, argv), spec, strategy, cf.seed,
                         opt, cf.quantile,
                         cli::has_flag(argc, argv, "--replan"), faults,
                         cf.report_out, sink);
  sink.flush();
  return rc;
}

int sub_report(int argc, char** argv) {
  using namespace ds;
  const auto spec = cluster_flag(argc, argv);
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv);
  cli::ObsSink sink(cf, /*force_trace=*/true);  // analytics need spans
  const int rc = cmd_report(job_operand(argc, argv), spec, cf, cf.report_out,
                            cli::has_flag(argc, argv, "--strict"), sink);
  sink.flush();
  return rc;
}

int sub_trace(int argc, char** argv) {
  using namespace ds;
  // The replay seed defaults to 7 (the other commands use 42).
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv, 7);
  cli::ObsSink sink(cf);
  const int rc = cmd_trace(argc, argv, cf, sink);
  sink.flush();
  return rc;
}

int sub_serve(int argc, char** argv) {
  using namespace ds;
  // Daemon mode takes no job spec: jobs arrive inside the requests.
  const auto spec = cluster_flag(argc, argv);
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv);
  cli::ObsSink sink(cf);
  const int rc = cmd_serve(argc, argv, spec, cf, sink);
  sink.flush();
  return rc;
}

int sub_sched(int argc, char** argv) {
  using namespace ds;
  const auto spec = cluster_flag(argc, argv);
  const cli::CommonFlags cf = cli::parse_common_flags(argc, argv);
  // sched telemetry is part of the determinism contract (bit-identical for
  // any --threads), so wall-clock metrics (planner wall latency, tracer
  // drop counters) are excluded from the stream.
  obs::TelemetryOptions topt;
  topt.exclude_prefixes = {"planner.", "tracer."};
  cli::ObsSink sink(cf, /*force_trace=*/false, std::move(topt));
  const int rc = cmd_sched(argc, argv, spec, cf, sink);
  sink.flush();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    using namespace ds;
    return cli::dispatch(
        argc, argv,
        {{"plan", "[job.spec] [flags]",
          "compute the DelayStage schedule and print it", sub_plan},
         {"run", "[job.spec] [flags]",
          "execute one job on the simulated cluster", sub_run},
         {"report", "[job.spec] [flags]",
          "plan + execute, then print model-drift and interleaving analytics",
          sub_report},
         {"trace", "[batch_task.csv] [flags]",
          "trace statistics plus a Fuxi vs DelayStage replay", sub_trace},
         {"serve", "[flags]",
          "plan-as-a-service daemon: NDJSON requests on stdin", sub_serve},
         {"sched", "[flags]",
          "online multi-job scheduler: a job stream on one shared cluster",
          sub_sched},
         {"demo", "", "print a sample job spec", sub_demo}});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
