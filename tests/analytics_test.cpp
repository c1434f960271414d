// Invariants of the derived-analytics layer: interleaving timeline algebra,
// model-drift residuals, fleet aggregation, and the pinned report schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/delay_calculator.h"
#include "core/profile.h"
#include "engine/job_run.h"
#include "obs/analytics/analytics.h"
#include "obs/analytics/report.h"
#include "obs/obs.h"
#include "sim/cluster.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/json.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

using obs::analytics::DriftReport;
using obs::analytics::InterleavingReport;
using obs::analytics::WorkerInterleaving;

obs::TraceEvent task_span(const char* name, double start_s, double end_s,
                          std::int32_t pid) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = "task";
  ev.phase = 'X';
  ev.ts_us = start_s * 1e6;
  ev.dur_us = (end_s - start_s) * 1e6;
  ev.pid = pid;
  ev.tid = 0;
  return ev;
}

void expect_timeline_invariants(const WorkerInterleaving& w, Seconds horizon) {
  for (const auto* tl : {&w.network, &w.cpu, &w.disk}) {
    EXPECT_NEAR(tl->busy_seconds + tl->idle_seconds, horizon, 1e-9);
    EXPECT_GE(tl->busy_seconds, 0.0);
    EXPECT_GE(tl->idle_seconds, -1e-9);
    EXPECT_NEAR(tl->busy_fraction + tl->idle_fraction, 1.0, 1e-12);
    // Merged timeline is disjoint and ascending.
    for (std::size_t i = 0; i + 1 < tl->busy.size(); ++i)
      EXPECT_LT(tl->busy[i].end, tl->busy[i + 1].start);
  }
  EXPECT_LE(w.net_cpu_overlap,
            std::min(w.network.busy_seconds, w.cpu.busy_seconds) + 1e-9);
  EXPECT_GE(w.net_cpu_overlap, 0.0);
  EXPECT_LE(w.interleaving_score, 1.0 + 1e-12);
}

TEST(Interleaving, HandComputedOverlapAndFractions) {
  const std::int32_t pid = obs::kNodePidBase;
  std::vector<obs::TraceEvent> events = {
      task_span("fetch", 0, 10, pid),
      task_span("compute", 5, 15, pid),
      task_span("write", 15, 16, pid),
  };
  const InterleavingReport rep =
      obs::analytics::interleaving_from_spans(events, 20.0);
  ASSERT_EQ(rep.workers.size(), 1u);
  const WorkerInterleaving& w = rep.workers[0];
  EXPECT_EQ(w.pid, pid);
  EXPECT_DOUBLE_EQ(rep.horizon, 20.0);
  EXPECT_DOUBLE_EQ(w.network.busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(w.network.idle_seconds, 10.0);
  EXPECT_DOUBLE_EQ(w.cpu.busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(w.disk.busy_seconds, 1.0);
  EXPECT_DOUBLE_EQ(w.net_cpu_overlap, 5.0);     // [5, 10)
  EXPECT_DOUBLE_EQ(w.overlap_fraction, 0.5);    // 5 / min(10, 10)
  EXPECT_DOUBLE_EQ(w.interleaving_score, 0.25); // 5 / 20
  expect_timeline_invariants(w, rep.horizon);
  expect_timeline_invariants(rep.cluster, rep.horizon);
}

TEST(Interleaving, MergesOverlapsClipsAndCountsKilledSpans) {
  const std::int32_t pid = obs::kNodePidBase + 3;
  std::vector<obs::TraceEvent> events = {
      task_span("fetch", 0, 5, pid),
      task_span("fetch (killed)", 3, 8, pid),  // overlaps → merged [0, 8)
      task_span("compute", 9, 30, pid),        // clipped at horizon 10
      task_span("unrelated", 0, 10, pid),      // unknown name → ignored
  };
  // Non-task categories and planner-track pids are ignored.
  obs::TraceEvent stage = task_span("fetch", 0, 10, obs::kJobPid);
  events.push_back(stage);
  obs::TraceEvent planner = task_span("fetch", 0, 10, obs::kPlannerPid);
  events.push_back(planner);
  obs::TraceEvent other_cat = task_span("fetch", 0, 10, pid);
  other_cat.cat = "stage";
  events.push_back(other_cat);

  const InterleavingReport rep =
      obs::analytics::interleaving_from_spans(events, 10.0);
  ASSERT_EQ(rep.workers.size(), 1u);
  const WorkerInterleaving& w = rep.workers[0];
  EXPECT_DOUBLE_EQ(w.network.busy_seconds, 8.0);
  ASSERT_EQ(w.network.busy.size(), 1u);
  EXPECT_DOUBLE_EQ(w.cpu.busy_seconds, 1.0);  // [9, 10)
  EXPECT_DOUBLE_EQ(w.disk.busy_seconds, 0.0);
  expect_timeline_invariants(w, rep.horizon);
}

TEST(Interleaving, DefaultHorizonIsLastSpanEnd) {
  std::vector<obs::TraceEvent> events = {
      task_span("fetch", 0, 4, obs::kNodePidBase),
      task_span("compute", 2, 7, obs::kNodePidBase),
  };
  const InterleavingReport rep =
      obs::analytics::interleaving_from_spans(events);
  EXPECT_DOUBLE_EQ(rep.horizon, 7.0);
}

// Synthesize an engine JobResult that executes the planner's predicted
// timeline exactly.
engine::JobResult result_from_timeline(
    const std::vector<core::StageTimeline>& stages) {
  engine::JobResult r;
  r.jct = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    engine::StageRecord rec;
    rec.stage = static_cast<dag::StageId>(i);
    rec.ready = stages[i].ready;
    rec.submitted = stages[i].submitted;
    rec.last_read_done = stages[i].read_done;
    rec.last_compute_done = stages[i].compute_done;
    rec.finish = stages[i].finish;
    r.jct = std::max(r.jct, rec.finish);
    r.stages.push_back(rec);
  }
  return r;
}

TEST(Drift, ZeroResidualsWhenActualsMatchTheModel) {
  const dag::JobDag dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, {}).compute();
  ASSERT_EQ(schedule.predicted_stages.size(),
            static_cast<std::size_t>(dag.num_stages()));

  const engine::JobResult actual =
      result_from_timeline(schedule.predicted_stages);
  const DriftReport rep = obs::analytics::model_drift(
      schedule.predicted_stages, schedule.delay, dag, actual);
  ASSERT_EQ(rep.stages.size(), actual.stages.size());
  for (const auto& s : rep.stages) {
    EXPECT_DOUBLE_EQ(s.network.residual(), 0.0);
    EXPECT_DOUBLE_EQ(s.compute.residual(), 0.0);
    EXPECT_DOUBLE_EQ(s.write.residual(), 0.0);
    EXPECT_DOUBLE_EQ(s.duration.residual(), 0.0);
    EXPECT_DOUBLE_EQ(s.duration.rel_error, 0.0);
  }
  EXPECT_DOUBLE_EQ(rep.network.max, 0.0);
  EXPECT_DOUBLE_EQ(rep.compute.max, 0.0);
  EXPECT_DOUBLE_EQ(rep.write.max, 0.0);
  EXPECT_TRUE(rep.within_bounds());
}

TEST(Drift, WarnsWhenActualsDriftPastThresholds) {
  const dag::JobDag dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, {}).compute();

  engine::JobResult actual = result_from_timeline(schedule.predicted_stages);
  // Double every stage's network phase: shifts read_done/compute_done/finish.
  for (auto& rec : actual.stages) {
    const Seconds net = rec.last_read_done - rec.submitted;
    rec.last_read_done += net;
    rec.last_compute_done += net;
    rec.finish += net;
  }
  const DriftReport rep = obs::analytics::model_drift(
      schedule.predicted_stages, schedule.delay, dag, actual);
  EXPECT_FALSE(rep.within_bounds());
  bool network_warning = false;
  for (const auto& w : rep.warnings)
    network_warning = network_warning || w.find("network term") == 0;
  EXPECT_TRUE(network_warning);
  EXPECT_GT(rep.network.p90, 0.0);
  // Compute durations were only shifted, not stretched.
  EXPECT_DOUBLE_EQ(rep.compute.max, 0.0);
}

TEST(Drift, SkipsUnfinishedStages) {
  const dag::JobDag dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, {}).compute();

  engine::JobResult actual = result_from_timeline(schedule.predicted_stages);
  actual.stages.back().finish = -1;  // never ran
  const DriftReport rep = obs::analytics::model_drift(
      schedule.predicted_stages, schedule.delay, dag, actual);
  EXPECT_EQ(rep.stages.size(), actual.stages.size() - 1);
}

TEST(PredictedStages, ExportMatchesFreshEvaluation) {
  const dag::JobDag dag = workloads::triangle_count();
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  core::CalculatorOptions copt;
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, copt).compute();

  const core::Evaluation ev =
      core::ScheduleEvaluator(profile, copt.slot).evaluate(schedule.delay);
  EXPECT_DOUBLE_EQ(schedule.predicted_makespan, ev.parallel_end);
  EXPECT_DOUBLE_EQ(schedule.predicted_jct, ev.jct);
  ASSERT_EQ(schedule.predicted_stages.size(), ev.stages.size());
  for (std::size_t i = 0; i < ev.stages.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule.predicted_stages[i].ready, ev.stages[i].ready);
    EXPECT_DOUBLE_EQ(schedule.predicted_stages[i].submitted,
                     ev.stages[i].submitted);
    EXPECT_DOUBLE_EQ(schedule.predicted_stages[i].read_done,
                     ev.stages[i].read_done);
    EXPECT_DOUBLE_EQ(schedule.predicted_stages[i].compute_done,
                     ev.stages[i].compute_done);
    EXPECT_DOUBLE_EQ(schedule.predicted_stages[i].finish,
                     ev.stages[i].finish);
  }
}

TEST(EndToEnd, EngineRunYieldsDriftAndInterleavingReports) {
  const dag::JobDag dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile, {}).compute();

  obs::TracerOptions topt;
  topt.enabled = true;
  topt.ring_capacity = std::size_t{1} << 18;
  obs::Observability o(topt);
  sim::Simulator sim(&o);
  sim::Cluster cluster(sim, spec, 42, &o);
  engine::RunOptions opt;
  opt.plan.delay = schedule.delay;
  opt.seed = 42;
  opt.obs = &o;
  engine::JobRun run(cluster, dag, opt);
  run.start();
  while (!run.finished() && sim.step()) {
  }
  const engine::JobResult& r = run.result();
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(o.tracer.dropped(), 0u);

  const DriftReport drift = obs::analytics::model_drift(
      schedule.predicted_stages, schedule.delay, dag, r);
  EXPECT_EQ(drift.stages.size(), static_cast<std::size_t>(dag.num_stages()));
  for (const auto& s : drift.stages) {
    EXPECT_GT(s.duration.actual, 0.0);
    EXPECT_GT(s.duration.predicted, 0.0);
  }

  const InterleavingReport il = obs::analytics::interleaving(o.tracer, r.jct);
  EXPECT_DOUBLE_EQ(il.horizon, r.jct);
  ASSERT_FALSE(il.workers.empty());
  for (const auto& w : il.workers) expect_timeline_invariants(w, il.horizon);
  expect_timeline_invariants(il.cluster, il.horizon);
  EXPECT_GT(il.cluster.network.busy_seconds, 0.0);
  EXPECT_GT(il.cluster.cpu.busy_seconds, 0.0);
  EXPECT_GT(il.cluster.net_cpu_overlap, 0.0);
}

TEST(Fleet, AggregationMatchesReplayResult) {
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 60;
  topt.seed = 5;
  const auto jobs = trace::synthetic_trace(topt);

  trace::ReplayOptions opt;
  opt.strategy = "DelayStage";
  opt.cluster.num_workers = 40;
  opt.seed = 7;
  const trace::ReplayResult r = trace::replay(jobs, opt);
  const obs::analytics::FleetUtilization f =
      obs::analytics::fleet_utilization(r);
  EXPECT_EQ(f.jobs, r.jobs.size());
  EXPECT_DOUBLE_EQ(f.mean_jct_s, r.mean_jct());
  EXPECT_DOUBLE_EQ(f.mean_dedicated_s, r.mean_dedicated());
  EXPECT_DOUBLE_EQ(f.cluster_cpu_pct, r.mean_cpu_util());
  EXPECT_DOUBLE_EQ(f.cluster_net_pct, r.mean_net_util());
  EXPECT_DOUBLE_EQ(f.job_cpu_pct, r.mean_job_cpu_util());
  EXPECT_DOUBLE_EQ(f.job_net_pct, r.mean_job_net_util());
  EXPECT_NEAR(f.job_cpu_pct + f.job_cpu_idle_pct, 100.0, 1e-9);
  EXPECT_GE(f.job_cpu_p90, f.job_cpu_p50);
  // The planner injected real stagger somewhere in 60 jobs.
  EXPECT_GT(f.mean_planned_delay_s, 0.0);

  trace::ReplayOptions fuxi = opt;
  fuxi.strategy = "Fuxi";
  const obs::analytics::FleetUtilization f0 =
      obs::analytics::fleet_utilization(trace::replay(jobs, fuxi));
  EXPECT_DOUBLE_EQ(f0.mean_planned_delay_s, 0.0);
}

TEST(PercentBelow, HandComputed) {
  metrics::TimeSeries s;
  EXPECT_DOUBLE_EQ(obs::analytics::percent_below(s, 10.0), 0.0);
  for (double v : {5.0, 10.0, 15.0, 3.0}) s.push(s.size(), v);
  // Strictly below: 5 and 3 of four samples.
  EXPECT_DOUBLE_EQ(obs::analytics::percent_below(s, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(obs::analytics::percent_below(s, 100.0), 100.0);
}

// --- report schema -----------------------------------------------------------

obs::analytics::JobReport tiny_report() {
  using namespace obs::analytics;
  JobReport rep;
  rep.job = "tiny";
  rep.strategy = "DelayStage";
  rep.jct_s = 20;
  rep.predicted_makespan_s = 18;

  StageDrift s;
  s.stage = 0;
  s.name = "map";
  s.delay = 2;
  s.network = {4, 5, 0.1};
  s.compute = {8, 8, 0.0};
  s.write = {1, 1, 0.0};
  s.duration = {13, 14, 0.1};
  rep.drift.stages.push_back(s);
  rep.drift.duration.count = 1;
  rep.drift.duration.mean = 0.1;

  std::vector<obs::TraceEvent> events = {
      task_span("fetch", 0, 10, obs::kNodePidBase),
      task_span("compute", 5, 15, obs::kNodePidBase),
  };
  rep.interleaving = interleaving_from_spans(events, 20.0);
  return rep;
}

void expect_balanced(const std::string& text) {
  int braces = 0, brackets = 0;
  for (char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportSchema, JobJsonHasPinnedKeysAndBalancedBraces) {
  std::ostringstream os;
  obs::analytics::write_json(os, tiny_report());
  const std::string json = os.str();
  for (const char* key :
       {"\"job\"", "\"strategy\"", "\"jct_s\"", "\"predicted_makespan_s\"",
        "\"drift\"", "\"stages\"", "\"network\"", "\"compute\"", "\"write\"",
        "\"duration\"", "\"predicted_s\"", "\"actual_s\"", "\"residual_s\"",
        "\"rel_error\"", "\"warnings\"", "\"interleaving\"", "\"horizon_s\"",
        "\"workers\"", "\"cluster\"", "\"busy_s\"", "\"idle_s\"",
        "\"busy_fraction\"", "\"idle_fraction\"", "\"overlap_s\"",
        "\"overlap_fraction\"", "\"interleaving_score\"", "\"delay_s\"",
        "\"p50\"", "\"p90\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  expect_balanced(json);
}

TEST(ReportSchema, FleetJsonHasPinnedKeysAndBalancedBraces) {
  obs::analytics::FleetReport fleet;
  fleet.trace = "synthetic";
  obs::analytics::FleetStrategyReport s;
  s.strategy = "Fuxi";
  s.util.jobs = 2;
  s.util.mean_jct_s = 10;
  s.jobs.push_back({0, 10, 8, 40, 30, 0});
  fleet.strategies.push_back(s);

  std::ostringstream os;
  obs::analytics::write_json(os, fleet);
  const std::string json = os.str();
  for (const char* key :
       {"\"trace\"", "\"strategies\"", "\"jobs\"", "\"mean_jct_s\"",
        "\"mean_dedicated_s\"", "\"cluster_cpu_pct\"", "\"job_cpu_pct\"",
        "\"job_cpu_idle_pct\"", "\"job_net_idle_pct\"", "\"job_cpu_p90\"",
        "\"mean_planned_delay_s\"", "\"jobs_detail\"", "\"planned_delay_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  expect_balanced(json);
}

TEST(ReportSchema, ControlCharactersInNamesStayValidJson) {
  obs::analytics::JobReport job = tiny_report();
  job.drift.stages[0].name = "map\tA";
  obs::analytics::FleetReport fleet;
  fleet.trace = "batch\ttask";

  std::ostringstream job_os, fleet_os;
  obs::analytics::write_json(job_os, job);
  obs::analytics::write_json(fleet_os, fleet);
  json::Value job_json, fleet_json;
  const Status job_st = json::parse(job_os.str(), &job_json);
  const Status fleet_st = json::parse(fleet_os.str(), &fleet_json);
  ASSERT_TRUE(job_st.is_ok()) << job_st.message();
  ASSERT_TRUE(fleet_st.is_ok()) << fleet_st.message();
  const json::Value& stage = job_json.find("drift")->find("stages")->array()[0];
  EXPECT_EQ(stage.find("name")->str_or(""), "map\tA");
  EXPECT_EQ(fleet_json.find("trace")->str_or(""), "batch\ttask");
}

TEST(ReportSchema, CsvSectionsAndHeaders) {
  std::ostringstream os;
  obs::analytics::write_csv(os, tiny_report());
  const std::string csv = os.str();
  EXPECT_EQ(csv.find("# drift\n"), 0u);
  EXPECT_NE(
      csv.find("job,strategy,stage,name,delay_s,term,predicted_s,actual_s,"
               "residual_s,rel_error\n"),
      std::string::npos);
  EXPECT_NE(csv.find("# interleaving\n"), std::string::npos);
  EXPECT_NE(csv.find("tiny,DelayStage,0,map,2,network,4,5,1,0.1"),
            std::string::npos);
}

TEST(ReportSchema, FilePickerUsesExtension) {
  const std::string base = ::testing::TempDir() + "analytics_report_test";
  const std::string csv_path = base + ".csv";
  const std::string json_path = base + ".json";
  ASSERT_TRUE(obs::analytics::write_report_file(csv_path, tiny_report()));
  ASSERT_TRUE(obs::analytics::write_report_file(json_path, tiny_report()));
  std::ifstream csv(csv_path), json(json_path);
  std::string csv_first, json_first;
  std::getline(csv, csv_first);
  std::getline(json, json_first);
  EXPECT_EQ(csv_first, "# drift");
  EXPECT_EQ(json_first, "{");
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace ds
