// Flight recorder, streaming telemetry and SLO tracking — the live
// observability surface:
//  * the ring keeps the newest records and counts what it overwrote;
//  * dumps are versioned NDJSON every line of which parses and carries the
//    v1 schema;
//  * the DS_CHECK failure hook and terminal job failures auto-dump the
//    trail (the crash-forensics path);
//  * SLO rules parse, track quantiles per priority class, and raise
//    structured slo_violation events exactly on ok→violated transitions;
//  * the full sched stack (flight + telemetry + SLO) is bit-identical for
//    any planner thread count — the determinism contract the CLI documents.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "dag/serialize.h"
#include "service/scheduler.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/json.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

obs::FlightRecorderOptions enabled_options() {
  obs::FlightRecorderOptions fopt;
  fopt.enabled = true;
  return fopt;
}

// A temp path that cleans up after itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  std::string slurp() const {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

 private:
  std::string path_;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

// --- ring semantics --------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderIsInert) {
  obs::FlightRecorder rec;  // default: disabled
  obs::FlightRecord r;
  r.kind = obs::FlightKind::kSubmit;
  rec.record(r);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_FALSE(rec.dump_now("nothing"));
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestRecords) {
  obs::FlightRecorder rec(enabled_options());
  constexpr std::size_t kCap = obs::kFlightCapacity;
  for (std::size_t i = 0; i < kCap + 12; ++i) {
    obs::FlightRecord r;
    r.t = static_cast<double>(i);
    r.kind = obs::FlightKind::kMark;
    r.value = static_cast<double>(i);
    rec.record(r);
  }
  EXPECT_EQ(rec.recorded(), kCap + 12);
  EXPECT_EQ(rec.dropped(), 12u);
  EXPECT_EQ(rec.size(), kCap);
  const auto trail = rec.snapshot();
  ASSERT_EQ(trail.size(), kCap);
  for (std::size_t i = 0; i < trail.size(); ++i) {
    EXPECT_DOUBLE_EQ(trail[i].value, 12.0 + static_cast<double>(i));
    EXPECT_EQ(trail[i].seq, 12u + i);  // seq survives the wrap
  }
}

TEST(FlightRecorder, InternDeduplicatesAndOutlivesCalls) {
  obs::FlightRecorder rec(enabled_options());
  const char* a = rec.intern(std::string("job-") + "7");
  const char* b = rec.intern("job-7");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "job-7");
}

// --- NDJSON schema ---------------------------------------------------------

TEST(FlightRecorder, NdjsonLinesCarryTheV1Schema) {
  obs::FlightRecorder rec(enabled_options());
  obs::FlightRecord submit;
  submit.t = 1.5;
  submit.kind = obs::FlightKind::kSubmit;
  submit.job = 3;
  submit.priority = 1;
  submit.queue_depth = 2;
  submit.occupancy = 0.25;
  submit.value = 10.0;
  rec.record(submit);
  obs::FlightRecord plan;
  plan.t = 2.0;
  plan.kind = obs::FlightKind::kPlan;
  plan.job = 3;
  plan.stage = 4;
  plan.label = rec.intern("lda");
  plan.cache = 1;
  rec.record(plan);

  std::ostringstream os;
  rec.write_ndjson(os);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);

  json::Value v;
  ASSERT_TRUE(json::parse(lines[0], &v).is_ok()) << lines[0];
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("v")->num_or(0), 1);
  EXPECT_EQ(v.find("ev")->str_or(""), "submit");
  EXPECT_EQ(v.find("job")->num_or(0), 3);
  EXPECT_EQ(v.find("priority")->num_or(-1), 1);
  EXPECT_DOUBLE_EQ(v.find("t")->num_or(0), 1.5);
  EXPECT_DOUBLE_EQ(v.find("queue_depth")->num_or(-1), 2.0);
  EXPECT_DOUBLE_EQ(v.find("occupancy")->num_or(-1), 0.25);
  EXPECT_EQ(v.find("seq")->num_or(-1), 0);

  ASSERT_TRUE(json::parse(lines[1], &v).is_ok()) << lines[1];
  EXPECT_EQ(v.find("ev")->str_or(""), "plan");
  EXPECT_EQ(v.find("stage")->num_or(-1), 4);
  EXPECT_EQ(v.find("label")->str_or(""), "lda");
  EXPECT_EQ(v.find("cache")->str_or(""), "hit");
}

TEST(FlightRecorder, EveryKindHasAStableSpelling) {
  for (int k = 0; k <= static_cast<int>(obs::FlightKind::kMark); ++k) {
    const char* s = obs::to_string(static_cast<obs::FlightKind>(k));
    ASSERT_NE(s, nullptr);
    EXPECT_GT(std::string(s).size(), 0u);
  }
  EXPECT_STREQ(obs::to_string(obs::FlightKind::kSloViolation),
               "slo_violation");
}

// --- crash / anomaly dumps -------------------------------------------------

TEST(FlightRecorder, DumpNowWritesHeaderPlusTrail) {
  TempFile out("flight_dump.ndjson");
  obs::FlightRecorderOptions fopt = enabled_options();
  fopt.dump_path = out.path();
  obs::FlightRecorder rec(fopt);
  obs::FlightRecord r;
  r.kind = obs::FlightKind::kAdmit;
  r.job = 1;
  rec.record(r);

  ASSERT_TRUE(rec.dump_now("unit-test"));
  const auto lines = lines_of(out.slurp());
  ASSERT_EQ(lines.size(), 2u);
  json::Value v;
  ASSERT_TRUE(json::parse(lines[0], &v).is_ok());
  EXPECT_EQ(v.find("ev")->str_or(""), "dump");
  EXPECT_EQ(v.find("reason")->str_or(""), "unit-test");
  EXPECT_EQ(v.find("recorded")->num_or(0), 1);
  ASSERT_TRUE(json::parse(lines[1], &v).is_ok());
  EXPECT_EQ(v.find("ev")->str_or(""), "admit");
}

TEST(FlightRecorder, CheckFailureTriggersTheCrashDump) {
  TempFile out("flight_crash.ndjson");
  obs::FlightRecorderOptions fopt = enabled_options();
  fopt.dump_path = out.path();
  obs::FlightRecorder rec(fopt);
  obs::install_crash_dump(&rec);
  obs::FlightRecord r;
  r.kind = obs::FlightKind::kGrant;
  r.job = 9;
  rec.record(r);

  EXPECT_THROW([] { DS_CHECK_MSG(false, "injected invariant violation"); }(),
               CheckError);
  obs::install_crash_dump(nullptr);

  const auto lines = lines_of(out.slurp());
  ASSERT_GE(lines.size(), 2u);
  json::Value v;
  ASSERT_TRUE(json::parse(lines[0], &v).is_ok());
  EXPECT_EQ(v.find("ev")->str_or(""), "dump");
  EXPECT_NE(v.find("reason")->str_or("").find("injected invariant"),
            std::string::npos);
}

TEST(FlightRecorder, JobFailureAutoDumpsThroughTheScheduler) {
  TempFile out("flight_fail.ndjson");
  obs::FlightRecorderOptions fopt = enabled_options();
  fopt.dump_path = out.path();
  obs::Observability obs(obs::TracerOptions{}, fopt);

  SchedulerOptions opt;
  opt.cluster = sim::ClusterSpec::paper_prototype();
  opt.cluster.num_workers = 6;
  opt.seed = 7;
  opt.obs = &obs;
  opt.task_failure_rate = 0.9;  // virtually guarantees exhausted attempts
  opt.max_attempts = 2;
  Scheduler sched(opt);
  sched.submit(workloads::lda(0.25));
  sched.drain();

  const FleetStats fs = sched.fleet();
  ASSERT_EQ(fs.failed, 1u) << "fault injection should fail the job";
  const auto lines = lines_of(out.slurp());
  ASSERT_GE(lines.size(), 2u);
  json::Value v;
  ASSERT_TRUE(json::parse(lines[0], &v).is_ok());
  EXPECT_EQ(v.find("ev")->str_or(""), "dump");
  EXPECT_NE(v.find("reason")->str_or("").find("job_failed"),
            std::string::npos);
  // The trail must contain the terminal fail event itself.
  bool saw_fail = false;
  for (const auto& line : lines) {
    ASSERT_TRUE(json::parse(line, &v).is_ok()) << line;
    if (v.find("ev")->str_or("") == "fail") saw_fail = true;
  }
  EXPECT_TRUE(saw_fail);
}

// --- SLO rules -------------------------------------------------------------

TEST(SloRules, ParseAcceptsTheDocumentedGrammar) {
  obs::SloRule r;
  ASSERT_TRUE(obs::parse_slo_rule("p99_slowdown<=2.5", &r).is_ok());
  EXPECT_EQ(r.metric, obs::SloMetric::kSlowdown);
  EXPECT_DOUBLE_EQ(r.quantile, 0.99);
  EXPECT_DOUBLE_EQ(r.threshold, 2.5);
  EXPECT_EQ(r.spec, "p99_slowdown<=2.5");

  ASSERT_TRUE(obs::parse_slo_rule("p50_jct<=120", &r).is_ok());
  EXPECT_EQ(r.metric, obs::SloMetric::kJct);
  EXPECT_DOUBLE_EQ(r.quantile, 0.50);

  ASSERT_TRUE(obs::parse_slo_rule("p99.9_queue_wait<=30", &r).is_ok());
  EXPECT_EQ(r.metric, obs::SloMetric::kQueueWait);
  EXPECT_NEAR(r.quantile, 0.999, 1e-12);

  ASSERT_TRUE(obs::parse_slo_rule("p90_plan_latency<=0.5", &r).is_ok());
  EXPECT_EQ(r.metric, obs::SloMetric::kPlanLatency);

  for (const char* bad :
       {"", "p99_slowdown", "p99_slowdown<=", "p0_jct<=1", "p100_jct<=1",
        "q99_jct<=1", "p99_widgets<=1", "p99_jct<=-4", "p99_jct<=nope"}) {
    EXPECT_FALSE(obs::parse_slo_rule(bad, &r).is_ok()) << bad;
  }
}

TEST(SloTracker, ViolationFiresOnceOnTheTransition) {
  obs::FlightRecorder rec(enabled_options());
  obs::Observability obs;
  obs::SloOptions sopt;
  obs::SloRule rule;
  ASSERT_TRUE(obs::parse_slo_rule("p50_jct<=10", &rule).is_ok());
  sopt.rules.push_back(rule);
  obs::SloTracker tracker(sopt, &obs, &rec);

  tracker.observe_finish(/*priority=*/0, /*jct=*/5.0, /*slowdown=*/1.0);
  tracker.evaluate(1.0);
  EXPECT_FALSE(tracker.violated(0));
  EXPECT_EQ(tracker.violations(), 0u);

  // Push the median over the threshold: three slow completions.
  for (int i = 0; i < 3; ++i)
    tracker.observe_finish(0, 100.0, 10.0);
  tracker.evaluate(2.0);
  EXPECT_TRUE(tracker.violated(0));
  EXPECT_EQ(tracker.violations(), 1u);
  tracker.evaluate(3.0);  // still violated: no second event
  EXPECT_EQ(tracker.violations(), 1u);
  EXPECT_EQ(obs.metrics.counter("slo.violations").value(), 1u);
  EXPECT_GT(obs.metrics.gauge("slo.p50_jct<=10").value(), 10.0);

  const auto trail = rec.snapshot();
  int slo_events = 0;
  for (const auto& r : trail)
    if (r.kind == obs::FlightKind::kSloViolation) {
      ++slo_events;
      EXPECT_GT(r.value, 10.0);
      EXPECT_DOUBLE_EQ(r.aux, 10.0);
      EXPECT_STREQ(r.label, "p50_jct<=10");
    }
  EXPECT_EQ(slo_events, 1);

  std::ostringstream os;
  tracker.write_ndjson(os, 3.0);
  json::Value v;
  ASSERT_TRUE(json::parse(os.str(), &v).is_ok()) << os.str();
  EXPECT_EQ(v.find("ev")->str_or(""), "slo");
  EXPECT_EQ(v.find("violations")->num_or(0), 1);
}

TEST(SloTracker, SketchesMergeAcrossPriorityClasses) {
  obs::SloOptions sopt;  // no rules: tracker still answers queries
  obs::SloTracker tracker(sopt, nullptr, nullptr);
  tracker.observe_finish(0, 10.0, 1.0);
  tracker.observe_finish(1, 20.0, 2.0);
  tracker.observe_finish(2, 30.0, 3.0);
  const obs::QuantileSketch jct = tracker.merged(obs::SloMetric::kJct);
  EXPECT_EQ(jct.count(), 3u);
  EXPECT_DOUBLE_EQ(jct.min(), 10.0);
  EXPECT_DOUBLE_EQ(jct.max(), 30.0);
}

// --- full-stack determinism ------------------------------------------------

struct ObsOutputs {
  std::string flight;
  std::string telemetry;
  std::string stats;
};

// The whole live-observability surface for one fleet run: flight trail,
// telemetry stream (wall-clock prefixes excluded, like the sched CLI), and
// the stats line.
ObsOutputs run_fleet_with_obs(int threads) {
  obs::Observability obs(obs::TracerOptions{}, enabled_options());
  std::ostringstream telemetry_out;
  obs::TelemetryOptions topt;
  topt.exclude_prefixes = {"planner.", "tracer."};
  obs::TelemetrySink telemetry(telemetry_out, topt);

  SchedulerOptions opt;
  opt.cluster = sim::ClusterSpec::paper_prototype();
  opt.cluster.num_workers = 6;
  opt.seed = 7;
  opt.threads = threads;
  opt.obs = &obs;
  opt.telemetry = &telemetry;
  opt.telemetry_period = 25.0;
  obs::SloRule rule;
  DS_CHECK(obs::parse_slo_rule("p99_slowdown<=1.5", &rule).is_ok());
  opt.slo.push_back(rule);
  Scheduler sched(opt);

  const auto suite = workloads::benchmark_suite(0.25);
  for (std::size_t i = 0; i < 6; ++i)
    sched.submit_at(30.0 * static_cast<double>(i), suite[i % suite.size()].dag,
                    static_cast<int>(i % 2));
  sched.drain();

  ObsOutputs out;
  std::ostringstream flight_os;
  obs.flight.write_ndjson(flight_os);
  out.flight = flight_os.str();
  out.telemetry = telemetry_out.str();
  std::ostringstream stats_os;
  sched.write_stats(stats_os);
  out.stats = stats_os.str();
  return out;
}

TEST(ObsDeterminism, FlightTelemetryAndStatsAreBitIdenticalAcrossThreads) {
  const ObsOutputs ref = run_fleet_with_obs(1);
  EXPECT_FALSE(ref.flight.empty());
  EXPECT_FALSE(ref.telemetry.empty());
  // Every line of every stream parses as v1 NDJSON.
  json::Value v;
  for (const auto& line : lines_of(ref.flight + ref.telemetry + ref.stats)) {
    ASSERT_TRUE(json::parse(line, &v).is_ok()) << line;
    EXPECT_EQ(v.find("v")->num_or(0), 1) << line;
  }
  for (const int threads : {2, 8}) {
    const ObsOutputs alt = run_fleet_with_obs(threads);
    EXPECT_EQ(ref.flight, alt.flight) << "threads=" << threads;
    EXPECT_EQ(ref.telemetry, alt.telemetry) << "threads=" << threads;
    EXPECT_EQ(ref.stats, alt.stats) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ds
