// Adaptive (calibrating) trace replay: determinism across thread counts,
// calibration convergence under injected model error, and the validated
// ReplayOptions error path (ctest label: concurrency).
#include <gtest/gtest.h>

#include <vector>

#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/check.h"

namespace ds::trace {
namespace {

std::vector<TraceJob> small_trace(int jobs) {
  SyntheticTraceOptions opt;
  opt.num_jobs = jobs;
  opt.seed = 1;
  return synthetic_trace(opt);
}

// Recurrent workloads: the same job shapes resubmitted over time, which is
// what per-signature calibration feeds on (synthetic jobs are all unique).
std::vector<TraceJob> recurrent_trace(int base, int recurrences) {
  const auto bases = small_trace(base);
  std::vector<TraceJob> out;
  for (int r = 0; r < recurrences; ++r) {
    for (TraceJob j : bases) {
      j.submit_time += r * 5000.0;
      out.push_back(std::move(j));
    }
  }
  return out;
}

ReplayOptions adaptive_options(int threads) {
  ReplayOptions opt;
  opt.strategy = "DelayStage";
  opt.adaptive = true;
  opt.perturb_network = 0.6;  // planner believes 60% of the real bandwidth
  opt.perturb_compute = 1.4;
  opt.seed = 7;
  opt.threads = threads;
  opt.coarse_candidates = 6;
  opt.evaluator_slots = 60;
  return opt;
}

TEST(AdaptiveReplay, DeterministicForAnyThreadCount) {
  const auto jobs = recurrent_trace(8, 3);
  const ReplayResult a = replay(jobs, adaptive_options(1));
  const ReplayResult b = replay(jobs, adaptive_options(8));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    // Bit-identical, not approximately equal: the adaptive pass is strictly
    // sequential in arrival order, so `threads` cannot reorder observations.
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct) << "job " << i;
    EXPECT_EQ(a.jobs[i].dedicated_time, b.jobs[i].dedicated_time);
    EXPECT_EQ(a.jobs[i].engine_jct, b.jobs[i].engine_jct);
    EXPECT_EQ(a.jobs[i].planned_delay, b.jobs[i].planned_delay);
    EXPECT_EQ(a.jobs[i].calibration.network, b.jobs[i].calibration.network);
    EXPECT_EQ(a.jobs[i].calibration.compute, b.jobs[i].calibration.compute);
    EXPECT_EQ(a.jobs[i].calibration.write, b.jobs[i].calibration.write);
  }
  EXPECT_EQ(replay(jobs, adaptive_options(1)).mean_jct(), a.mean_jct());
}

TEST(AdaptiveReplay, RunsTheEngineAndCalibrates) {
  const auto jobs = recurrent_trace(8, 3);
  const ReplayResult r = replay(jobs, adaptive_options(1));
  int with_engine = 0, with_factors = 0;
  for (const auto& j : r.jobs) {
    if (j.engine_jct > 0) ++with_engine;
    if (!j.calibration.is_identity()) ++with_factors;
  }
  // Every job gets a ground-truth engine run; recurrent workloads (the
  // synthetic trace repeats shapes) plan on non-identity factors.
  EXPECT_EQ(with_engine, static_cast<int>(r.jobs.size()));
  EXPECT_GT(with_factors, 0);
}

TEST(AdaptiveReplay, NonAdaptiveReplayIgnoresCalibrationFields) {
  const auto jobs = small_trace(12);
  ReplayOptions opt;
  opt.strategy = "DelayStage";
  opt.seed = 7;
  opt.coarse_candidates = 6;
  opt.evaluator_slots = 60;
  const ReplayResult r = replay(jobs, opt);
  for (const auto& j : r.jobs) {
    EXPECT_TRUE(j.calibration.is_identity());
    EXPECT_EQ(j.engine_jct, 0.0);
  }
}

TEST(ReplayValidation, BadOptionCombosAreExplainedNotClamped) {
  EXPECT_TRUE(validate(ReplayOptions{}).is_ok());
  {
    ReplayOptions o;
    o.machines_per_job = 0;
    const Status st = validate(o);
    ASSERT_FALSE(st.is_ok());
    EXPECT_NE(st.message().find("machines_per_job"), std::string::npos);
  }
  {
    ReplayOptions o;
    o.perturb_network = 0.0;
    EXPECT_FALSE(validate(o).is_ok());
    o.perturb_network = 1.0;
    o.perturb_compute = -2.0;
    EXPECT_FALSE(validate(o).is_ok());
  }
  {
    ReplayOptions o;
    o.evaluator_slots = 0;
    EXPECT_FALSE(validate(o).is_ok());
  }
  // replay() enforces the same contract by throwing (the CLIs catch the
  // validate() Status up front instead).
  const auto jobs = small_trace(2);
  ReplayOptions bad;
  bad.sweeps = 0;
  EXPECT_THROW(replay(jobs, bad), CheckError);
}

}  // namespace
}  // namespace ds::trace
