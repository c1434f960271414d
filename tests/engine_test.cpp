#include <gtest/gtest.h>

#include <algorithm>

#include "engine/job_run.h"
#include "metrics/sampler.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::engine {
namespace {

using namespace ds;  // literals

dag::Stage mk(const std::string& name, int tasks, Bytes in, BytesPerSec rate,
              Bytes out, double skew = 0.0) {
  dag::Stage s;
  s.name = name;
  s.num_tasks = tasks;
  s.input_bytes = in;
  s.process_rate = rate;
  s.output_bytes = out;
  s.task_skew = skew;
  return s;
}

// Two-stage chain: a source reading from HDFS feeding one shuffle stage.
dag::JobDag chain_job(double skew = 0.0) {
  dag::JobDag j("chain");
  j.add_stage(mk("map", 6, 600_MB, 10_MBps, 300_MB, skew));
  j.add_stage(mk("reduce", 6, 300_MB, 10_MBps, 50_MB, skew));
  j.add_edge(0, 1);
  return j;
}

JobResult run(const dag::JobDag& dag, RunOptions opt = {},
              sim::ClusterSpec spec = sim::ClusterSpec::three_node(),
              std::uint64_t cluster_seed = 7) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, cluster_seed);
  JobRun jr(cluster, dag, std::move(opt));
  jr.start();
  sim.run();
  EXPECT_TRUE(jr.finished());
  return jr.result();
}

TEST(JobRun, CompletesAndRecordsAllTasks) {
  const dag::JobDag j = chain_job();
  const JobResult r = run(j);
  EXPECT_GT(r.jct, 0);
  ASSERT_EQ(r.tasks.size(), 12u);
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.launch, 0);
    EXPECT_GE(t.read_done, t.launch);
    EXPECT_GE(t.compute_done, t.read_done);
    EXPECT_GE(t.finish, t.compute_done);
    EXPECT_GE(t.node, 0);
  }
}

TEST(JobRun, StageRecordsAreConsistent) {
  const dag::JobDag j = chain_job();
  const JobResult r = run(j);
  for (const auto& s : r.stages) {
    EXPECT_GE(s.submitted, s.ready);
    EXPECT_GE(s.first_launch, s.submitted);
    EXPECT_GE(s.last_read_done, s.first_launch);
    EXPECT_GE(s.finish, s.last_read_done);
  }
  EXPECT_DOUBLE_EQ(r.jct, r.stages[1].finish);
}

TEST(JobRun, ChildWaitsForParent) {
  const dag::JobDag j = chain_job();
  const JobResult r = run(j);
  EXPECT_DOUBLE_EQ(r.stages[1].ready, r.stages[0].finish);
  EXPECT_GE(r.stages[1].first_launch, r.stages[0].finish);
}

TEST(JobRun, DelayPostponesSubmissionExactly) {
  const dag::JobDag j = chain_job();
  RunOptions opt;
  opt.plan.delay = {40.0, 25.0};
  const JobResult r = run(j, opt);
  EXPECT_NEAR(r.stages[0].submitted - r.stages[0].ready, 40.0, 1e-9);
  EXPECT_NEAR(r.stages[1].submitted - r.stages[1].ready, 25.0, 1e-9);
}

TEST(JobRun, DelayOnChainShiftsJctByTheDelay) {
  const dag::JobDag j = chain_job();
  const JobResult base = run(j);
  RunOptions opt;
  opt.plan.delay = {30.0, 0.0};
  const JobResult delayed = run(j, opt);
  EXPECT_NEAR(delayed.jct, base.jct + 30.0, 1.0);
}

TEST(JobRun, HomogeneousTasksFinishTogether) {
  dag::JobDag j("homog");
  j.add_stage(mk("only", 6, 600_MB, 10_MBps, 0, /*skew=*/0.0));
  const JobResult r = run(j);
  Seconds lo = 1e18, hi = 0;
  for (const auto& t : r.tasks) {
    lo = std::min(lo, t.finish);
    hi = std::max(hi, t.finish);
  }
  EXPECT_NEAR(lo, hi, 1.0);
}

TEST(JobRun, SkewSpreadsTaskDurations) {
  dag::JobDag j("skewed");
  j.add_stage(mk("only", 6, 600_MB, 10_MBps, 0, /*skew=*/0.5));
  const JobResult r = run(j);
  Seconds lo = 1e18, hi = 0;
  for (const auto& t : r.tasks) {
    lo = std::min(lo, t.finish - t.read_done);
    hi = std::max(hi, t.finish - t.read_done);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(JobRun, SameSeedIsDeterministic) {
  const dag::JobDag j = chain_job(0.3);
  RunOptions a;
  a.seed = 5;
  RunOptions b;
  b.seed = 5;
  EXPECT_DOUBLE_EQ(run(j, a).jct, run(j, b).jct);
}

TEST(JobRun, DifferentSeedChangesSkewedRun) {
  const dag::JobDag j = chain_job(0.3);
  RunOptions a;
  a.seed = 5;
  RunOptions b;
  b.seed = 6;
  EXPECT_NE(run(j, a).jct, run(j, b).jct);
}

TEST(JobRun, SoloSourceReadGatedByStorageEgress) {
  // One single-task stage reading 100 MB from the lone storage node; no
  // compute, no write: duration ≈ volume / storage egress.
  dag::JobDag j("readonly");
  j.add_stage(mk("read", 1, 100_MB, 0, 0));
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  JobRun jr(cluster, j, {});
  jr.start();
  sim.run();
  const Seconds expected =
      100e6 / std::min(cluster.nic_bw(cluster.storage_node(0)),
                       cluster.nic_bw(jr.result().tasks[0].node));
  EXPECT_NEAR(jr.result().jct, expected, 0.5);
}

TEST(JobRun, ParallelStagesOverlapInStockPlan) {
  dag::JobDag j("par");
  j.add_stage(mk("a", 4, 400_MB, 5_MBps, 100_MB));
  j.add_stage(mk("b", 4, 400_MB, 5_MBps, 100_MB));
  const JobResult r = run(j);
  // Both submitted at t=0 and their executions overlap.
  EXPECT_DOUBLE_EQ(r.stages[0].submitted, 0.0);
  EXPECT_DOUBLE_EQ(r.stages[1].submitted, 0.0);
  EXPECT_LT(r.stages[0].first_launch, r.stages[1].finish);
  EXPECT_LT(r.stages[1].first_launch, r.stages[0].finish);
}

// A shuffle-heavy chain where AggShuffle's mechanism matters: small source
// read, long skew-spread map computes, and a large shuffle to the reducer.
dag::JobDag shuffle_heavy(double skew) {
  dag::JobDag j("shuffle-heavy");
  j.add_stage(mk("map", 6, 600_MB, 5_MBps, 3_GB, skew));
  j.add_stage(mk("reduce", 6, 3_GB, 50_MBps, 0, 0.0));
  j.add_edge(0, 1);
  return j;
}

TEST(JobRun, AggShuffleHelpsSkewedParent) {
  // Strongly skewed map stage: eager pushes overlap the stragglers' compute,
  // shortening the reduce stage's fetch.
  dag::JobDag j = shuffle_heavy(/*skew=*/0.6);
  RunOptions stock;
  stock.seed = 3;
  RunOptions agg;
  agg.seed = 3;
  agg.plan.pipelined_shuffle = true;
  const Seconds jct_stock = run(j, stock).jct;
  const Seconds jct_agg = run(j, agg).jct;
  EXPECT_LT(jct_agg, jct_stock);
}

TEST(JobRun, AggShuffleNeutralOnHomogeneousParent) {
  dag::JobDag j = shuffle_heavy(/*skew=*/0.0);
  RunOptions stock;
  RunOptions agg;
  agg.plan.pipelined_shuffle = true;
  const Seconds jct_stock = run(j, stock).jct;
  const Seconds jct_agg = run(j, agg).jct;
  // No variance to exploit: within a few percent either way.
  EXPECT_NEAR(jct_agg, jct_stock, 0.1 * jct_stock);
}

TEST(JobRun, OccupancyTracksHeldSlots) {
  dag::JobDag j = chain_job();
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  JobRun jr(cluster, j, {});
  metrics::UtilizationSampler sampler(cluster);
  const std::size_t stage0 =
      sampler.track([&jr] { return static_cast<double>(jr.slots_held(0)); });
  sampler.start();
  jr.start();
  // The sampler keeps the queue alive: step until the job finishes, then
  // stop sampling and drain.
  while (!jr.finished() && sim.step()) {
  }
  sampler.stop();
  sim.run();
  const auto& occ0 = sampler.tracked(stage0);
  ASSERT_FALSE(occ0.empty());
  double peak = 0;
  for (std::size_t i = 0; i < occ0.size(); ++i) peak = std::max(peak, occ0.value(i));
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, cluster.executors().total_slots());
}

TEST(JobRun, ResultBeforeFinishThrows) {
  dag::JobDag j = chain_job();
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  JobRun jr(cluster, j, {});
  EXPECT_THROW(jr.result(), CheckError);
  jr.start();
  EXPECT_THROW(jr.start(), CheckError);  // double start
  sim.run();
  EXPECT_NO_THROW(jr.result());
}

TEST(JobRun, BenchmarkWorkloadsCompleteOnPrototypeCluster) {
  for (const auto& wl : workloads::benchmark_suite()) {
    const JobResult r =
        run(wl.dag, {}, sim::ClusterSpec::paper_prototype(), 42);
    EXPECT_GT(r.jct, 100.0) << wl.name;
    EXPECT_LT(r.jct, 3000.0) << wl.name;
  }
}

}  // namespace
}  // namespace ds::engine
