// Speculative execution against machine-level stragglers (slow nodes).
#include <gtest/gtest.h>

#include "engine/job_run.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/units.h"

namespace ds::engine {
namespace {

using namespace ds;  // literals

// One wide compute-bound stage: perfectly even partitions, so any straggling
// comes from the machine it runs on, not the data.
dag::JobDag wide_job() {
  dag::JobDag j("wide");
  dag::Stage s;
  s.name = "crunch";
  s.num_tasks = 30;
  s.input_bytes = 1.5_GB;       // 50 MB/task: the read is cheap...
  s.process_rate = 1.25_MBps;   // ...and the compute (~40 s/task) dominates
  s.output_bytes = 50_MB;
  s.task_skew = 0.0;
  j.add_stage(s);
  return j;
}

sim::ClusterSpec heterogeneous() {
  sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  spec.node_speed_min = 0.15;  // a 7×-slow machine is a brutal straggler
  spec.node_speed_max = 1.0;
  return spec;
}

struct Outcome {
  Seconds jct;
  int speculations;
  int total_attempts;
};

Outcome run(const sim::ClusterSpec& spec, bool speculate,
            std::uint64_t seed = 42) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, seed);
  RunOptions opt;
  opt.speculation = speculate;
  opt.seed = seed;
  const dag::JobDag job = wide_job();
  JobRun jr(cluster, job, opt);
  jr.start();
  sim.run();
  // Resource hygiene: everything granted was returned.
  EXPECT_EQ(cluster.executors().total_busy(), 0);
  EXPECT_EQ(cluster.fabric().active_flows(), 0u);
  for (int n = 0; n < cluster.num_workers(); ++n)
    EXPECT_EQ(cluster.computing(n), 0);
  Outcome o{jr.result().jct, jr.speculative_attempts(), 0};
  for (const auto& t : jr.result().tasks) o.total_attempts += t.attempts;
  return o;
}

TEST(Speculation, ClusterSpeedsAreDrawnFromTheSpec) {
  sim::Simulator sim;
  sim::Cluster c(sim, heterogeneous(), 42);
  double lo = 10, hi = 0;
  for (int n = 0; n < c.num_workers(); ++n) {
    lo = std::min(lo, c.speed(n));
    hi = std::max(hi, c.speed(n));
  }
  EXPECT_GE(lo, 0.15);
  EXPECT_LE(hi, 1.0);
  EXPECT_GT(hi - lo, 0.3);  // genuine heterogeneity
  // Homogeneous default:
  sim::Simulator sim2;
  sim::Cluster h(sim2, sim::ClusterSpec::paper_prototype(), 42);
  for (int n = 0; n < h.num_workers(); ++n) EXPECT_DOUBLE_EQ(h.speed(n), 1.0);
}

TEST(Speculation, RescuesMachineLevelStragglers) {
  const auto spec = heterogeneous();
  const Outcome off = run(spec, false);
  const Outcome on = run(spec, true);
  EXPECT_GT(on.speculations, 0);
  EXPECT_LT(on.jct, off.jct);  // copies on faster nodes beat the slow ones
}

TEST(Speculation, QuietOnHomogeneousClusters) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  const Outcome off = run(spec, false);
  const Outcome on = run(spec, true);
  // Even partitions on even machines: nothing lags 1.5× the median.
  EXPECT_EQ(on.speculations, 0);
  EXPECT_DOUBLE_EQ(on.jct, off.jct);
}

TEST(Speculation, AttemptAccountingIsConsistent) {
  const Outcome on = run(heterogeneous(), true);
  // 30 primary attempts plus one per launched copy (copies that were still
  // queued when the primary won never became attempts).
  EXPECT_GE(on.total_attempts, 30);
  EXPECT_LE(on.total_attempts, 30 + on.speculations);
}

TEST(Speculation, DeterministicForSeed) {
  const Outcome a = run(heterogeneous(), true, 9);
  const Outcome b = run(heterogeneous(), true, 9);
  EXPECT_DOUBLE_EQ(a.jct, b.jct);
  EXPECT_EQ(a.speculations, b.speculations);
}

TEST(Speculation, RejectsIncompatibleModes) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::paper_prototype(), 1);
  const dag::JobDag job = wide_job();
  RunOptions agg;
  agg.speculation = true;
  agg.plan.pipelined_shuffle = true;
  EXPECT_THROW(JobRun(cluster, job, agg), CheckError);
}

TEST(Speculation, ComposesWithTaskFaults) {
  // Speculation and task-abort fault injection used to be mutually
  // exclusive; now copies and retries coexist: an aborted copy clears the
  // way for a fresh one, an aborted primary leaves the task to its copy.
  sim::Simulator sim;
  sim::Cluster cluster(sim, heterogeneous(), 42);
  RunOptions opt;
  opt.speculation = true;
  opt.task_failure_rate = 0.2;
  opt.seed = 42;
  const dag::JobDag job = wide_job();
  JobRun jr(cluster, job, opt);
  jr.start();
  sim.run();
  ASSERT_TRUE(jr.finished());
  ASSERT_FALSE(jr.result().failed);
  EXPECT_EQ(cluster.executors().total_busy(), 0);
  EXPECT_EQ(cluster.fabric().active_flows(), 0u);
  EXPECT_GT(jr.speculative_attempts(), 0);
  int retries = 0;
  for (const auto& t : jr.result().tasks) retries += t.attempts - 1;
  EXPECT_GT(retries, 0);
  EXPECT_GT(jr.result().wasted_seconds(), 0.0);
}

TEST(Speculation, SlowNodesStretchComputeWithoutSpeculation) {
  // Sanity on the speed model itself: the same job is slower on a cluster
  // whose machines are uniformly half speed.
  sim::ClusterSpec slow = sim::ClusterSpec::paper_prototype();
  slow.node_speed_min = slow.node_speed_max = 0.5;
  const Outcome fast = run(sim::ClusterSpec::paper_prototype(), false);
  const Outcome half = run(slow, false);
  EXPECT_GT(half.jct, 1.3 * fast.jct);
}

}  // namespace
}  // namespace ds::engine
