#include <gtest/gtest.h>

#include "engine/job_run.h"
#include "sched/strategy.h"
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

dag::JobDag chain_job() {
  dag::JobDag j("chain");
  j.add_stage(mk("map", 6, 600_MB, 10_MBps, 300_MB));
  j.add_stage(mk("reduce", 6, 300_MB, 10_MBps, 50_MB));
  j.add_edge(0, 1);
  return j;
}

JobResult run(const dag::JobDag& dag, RunOptions opt = {},
              sim::ClusterSpec spec = sim::ClusterSpec::three_node()) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, 7);
  JobRun jr(cluster, dag, std::move(opt));
  jr.start();
  sim.run();
  EXPECT_TRUE(jr.finished());
  return jr.result();
}

// ---------- fault injection ----------

TEST(FaultInjection, NoFailuresMeansSingleAttempts) {
  const JobResult r = run(chain_job());
  for (const auto& t : r.tasks) EXPECT_EQ(t.attempts, 1);
}

TEST(FaultInjection, FailuresRetryAndStillComplete) {
  RunOptions opt;
  opt.task_failure_rate = 0.5;
  opt.seed = 3;
  const JobResult r = run(chain_job(), opt);
  int retries = 0;
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.attempts, 1);
    EXPECT_LE(t.attempts, opt.max_attempts);
    EXPECT_GE(t.finish, t.read_done);
    retries += t.attempts - 1;
  }
  EXPECT_GT(retries, 0);  // at 50% failure rate some task must have retried
}

TEST(FaultInjection, FailuresProlongTheJob) {
  RunOptions healthy;
  healthy.seed = 3;
  RunOptions faulty;
  faulty.seed = 3;
  faulty.task_failure_rate = 0.3;
  const JobResult r = run(chain_job(), faulty);
  ASSERT_FALSE(r.failed);  // this seed's aborts stay under max_attempts
  EXPECT_GT(r.jct, run(chain_job(), healthy).jct);
  EXPECT_GT(r.wasted_seconds(), 0.0);  // aborted attempts burned real time
}

TEST(FaultInjection, ExhaustedAttemptsFailTheJobTerminally) {
  // No "final attempt always succeeds" fiction: a task whose attempts abort
  // max_attempts times aborts the whole job, Spark-style.
  RunOptions opt;
  opt.task_failure_rate = 0.95;
  opt.max_attempts = 2;
  opt.seed = 9;
  const JobResult r = run(chain_job(), opt);
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.complete());
  EXPECT_LT(r.jct, 0);
  EXPECT_GT(r.failed_at, 0);
  EXPECT_NE(r.failure_reason.find("max_attempts"), std::string::npos);
  for (const auto& t : r.tasks) EXPECT_LE(t.attempts, 2);
}

TEST(FaultInjection, DeterministicAcrossRuns) {
  RunOptions opt;
  opt.task_failure_rate = 0.4;
  opt.seed = 11;
  const JobResult a = run(chain_job(), opt);
  const JobResult b = run(chain_job(), opt);
  EXPECT_DOUBLE_EQ(a.jct, b.jct);
  for (std::size_t i = 0; i < a.tasks.size(); ++i)
    EXPECT_EQ(a.tasks[i].attempts, b.tasks[i].attempts);
}

TEST(FaultInjection, RejectsInvalidConfigs) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  const dag::JobDag j = chain_job();
  EXPECT_TRUE(validate(RunOptions{}).is_ok());
  RunOptions bad;
  bad.task_failure_rate = 1.5;
  EXPECT_FALSE(validate(bad).is_ok());
  EXPECT_THROW(JobRun(cluster, j, bad), CheckError);
  RunOptions agg;
  agg.task_failure_rate = 0.2;
  agg.plan.pipelined_shuffle = true;
  EXPECT_FALSE(validate(agg).is_ok());
  EXPECT_THROW(JobRun(cluster, j, agg), CheckError);
  sim::FaultInjector inj(cluster, {}, 1);
  RunOptions crashy;
  crashy.faults = &inj;
  crashy.plan.pipelined_shuffle = true;
  EXPECT_FALSE(validate(crashy).is_ok());
  EXPECT_THROW(JobRun(cluster, j, crashy), CheckError);
}

// ---------- priority scheduling ----------

TEST(Priority, LowerPriorityValueWinsContendedSlots) {
  // Two parallel 6-task stages on 6 slots; priorities flipped so stage b
  // (submitted second) runs first.
  dag::JobDag j("pri");
  j.add_stage(mk("a", 6, 300_MB, 10_MBps, 0));
  j.add_stage(mk("b", 6, 300_MB, 10_MBps, 0));
  RunOptions opt;
  opt.plan.priority = {5, 1};
  const JobResult r = run(j, opt);
  EXPECT_LT(r.stages[1].finish, r.stages[0].finish);
}

TEST(Priority, DefaultZeroKeepsFifo) {
  dag::JobDag j("fifo");
  j.add_stage(mk("a", 6, 300_MB, 10_MBps, 0));
  j.add_stage(mk("b", 6, 300_MB, 10_MBps, 0));
  const JobResult r = run(j);
  EXPECT_LE(r.stages[0].first_launch, r.stages[1].first_launch);
}

TEST(Priority, CriticalPathFirstPrioritisesTheLongPath) {
  const auto dag = workloads::cosine_similarity();
  const auto spec = sim::ClusterSpec::paper_prototype();
  sched::CriticalPathFirstStrategy cpf;
  const auto plan = cpf.plan(dag, spec);
  // Stage 3 heads the long path {3,4}: it must outrank the slack stages.
  EXPECT_LT(plan.priority_for(2), plan.priority_for(0));
  EXPECT_LT(plan.priority_for(2), plan.priority_for(1));
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    EXPECT_DOUBLE_EQ(plan.delay_for(s), 0.0);
}

TEST(Priority, CriticalPathFirstRegisteredInFactory) {
  const auto s = sched::make_strategy("CriticalPathFirst");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "CriticalPathFirst");
}

// ---------- multi-job execution (paper §6 extension) ----------

TEST(MultiJob, TwoJobsShareOneClusterAndBothFinish) {
  const dag::JobDag j1 = chain_job();
  const dag::JobDag j2 = chain_job();
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);

  RunOptions o1;
  o1.seed = 1;
  RunOptions o2;
  o2.seed = 2;
  JobRun a(cluster, j1, o1);
  JobRun b(cluster, j2, o2);
  a.start();
  sim.schedule_at(10.0, [&] { b.start(); });
  sim.run();

  ASSERT_TRUE(a.finished());
  ASSERT_TRUE(b.finished());
  // Contention: each job slower than it would be alone.
  sim::Simulator solo_sim;
  sim::Cluster solo_cluster(solo_sim, sim::ClusterSpec::three_node(), 7);
  JobRun solo(solo_cluster, j1, o1);
  solo.start();
  solo_sim.run();
  EXPECT_GT(a.result().jct, solo.result().jct);
}

TEST(MultiJob, DelayStagePlansHelpEachJobUnderContention) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  const auto w1 = workloads::cosine_similarity();
  const auto w2 = workloads::lda();

  auto run_pair = [&](bool use_ds) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, 42);
    RunOptions o1, o2;
    o1.seed = 1;
    o2.seed = 2;
    if (use_ds) {
      sched::DelayStageStrategy ds;
      o1.plan = ds.plan(w1, spec);
      o2.plan = ds.plan(w2, spec);
    }
    JobRun a(cluster, w1, o1);
    JobRun b(cluster, w2, o2);
    a.start();
    sim.schedule_at(60.0, [&] { b.start(); });
    sim.run();
    return std::max(a.result().jct, b.result().jct);
  };
  // DelayStage plans computed per job still help when jobs share a cluster.
  EXPECT_LT(run_pair(true), run_pair(false) * 1.05);
}

}  // namespace
}  // namespace ds::engine
