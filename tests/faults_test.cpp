// Failure-domain fault injection: node crashes, fetch-failure recovery, and
// their interaction with the scheduling engine (ctest label: faults).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/job_run.h"
#include "metrics/sampler.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/units.h"

namespace ds::engine {
namespace {

using namespace ds;  // literals

dag::Stage mk(const std::string& name, int tasks, Bytes in, BytesPerSec rate,
              Bytes out) {
  dag::Stage s;
  s.name = name;
  s.num_tasks = tasks;
  s.input_bytes = in;
  s.process_rate = rate;
  s.output_bytes = out;
  return s;
}

// map → reduce with a long, network-bound shuffle read: plenty of time for a
// crash to land while the children are mid-fetch.
dag::JobDag chain_job() {
  dag::JobDag j("chain");
  j.add_stage(mk("map", 6, 600_MB, 50_MBps, 600_MB));
  j.add_stage(mk("reduce", 6, 600_MB, 100_MBps, 0));
  j.add_edge(0, 1);
  return j;
}

struct RunOutput {
  JobResult result;
  int injected = 0;
  int recoveries = 0;
  bool finished = true;
  std::vector<metrics::TimeSeries> occupancy;
};

// `sample_occupancy` records each stage's held executors every simulated
// second into RunOutput::occupancy (finished runs only).
RunOutput run_with_faults(const dag::JobDag& dag, const sim::FaultPlan& plan,
                          RunOptions opt = {},
                          sim::ClusterSpec spec = sim::ClusterSpec::three_node(),
                          std::uint64_t cluster_seed = 7,
                          bool sample_occupancy = false) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, cluster_seed);
  sim::FaultInjector inj(cluster, plan, opt.seed);
  opt.faults = &inj;
  JobRun jr(cluster, dag, opt);
  metrics::UtilizationSampler sampler(cluster);
  inj.start();
  jr.start();
  if (sample_occupancy) {
    for (dag::StageId s = 0; s < dag.num_stages(); ++s)
      sampler.track([&jr, s] { return static_cast<double>(jr.slots_held(s)); });
    sampler.start();
  }
  // The sampler keeps the queue alive: step until the job finishes, then
  // stop sampling and drain.
  while (!jr.finished() && sim.step()) {
  }
  sampler.stop();
  sim.run();
  RunOutput out;
  out.finished = jr.finished();
  out.injected = inj.crashes_injected();
  out.recoveries = inj.recoveries();
  if (jr.finished()) out.result = jr.result();
  if (sample_occupancy && jr.finished()) {
    for (dag::StageId s = 0; s < dag.num_stages(); ++s)
      out.occupancy.push_back(sampler.tracked(static_cast<std::size_t>(s)));
  }
  // Resource hygiene: a terminal job holds nothing, crashed or not.
  EXPECT_EQ(cluster.executors().total_busy(), 0);
  EXPECT_EQ(cluster.fabric().active_flows(), 0u);
  return out;
}

JobResult run_healthy(const dag::JobDag& dag, RunOptions opt = {}) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  JobRun jr(cluster, dag, std::move(opt));
  jr.start();
  sim.run();
  EXPECT_TRUE(jr.finished());
  return jr.result();
}

// ---------- FaultPlan / FaultInjector mechanics ----------

TEST(FaultPlan, RejectsMalformedPlans) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  EXPECT_TRUE(sim::validate(sim::FaultPlan{}, cluster).is_ok());
  {
    sim::FaultPlan p;
    p.crashes.push_back({cluster.storage_node(0), 10.0, -1});
    EXPECT_FALSE(sim::validate(p, cluster).is_ok());
    EXPECT_THROW(sim::FaultInjector(cluster, p, 1), CheckError);
  }
  {
    sim::FaultPlan p;
    p.crashes.push_back({cluster.worker(0), -5.0, -1});  // before t = 0
    EXPECT_FALSE(sim::validate(p, cluster).is_ok());
    EXPECT_THROW(sim::FaultInjector(cluster, p, 1), CheckError);
  }
  {
    sim::FaultPlan p;
    p.crash_rate = 1e-3;  // no horizon
    EXPECT_FALSE(sim::validate(p, cluster).is_ok());
    EXPECT_THROW(sim::FaultInjector(cluster, p, 1), CheckError);
  }
}

TEST(FaultPlan, StochasticExpansionIsDeterministic) {
  sim::FaultPlan p;
  p.crash_rate = 5e-3;
  p.crash_horizon = 2000.0;
  p.mean_downtime = 50.0;
  auto expand = [&] {
    sim::Simulator sim;
    sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
    sim::FaultInjector inj(cluster, p, 99);
    inj.start();
    sim.run();
    return std::make_pair(inj.crashes_injected(), inj.recoveries());
  };
  const auto a = expand();
  const auto b = expand();
  EXPECT_GT(a.first, 0);
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, CrashForfeitsSlotsAndRecoveryRestoresThem) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  sim::FaultPlan p;
  p.crashes.push_back({cluster.worker(1), 5.0, 20.0});
  sim::FaultInjector inj(cluster, p, 1);
  inj.start();
  auto& pool = cluster.executors();
  sim.schedule_at(6.0, [&] {
    EXPECT_FALSE(inj.alive(cluster.worker(1)));
    EXPECT_TRUE(pool.offline(cluster.worker(1)));
    EXPECT_EQ(pool.free_slots(cluster.worker(1)), 0);
  });
  sim.schedule_at(26.0, [&] {
    EXPECT_TRUE(inj.alive(cluster.worker(1)));
    EXPECT_FALSE(pool.offline(cluster.worker(1)));
    EXPECT_GT(pool.free_slots(cluster.worker(1)), 0);
  });
  sim.run();
  EXPECT_EQ(inj.crashes_injected(), 1);
  EXPECT_EQ(inj.recoveries(), 1);
}

// ---------- fetch-failure recovery (the tentpole scenario) ----------

// Crash a worker after the map stage finished: its stored map output dies
// with it, the mid-shuffle reduce tasks take fetch failures, and exactly the
// lost map tasks re-run before the reduce can complete.
TEST(FetchFailure, CrashAfterMapRerunsOnlyLostParentTasks) {
  const dag::JobDag dag = chain_job();
  RunOptions opt;
  opt.seed = 3;
  const JobResult healthy = run_healthy(dag, opt);
  const Seconds map_fin = healthy.stages[0].finish;
  ASSERT_GT(map_fin, 0);
  const sim::NodeId victim = healthy.tasks[0].node;  // hosted map output

  sim::FaultPlan plan;
  plan.crashes.push_back({victim, map_fin + 1.0, -1});  // permanent
  RunOptions fopt;
  fopt.seed = 3;
  const RunOutput out =
      run_with_faults(dag, plan, fopt, sim::ClusterSpec::three_node(), 7,
                      /*sample_occupancy=*/true);
  ASSERT_TRUE(out.finished);
  const JobResult& r = out.result;
  ASSERT_FALSE(r.failed);

  EXPECT_EQ(r.node_crashes, 1);
  EXPECT_GE(r.fetch_failures, 1);  // reduce was mid-fetch from the victim

  // The map stage was resubmitted once, re-running exactly the tasks whose
  // output lived on the victim (placement replays the healthy run up to the
  // crash: same seeds, same event sequence).
  int lost = 0;
  for (const auto& t : healthy.tasks)
    if (t.stage == 0 && t.node == victim) ++lost;
  ASSERT_GT(lost, 0);
  EXPECT_EQ(r.stages[0].resubmissions, 1);
  EXPECT_EQ(r.stages[0].tasks_rerun, lost);
  EXPECT_EQ(r.resubmissions(), 1);  // the reduce stage never resubmits
  for (const auto& t : r.tasks) {
    if (t.stage != 0) continue;
    const bool was_on_victim = healthy.tasks[static_cast<std::size_t>(
                                                 t.index)].node == victim;
    EXPECT_EQ(t.attempts, was_on_victim ? 2 : 1)
        << "map task " << t.index << " re-ran unexpectedly";
    EXPECT_NE(t.node, victim);  // nothing can finish on a dead node
  }

  // Recovery costs real time and is accounted for.
  EXPECT_GT(r.jct, healthy.jct);
  EXPECT_GT(r.wasted_seconds(), 0.0);
  EXPECT_GT(r.stages[0].recovery_seconds, 0.0);
  EXPECT_GT(r.tasks_rerun(), 0);

  // Occupancy stays sane through crash and recovery: per-sample totals
  // within the pool's capacity, and never negative.
  const int total_slots = sim::ClusterSpec::three_node().total_executors();
  ASSERT_EQ(out.occupancy.size(), 2u);
  for (std::size_t i = 0; i < out.occupancy[0].size(); ++i) {
    const double total =
        out.occupancy[0].value(i) + out.occupancy[1].value(i);
    EXPECT_GE(out.occupancy[0].value(i), 0.0);
    EXPECT_GE(out.occupancy[1].value(i), 0.0);
    EXPECT_LE(total, static_cast<double>(total_slots));
  }
}

TEST(FetchFailure, ResubmissionCapFailsTheJob) {
  // A map with a huge output keeps the reduce fetching for minutes. Workers
  // 0, 1, 2, 0, … crash in turn every 30 s from just after the map
  // finishes, each back 1 s later with empty disks: every crash takes map
  // output the reduce still needs, so each one reopens the map once.
  dag::JobDag dag("resubmit");
  dag.add_stage(mk("map", 6, 600_MB, 50_MBps, 6_GB));
  dag.add_stage(mk("reduce", 6, 600_MB, 100_MBps, 0));
  dag.add_edge(0, 1);
  RunOptions opt;
  opt.seed = 3;
  const Seconds map_fin = run_healthy(dag, opt).stages[0].finish;
  ASSERT_GT(map_fin, 0);
  auto crash_in_turn = [&](int crashes) {
    sim::FaultPlan plan;
    for (int i = 0; i < crashes; ++i)
      plan.crashes.push_back(
          {static_cast<sim::NodeId>(i % 3), map_fin + 1.0 + 30.0 * i, 1.0});
    return run_with_faults(dag, plan, opt);
  };

  // The cap is exactly kMaxStageResubmissions = 4 (Spark's
  // spark.stage.maxConsecutiveAttempts): four reopenings are survived...
  const RunOutput four = crash_in_turn(4);
  ASSERT_TRUE(four.finished);
  ASSERT_TRUE(four.result.complete()) << four.result.failure_reason;
  EXPECT_EQ(four.result.stages[0].resubmissions, 4);

  // ...and a fifth fails the job.
  const RunOutput five = crash_in_turn(5);
  ASSERT_TRUE(five.finished);
  ASSERT_TRUE(five.result.failed);
  EXPECT_FALSE(five.result.complete());
  EXPECT_NE(five.result.failure_reason.find("stage 0 resubmitted 5 times"),
            std::string::npos)
      << five.result.failure_reason;
}

TEST(FetchFailure, CrashBeforeMapFinishesRerunsWithoutResubmission) {
  // A crash while the producing stage is still running re-runs its lost
  // tasks inside the same stage attempt: tasks_rerun counts, but no
  // stage-level resubmission is recorded (the stage never finished).
  const dag::JobDag dag = chain_job();
  RunOptions opt;
  opt.seed = 3;
  const JobResult healthy = run_healthy(dag, opt);
  sim::FaultPlan plan;
  plan.crashes.push_back(
      {healthy.tasks[0].node, healthy.stages[0].finish * 0.6, -1});
  RunOptions fopt;
  fopt.seed = 3;
  const RunOutput out = run_with_faults(dag, plan, fopt);
  ASSERT_TRUE(out.finished);
  ASSERT_FALSE(out.result.failed);
  EXPECT_EQ(out.result.resubmissions(), 0);
  EXPECT_GT(out.result.jct, healthy.jct);
}

TEST(FetchFailure, RecoveredNodeRejoinsAndJobCompletes) {
  const dag::JobDag dag = chain_job();
  RunOptions opt;
  opt.seed = 3;
  const JobResult healthy = run_healthy(dag, opt);
  sim::FaultPlan plan;
  plan.crashes.push_back(
      {healthy.tasks[0].node, healthy.stages[0].finish * 0.5, 10.0});
  RunOptions fopt;
  fopt.seed = 3;
  const RunOutput out = run_with_faults(dag, plan, fopt);
  ASSERT_TRUE(out.finished);
  ASSERT_FALSE(out.result.failed);
  EXPECT_EQ(out.recoveries, 1);
}

TEST(FetchFailure, LosingEveryWorkerPermanentlyStrandsTheJob) {
  // All slots gone forever: the simulation drains with the job unfinished —
  // callers must treat a non-finished run as failed/hung.
  const dag::JobDag dag = chain_job();
  sim::FaultPlan plan;
  const auto spec = sim::ClusterSpec::three_node();
  for (int w = 0; w < spec.num_workers; ++w)
    plan.crashes.push_back({w, 5.0, -1});
  RunOptions fopt;
  fopt.seed = 3;
  const RunOutput out = run_with_faults(dag, plan, fopt);
  EXPECT_FALSE(out.finished);
  EXPECT_EQ(out.injected, spec.num_workers);
}

// ---------- determinism ----------

TEST(FaultDeterminism, ExpansionIsBitReproducibleFromTheSeed) {
  // The injector's RNG is derived from CommonOptions::seed XOR a fixed salt
  // (sim::kFaultSeedSalt), so the stochastic crash schedule is a pure
  // function of (plan, seed): same seed → bit-identical expansion, different
  // seed → a decorrelated one.
  sim::FaultPlan p;
  p.crash_rate = 5e-3;
  p.crash_horizon = 2000.0;
  p.mean_downtime = 50.0;
  auto expand = [&](std::uint64_t seed) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
    sim::FaultInjector inj(cluster, p, seed);
    inj.start();
    return inj.expanded_crashes();
  };
  const auto a = expand(99);
  const auto b = expand(99);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    // Bit-level equality, not approximate: the schedule must replay exactly.
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].downtime, b[i].downtime);
  }
  const auto c = expand(100);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].node != c[i].node || a[i].at != c[i].at ||
              a[i].downtime != c[i].downtime;
  EXPECT_TRUE(differs) << "different seeds produced the same crash schedule";
}

TEST(FaultDeterminism, SaltDecorrelatesInjectorFromEngineRng) {
  // The salt keeps the injector's draws off the engine's Rng(seed) stream:
  // an injector seeded with `seed` must not replay the raw-seed stream.
  EXPECT_NE(sim::kFaultSeedSalt, 0u);
  EXPECT_EQ(sim::kFaultSeedSalt, 0xFA'17'5E'ED'0D'15'EA'5Eull);
}

TEST(FaultDeterminism, SameSeedAndPlanGiveIdenticalResults) {
  const dag::JobDag dag = chain_job();
  sim::FaultPlan plan;
  plan.crash_rate = 2e-4;
  plan.crash_horizon = 2000.0;
  plan.mean_downtime = 40.0;
  RunOptions opt;
  opt.seed = 17;
  opt.max_attempts = 16;  // stay clear of terminal failure for this seed

  auto once = [&] { return run_with_faults(dag, plan, opt); };
  const RunOutput a = once();
  const RunOutput b = once();
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.result.failed, b.result.failed);
  EXPECT_DOUBLE_EQ(a.result.jct, b.result.jct);
  EXPECT_EQ(a.result.node_crashes, b.result.node_crashes);
  EXPECT_EQ(a.result.fetch_failures, b.result.fetch_failures);
  ASSERT_EQ(a.result.tasks.size(), b.result.tasks.size());
  for (std::size_t i = 0; i < a.result.tasks.size(); ++i) {
    const auto& x = a.result.tasks[i];
    const auto& y = b.result.tasks[i];
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_DOUBLE_EQ(x.launch, y.launch);
    EXPECT_DOUBLE_EQ(x.read_done, y.read_done);
    EXPECT_DOUBLE_EQ(x.compute_done, y.compute_done);
    EXPECT_DOUBLE_EQ(x.finish, y.finish);
  }
  ASSERT_EQ(a.result.stages.size(), b.result.stages.size());
  for (std::size_t i = 0; i < a.result.stages.size(); ++i) {
    const auto& x = a.result.stages[i];
    const auto& y = b.result.stages[i];
    EXPECT_EQ(x.resubmissions, y.resubmissions);
    EXPECT_EQ(x.tasks_rerun, y.tasks_rerun);
    EXPECT_DOUBLE_EQ(x.wasted_seconds, y.wasted_seconds);
    EXPECT_DOUBLE_EQ(x.recovery_seconds, y.recovery_seconds);
    EXPECT_DOUBLE_EQ(x.finish, y.finish);
  }
}

TEST(FaultDeterminism, HoldsUnderSpeculationToo) {
  // The previously CHECK-ed speculation × fault-injection combination now
  // runs — and stays deterministic.
  dag::JobDag j("wide");
  j.add_stage(mk("crunch", 30, 1.5_GB, 1.25_MBps, 50_MB));
  sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  spec.node_speed_min = 0.15;  // stragglers, so speculation actually fires

  sim::FaultPlan plan;
  plan.crash_rate = 1e-4;
  plan.crash_horizon = 1500.0;
  plan.mean_downtime = 60.0;
  RunOptions opt;
  opt.seed = 5;
  opt.speculation = true;

  auto once = [&] { return run_with_faults(j, plan, opt, spec, 42); };
  const RunOutput a = once();
  const RunOutput b = once();
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.result.failed, b.result.failed);
  EXPECT_DOUBLE_EQ(a.result.jct, b.result.jct);
  EXPECT_EQ(a.result.fetch_failures, b.result.fetch_failures);
  ASSERT_EQ(a.result.tasks.size(), b.result.tasks.size());
  for (std::size_t i = 0; i < a.result.tasks.size(); ++i) {
    EXPECT_EQ(a.result.tasks[i].attempts, b.result.tasks[i].attempts);
    EXPECT_DOUBLE_EQ(a.result.tasks[i].finish, b.result.tasks[i].finish);
  }
}

}  // namespace
}  // namespace ds::engine
