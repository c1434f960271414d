#include <gtest/gtest.h>

#include "engine/job_run.h"
#include "sched/strategy.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "workloads/workloads.h"

namespace ds::sched {
namespace {

double run_jct(const dag::JobDag& dag, const sim::ClusterSpec& spec,
               Strategy& strategy, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, seed);
  engine::RunOptions opt;
  opt.plan = strategy.plan(dag, cluster);
  opt.seed = seed;
  engine::JobRun run(cluster, dag, opt);
  run.start();
  sim.run();
  return run.result().jct;
}

TEST(Strategy, FactoryKnowsTheLineup) {
  for (const char* name :
       {"Spark", "AggShuffle", "Fuxi", "DelayStage", "random DelayStage",
        "ascending DelayStage"}) {
    const auto s = make_strategy(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW(make_strategy("Quincy"), CheckError);
  std::unique_ptr<Strategy> s;
  EXPECT_TRUE(strategy_by_name("CriticalPathFirst", &s).is_ok());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "CriticalPathFirst");
  const Status st = strategy_by_name("Quincy", &s);
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("Quincy"), std::string::npos);
  EXPECT_EQ(s, nullptr);
}

TEST(Strategy, StockSparkAndFuxiAreZeroDelay) {
  const auto dag = workloads::lda();
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const char* name : {"Spark", "Fuxi"}) {
    const auto plan = make_strategy(name)->plan(dag, spec);
    for (dag::StageId s = 0; s < dag.num_stages(); ++s)
      EXPECT_DOUBLE_EQ(plan.delay_for(s), 0.0);
    EXPECT_FALSE(plan.pipelined_shuffle);
  }
}

TEST(Strategy, AggShufflePipelinesWithoutDelays) {
  const auto dag = workloads::lda();
  const auto plan = make_strategy("AggShuffle")
                        ->plan(dag, sim::ClusterSpec::paper_prototype());
  EXPECT_TRUE(plan.pipelined_shuffle);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    EXPECT_DOUBLE_EQ(plan.delay_for(s), 0.0);
}

TEST(Strategy, DelayStageDelaysSomething) {
  DelayStageStrategy strategy;
  const auto dag = workloads::cosine_similarity();
  const auto plan = strategy.plan(dag, sim::ClusterSpec::paper_prototype());
  double total = 0;
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    total += plan.delay_for(s);
  EXPECT_GT(total, 0.0);
  EXPECT_FALSE(plan.pipelined_shuffle);
  EXPECT_GT(strategy.last_schedule().predicted_jct, 0.0);
}

// The headline property (Fig. 10): DelayStage beats stock Spark on every
// benchmark workload, on the engine, across seeds.
class Fig10Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig10Property, DelayStageBeatsStockSpark) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& wl : workloads::benchmark_suite()) {
    StockSparkStrategy stock;
    DelayStageStrategy ds;
    const double jct_stock = run_jct(wl.dag, spec, stock, GetParam());
    const double jct_ds = run_jct(wl.dag, spec, ds, GetParam());
    EXPECT_LT(jct_ds, jct_stock * 1.02) << wl.name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig10Property, ::testing::Values(42, 7, 99));

}  // namespace
}  // namespace ds::sched
