#include <gtest/gtest.h>

#include <map>

#include "trace/alibaba.h"
#include "trace/stats.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "util/check.h"

namespace ds::trace {
namespace {

TraceJob two_stage_job() {
  TraceJob j;
  j.name = "j";
  TraceStage a;
  a.name = "M1";
  a.num_tasks = 10;
  a.read_solo = 20;
  a.compute_solo = 60;
  a.write_solo = 5;
  TraceStage b = a;
  b.name = "R2_1";
  b.parents = {0};
  j.stages = {a, b};
  return j;
}

TEST(TraceConversion, PreservesPhaseTimesThroughReferenceRates) {
  const TraceJob tj = two_stage_job();
  const ReferenceRates ref;
  const dag::JobDag j = to_job_dag(tj, ref);
  ASSERT_EQ(j.num_stages(), 2);
  // A 10-task stage can reach 10 NICs/disks at most: volumes are sized so
  // that running alone it drains in exactly the recorded solo times.
  const double net_capacity = 10 * ref.nic_bw;
  const double disk_capacity = 10 * ref.disk_bw;
  EXPECT_DOUBLE_EQ(j.stage(0).input_bytes / net_capacity, 20.0);
  EXPECT_DOUBLE_EQ(j.stage(0).output_bytes / disk_capacity, 5.0);
  // Compute work / usable executors == compute_solo.
  const double execs = std::min(10.0, ref.executors);
  EXPECT_NEAR(j.stage(0).input_bytes / j.stage(0).process_rate / execs, 60.0,
              1e-6);
  EXPECT_EQ(j.parents(1), (std::vector<dag::StageId>{0}));
}

TEST(TraceConversion, ComputeOnlyStageGetsPlaceholderVolume) {
  TraceJob tj;
  tj.name = "c";
  TraceStage s;
  s.name = "M1";
  s.num_tasks = 4;
  s.compute_solo = 100;
  tj.stages = {s};
  const dag::JobDag j = to_job_dag(tj);
  EXPECT_GT(j.stage(0).input_bytes, 0);
  EXPECT_GT(j.stage(0).process_rate, 0);
}

TEST(AlibabaParser, DecodesDagTaskNames) {
  const std::string csv =
      "M1,10,job_a,A,Terminated,100,200,100,0.5\n"
      "M2,5,job_a,A,Terminated,100,180,100,0.5\n"
      "R3_1_2,8,job_a,A,Terminated,200,300,100,0.5\n"
      "J4_3,2,job_a,A,Terminated,300,350,100,0.5\n";
  AlibabaParseStats st;
  const auto jobs = parse_batch_task_text(csv, &st);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(st.rows, 4u);
  EXPECT_EQ(st.bad_rows, 0u);
  const TraceJob& j = jobs[0];
  ASSERT_EQ(j.stages.size(), 4u);
  EXPECT_DOUBLE_EQ(j.submit_time, 100.0);
  EXPECT_TRUE(j.stages[0].parents.empty());
  EXPECT_EQ(j.stages[2].parents, (std::vector<int>{0, 1}));
  EXPECT_EQ(j.stages[3].parents, (std::vector<int>{2}));
  EXPECT_EQ(j.stages[2].num_tasks, 8);
  // Duration 100 s split into read/compute/write.
  EXPECT_NEAR(j.stages[2].read_solo + j.stages[2].compute_solo +
                  j.stages[2].write_solo,
              100.0, 1e-9);
  EXPECT_DOUBLE_EQ(j.stages[2].read_solo, 100.0 * kBatchTaskReadFrac);
  EXPECT_DOUBLE_EQ(j.stages[2].write_solo, 100.0 * kBatchTaskWriteFrac);
}

TEST(AlibabaParser, KeepsIndependentTasksAsParentlessStages) {
  const std::string csv = "task_NKJzSmvg,3,job_b,A,Terminated,50,90,100,0.5\n";
  const auto jobs = parse_batch_task_text(csv);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].stages[0].parents.empty());
}

TEST(AlibabaParser, DropsIncompleteJobs) {
  const std::string csv =
      "M1,1,job_a,A,Terminated,100,200,100,0.5\n"
      "M1,1,job_b,A,Failed,0,0,100,0.5\n";  // no timestamps
  AlibabaParseStats st;
  const auto jobs = parse_batch_task_text(csv, &st);
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(st.jobs, 2u);
  EXPECT_EQ(st.dropped_jobs, 1u);
}

TEST(AlibabaParser, DropsCyclicAndDanglingJobs) {
  const std::string cyc =
      "M1_2,1,job_c,A,Terminated,10,20,100,0.5\n"
      "M2_1,1,job_c,A,Terminated,10,20,100,0.5\n";
  EXPECT_TRUE(parse_batch_task_text(cyc).empty());
  const std::string dangling = "R2_9,1,job_d,A,Terminated,10,20,100,0.5\n";
  EXPECT_TRUE(parse_batch_task_text(dangling).empty());
}

TEST(AlibabaParser, CountsMalformedRows) {
  const std::string csv =
      "garbage\n"
      "M1,1,job_a,A,Terminated,100,xyz,100,0.5\n"
      "M1,1,job_ok,A,Terminated,100,200,100,0.5\n";
  AlibabaParseStats st;
  const auto jobs = parse_batch_task_text(csv, &st);
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(st.bad_rows, 2u);
}

TEST(AlibabaParser, CountsNonFiniteAndOutOfRangeRowsAsMalformed) {
  // An infinite end time would keep the replay busy forever, and 2^32 + 1
  // instances (or task numbers) must not wrap to 1.
  const std::string csv =
      "M1,1,job_a,A,Terminated,100,inf,100,0.5\n"
      "M1,4294967297,job_b,A,Terminated,100,200,100,0.5\n"
      "M4294967297,1,job_c,A,Terminated,100,200,100,0.5\n"
      "R2_4294967297,1,job_d,A,Terminated,100,200,100,0.5\n"
      "M1,2147483647,job_ok,A,Terminated,100,200,100,0.5\n";
  AlibabaParseStats st;
  const auto jobs = parse_batch_task_text(csv, &st);
  EXPECT_EQ(st.bad_rows, 4u);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "job_ok");
  EXPECT_EQ(jobs[0].stages[0].num_tasks, 2147483647);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticTraceOptions opt;
  opt.num_jobs = 50;
  opt.seed = 9;
  const auto a = synthetic_trace(opt);
  const auto b = synthetic_trace(opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stages.size(), b[i].stages.size());
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
  }
}

TEST(Synthetic, MatchesPaperHeadlineStatistics) {
  SyntheticTraceOptions opt;
  opt.num_jobs = 2000;
  opt.seed = 3;
  const auto jobs = synthetic_trace(opt);
  const TraceStats st = analyze(jobs);
  // §2.1: 68.6% of jobs have parallel stages; parallel stages ≈79% of all
  // stages; 90% of jobs < 15 stages (Fig. 2); makespan share ≈82% (Fig. 3).
  EXPECT_NEAR(st.parallel_job_fraction(), 0.686, 0.06);
  EXPECT_NEAR(st.parallel_stage_fraction(), 0.79, 0.12);
  EXPECT_LT(st.stages_per_job.percentile(90), 16.0);
  EXPECT_GT(st.parallel_makespan_share.mean(), 60.0);
}

TEST(Synthetic, StageTimesWithinConfiguredRange) {
  SyntheticTraceOptions opt;
  opt.num_jobs = 100;
  opt.seed = 5;
  for (const auto& j : synthetic_trace(opt)) {
    for (const auto& s : j.stages) {
      const Seconds d = s.read_solo + s.compute_solo + s.write_solo;
      EXPECT_GE(d, kMinStageTime - 1e-6);
      EXPECT_LE(d, opt.max_stage_time + 1e-6);
      EXPECT_GT(s.compute_solo, 0);
    }
    EXPECT_GE(j.submit_time, 0);
    EXPECT_LE(j.submit_time, opt.horizon);
  }
}

TEST(Synthetic, SubmissionsSorted) {
  SyntheticTraceOptions opt;
  opt.num_jobs = 200;
  opt.seed = 1;
  const auto jobs = synthetic_trace(opt);
  for (std::size_t i = 1; i < jobs.size(); ++i)
    EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
}

TEST(Stats, ChainJobHasNoParallelShare) {
  TraceJob j;
  j.name = "chain";
  for (int i = 0; i < 3; ++i) {
    TraceStage s;
    s.name = "s";
    s.compute_solo = 50;
    if (i > 0) s.parents = {i - 1};
    j.stages.push_back(s);
  }
  const TraceStats st = analyze({j});
  EXPECT_EQ(st.jobs_with_parallel_stages, 0u);
  EXPECT_DOUBLE_EQ(critical_path_time(j), 150.0);
  EXPECT_DOUBLE_EQ(parallel_region_time(j), 0.0);
}

TEST(Stats, DiamondJobSplitsMakespan) {
  // a -> {b, c} -> d: K = {b, c}; critical path a + max(b,c) + d.
  TraceJob j;
  j.name = "diamond";
  auto mk = [](Seconds t) {
    TraceStage s;
    s.name = "s";
    s.compute_solo = t;
    return s;
  };
  j.stages = {mk(10), mk(40), mk(60), mk(20)};
  j.stages[1].parents = {0};
  j.stages[2].parents = {0};
  j.stages[3].parents = {1, 2};
  EXPECT_DOUBLE_EQ(critical_path_time(j), 90.0);
  EXPECT_DOUBLE_EQ(parallel_region_time(j), 60.0);
  const TraceStats st = analyze({j});
  EXPECT_EQ(st.total_parallel_stages, 2u);
  EXPECT_NEAR(st.parallel_makespan_share.mean(), 100.0 * 60 / 90, 1e-6);
}

TEST(AlibabaWriter, RoundTripsSyntheticTrace) {
  SyntheticTraceOptions opt;
  opt.num_jobs = 40;
  opt.seed = 77;
  const auto jobs = synthetic_trace(opt);
  AlibabaParseStats st;
  const auto back = parse_batch_task_text(write_batch_task_text(jobs), &st);
  EXPECT_EQ(st.dropped_jobs, 0u);
  ASSERT_EQ(back.size(), jobs.size());
  // Jobs come back keyed by name; compare structure per name.
  std::map<std::string, const TraceJob*> by_name;
  for (const auto& j : back) by_name[j.name] = &j;
  for (const auto& j : jobs) {
    ASSERT_TRUE(by_name.count(j.name)) << j.name;
    const TraceJob& b = *by_name[j.name];
    ASSERT_EQ(b.stages.size(), j.stages.size()) << j.name;
    EXPECT_NEAR(b.submit_time, j.submit_time, 1e-6);
    for (std::size_t k = 0; k < j.stages.size(); ++k) {
      EXPECT_EQ(b.stages[k].parents, j.stages[k].parents) << j.name;
      EXPECT_EQ(b.stages[k].num_tasks, j.stages[k].num_tasks);
      const Seconds dj = j.stages[k].read_solo + j.stages[k].compute_solo +
                         j.stages[k].write_solo;
      const Seconds db = b.stages[k].read_solo + b.stages[k].compute_solo +
                         b.stages[k].write_solo;
      EXPECT_NEAR(db, dj, 1e-6);
    }
  }
}

}  // namespace
}  // namespace ds::trace
