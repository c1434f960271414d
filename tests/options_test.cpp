// ds::CommonOptions: the one place 0-means-auto thread counts are resolved,
// plus the back-compat option spellings (inherited threads/seed fields). The
// seed lives only in the options; the tests below pin the CommonOptions-only
// signatures of replay() and synthetic_trace().
#include <gtest/gtest.h>

#include <thread>

#include "core/delay_calculator.h"
#include "core/options.h"
#include "core/profile.h"
#include "sim/cluster.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

TEST(CommonOptions, ResolvedThreadsNormalizesZeroAndNegative) {
  CommonOptions opt;
  opt.threads = 5;
  EXPECT_EQ(opt.resolved_threads(), 5);
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  opt.threads = 0;
  EXPECT_EQ(opt.resolved_threads(), hw);
  opt.threads = -3;
  EXPECT_EQ(opt.resolved_threads(), hw);
}

TEST(CommonOptions, DerivedStructsInheritTheSharedFields) {
  // threads/seed live in the CommonOptions base, so a shared helper that
  // takes a CommonOptions& sees and sets the derived struct's fields.
  core::CalculatorOptions copt;
  copt.threads = 3;
  copt.seed = 9;
  copt.obs = nullptr;
  EXPECT_EQ(static_cast<CommonOptions&>(copt).threads, 3);
  EXPECT_EQ(static_cast<CommonOptions&>(copt).seed, 9u);
  static_cast<CommonOptions&>(copt).threads = 4;
  EXPECT_EQ(copt.threads, 4);

  trace::ReplayOptions ropt;
  ropt.threads = 2;
  EXPECT_EQ(ropt.resolved_threads(), 2);
}

TEST(CommonOptions, SyntheticTraceSeedLivesInOptions) {
  trace::SyntheticTraceOptions opt;
  opt.num_jobs = 50;
  opt.seed = 123;
  const auto a = trace::synthetic_trace(opt);
  const auto b = trace::synthetic_trace(opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    ASSERT_EQ(a[i].stages.size(), b[i].stages.size());
  }
  // A different seed in the options struct must change the draw.
  opt.seed = 1;
  const auto other = trace::synthetic_trace(opt);
  EXPECT_NE(other[0].submit_time, a[0].submit_time);
}

TEST(CommonOptions, ReplaySeedLivesInOptions) {
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 30;
  topt.seed = 5;
  const auto jobs = trace::synthetic_trace(topt);
  trace::ReplayOptions ropt;
  ropt.cluster.num_workers = 20;
  ropt.seed = 11;
  const auto a = trace::replay(jobs, ropt);
  const auto b = trace::replay(jobs, ropt);
  EXPECT_EQ(a.mean_jct(), b.mean_jct());
  EXPECT_EQ(a.mean_cpu_util(), b.mean_cpu_util());
}

TEST(CommonOptions, PlannerAutoThreadsMatchesSingleThread) {
  const dag::JobDag dag = workloads::cosine_similarity();
  const core::JobProfile profile =
      core::JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  core::CalculatorOptions one;
  one.threads = 1;
  core::CalculatorOptions moar;
  moar.threads = 0;  // auto — resolved inside the planner via CommonOptions
  const auto a = core::DelayCalculator(profile, one).compute();
  const auto b = core::DelayCalculator(profile, moar).compute();
  EXPECT_EQ(a.delay, b.delay);  // planner is bit-identical across pool sizes
}

}  // namespace
}  // namespace ds
