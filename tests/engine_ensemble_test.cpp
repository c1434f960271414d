// Determinism of the engine's parallel fan-outs:
//
//  * Engine ensembles run across a ThreadPool must be bit-identical to the
//    sequential loop for every thread count — each index is an independent
//    world and the merge is positional, so any divergence means hidden
//    shared state in the engine.
//  * The replay engine-validation fan-out must produce identical
//    ReplayJobResult streams for thread counts {1, 2, 8}.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "engine/job_run.h"
#include "sim/cluster.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/thread_pool.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

// Full fingerprint of one engine run: every field that downstream analytics
// read. Exact double comparison is intentional — the parallel paths must be
// bit-identical to the sequential one, not merely close.
using StageKey = std::tuple<double, double, double, double, double, double>;
struct RunPrint {
  double jct = 0;
  std::vector<StageKey> stages;
  bool operator==(const RunPrint&) const = default;
};

RunPrint run_engine_once(std::uint64_t seed) {
  const auto dag = workloads::lda();
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::paper_prototype(), seed);
  engine::RunOptions opt;
  opt.seed = seed;
  engine::JobRun run(cluster, dag, std::move(opt));
  run.start();
  sim.run();
  RunPrint p;
  p.jct = run.result().jct;
  for (const auto& s : run.result().stages) {
    p.stages.emplace_back(s.ready, s.submitted, s.first_launch,
                          s.last_read_done, s.last_compute_done, s.finish);
  }
  return p;
}

TEST(EngineEnsemble, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kRuns = 8;
  std::vector<RunPrint> sequential(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) sequential[i] = run_engine_once(100 + i);

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<RunPrint> parallel(kRuns);
    pool.parallel_for(kRuns, [&](std::size_t i) {
      parallel[i] = run_engine_once(100 + i);
    });
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(parallel[i], sequential[i])
          << "run " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(ReplayEngineValidation, IdenticalAcrossShardCounts) {
  trace::SyntheticTraceOptions sopt;
  sopt.num_jobs = 12;
  sopt.horizon = 4000;
  sopt.max_stages = 8;
  sopt.max_stage_time = 120;
  sopt.seed = 7;
  const auto jobs = trace::synthetic_trace(sopt);
  trace::ReplayOptions opt;
  opt.strategy = "DelayStage";
  opt.engine_validate = true;

  std::vector<trace::ReplayJobResult> reference;
  for (int threads : {1, 2, 8}) {
    opt.threads = threads;
    const auto res = trace::replay(jobs, opt);
    ASSERT_EQ(res.jobs.size(), jobs.size());
    for (const auto& j : res.jobs) EXPECT_GT(j.engine_jct, 0.0);
    if (threads == 1) {
      reference = res.jobs;
      continue;
    }
    for (std::size_t i = 0; i < res.jobs.size(); ++i) {
      // Bit-exact across thread counts: same seeds, same per-index worlds.
      EXPECT_EQ(res.jobs[i].engine_jct, reference[i].engine_jct);
      EXPECT_EQ(res.jobs[i].jct, reference[i].jct);
      EXPECT_EQ(res.jobs[i].dedicated_time, reference[i].dedicated_time);
      EXPECT_EQ(res.jobs[i].planned_delay, reference[i].planned_delay);
    }
  }
}

}  // namespace
}  // namespace ds
