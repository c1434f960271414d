#include "sched/strategy.h"

#include <algorithm>
#include <numeric>

#include "core/perf_model.h"
#include "core/profile.h"
#include "core/stage_delayer.h"
#include "util/check.h"

namespace ds::sched {

engine::SubmissionPlan CriticalPathFirstStrategy::plan(
    const dag::JobDag& dag, const sim::ClusterSpec& spec) {
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::PerfModel model(profile);

  // Longest solo-time path from each stage to a sink (inclusive).
  const auto n = static_cast<std::size_t>(dag.num_stages());
  std::vector<Seconds> downstream(n, 0);
  const auto topo = dag.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::StageId s = *it;
    Seconds best = 0;
    for (dag::StageId c : dag.children(s))
      best = std::max(best, downstream[static_cast<std::size_t>(c)]);
    downstream[static_cast<std::size_t>(s)] = best + model.solo_time(s);
  }

  // Rank stages: longest downstream path -> priority 0 (served first).
  std::vector<dag::StageId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](dag::StageId a, dag::StageId b) {
                     return downstream[static_cast<std::size_t>(a)] >
                            downstream[static_cast<std::size_t>(b)];
                   });
  engine::SubmissionPlan p;
  p.priority.assign(n, 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    p.priority[static_cast<std::size_t>(order[rank])] = static_cast<int>(rank);
  return p;
}

engine::SubmissionPlan DelayStageStrategy::plan(const dag::JobDag& dag,
                                                const sim::ClusterSpec& spec) {
  const core::JobProfile profile = core::JobProfile::from(dag, spec);
  const core::DelayCalculator calc(profile, options_);
  last_ = calc.compute();
  return core::StageDelayer(last_).plan();
}

engine::SubmissionPlan DelayStageStrategy::plan(const dag::JobDag& dag,
                                                const sim::Cluster& cluster) {
  const core::JobProfile profile = core::JobProfile::from_measured(dag, cluster);
  const core::DelayCalculator calc(profile, options_);
  last_ = calc.compute();
  return core::StageDelayer(last_).plan();
}

core::CalculatorOptions co_optimized(core::CalculatorOptions options,
                                     const engine::RunOptions& run) {
  options.model.speculation = run.speculation;
  options.model.speculation_threshold = run.speculation_threshold;
  return options;
}

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name == "Spark") return std::make_unique<StockSparkStrategy>();
  if (name == "AggShuffle") return std::make_unique<AggShuffleStrategy>();
  if (name == "Fuxi") return std::make_unique<StockSparkStrategy>("Fuxi");
  if (name == "CriticalPathFirst")
    return std::make_unique<CriticalPathFirstStrategy>();
  if (name == "DelayStage") return std::make_unique<DelayStageStrategy>();
  if (name == "random DelayStage") {
    core::CalculatorOptions o;
    o.order = core::PathOrder::kRandom;
    return std::make_unique<DelayStageStrategy>(o);
  }
  if (name == "ascending DelayStage") {
    core::CalculatorOptions o;
    o.order = core::PathOrder::kAscending;
    return std::make_unique<DelayStageStrategy>(o);
  }
  DS_CHECK_MSG(false, "unknown strategy '" << name << "'");
  return nullptr;
}

}  // namespace ds::sched
