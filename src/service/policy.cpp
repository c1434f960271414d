#include "service/policy.h"

#include <algorithm>
#include <vector>

#include "core/evaluator.h"
#include "core/perf_model.h"
#include "dag/job.h"

namespace ds::service {

Status parse_order_policy(const std::string& name, OrderPolicy* out) {
  if (name == "fifo") {
    *out = OrderPolicy::kFifo;
  } else if (name == "sjf") {
    *out = OrderPolicy::kSjf;
  } else if (name == "hard-first") {
    *out = OrderPolicy::kHardFirst;
  } else {
    return Status::error("unknown ordering policy '" + name +
                         "' (expected fifo, sjf or hard-first)");
  }
  return Status::ok();
}

const char* to_string(OrderPolicy policy) {
  switch (policy) {
    case OrderPolicy::kFifo: return "fifo";
    case OrderPolicy::kSjf: return "sjf";
    case OrderPolicy::kHardFirst: return "hard-first";
  }
  return "?";
}

Seconds predicted_dedicated_jct(const core::JobProfile& profile) {
  core::ScheduleEvaluator eval(profile, 1.0);
  return eval.evaluate({}).jct;
}

Seconds critical_path_time(const core::JobProfile& profile) {
  const dag::JobDag& dag = *profile.dag;
  core::PerfModel model(profile);
  std::vector<Seconds> longest(static_cast<std::size_t>(dag.num_stages()), 0);
  Seconds best = 0;
  for (dag::StageId s : dag.topo_order()) {
    const auto i = static_cast<std::size_t>(s);
    Seconds from_parents = 0;
    for (dag::StageId p : dag.parents(s))
      from_parents =
          std::max(from_parents, longest[static_cast<std::size_t>(p)]);
    longest[i] = from_parents + model.solo_time(s);
    best = std::max(best, longest[i]);
  }
  return best;
}

double policy_score(OrderPolicy policy, Seconds predicted_jct,
                    Seconds critical_path) {
  switch (policy) {
    case OrderPolicy::kFifo: return 0;  // arrival sequence decides
    case OrderPolicy::kSjf: return predicted_jct;
    // Longest critical path first — negate so smaller still means earlier.
    case OrderPolicy::kHardFirst: return -critical_path;
  }
  return 0;
}

}  // namespace ds::service
