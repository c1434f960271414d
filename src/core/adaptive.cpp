#include "core/adaptive.h"

#include <algorithm>

#include "util/check.h"

namespace ds::core {

AdaptivePlanner::AdaptivePlanner(const JobProfile& base,
                                 AdaptiveOptions options)
    : base_(base),
      calibrated_(base),
      opt_(std::move(options)),
      sig_(workload_signature(*base.dag)) {
  DS_CHECK_MSG(base.dag != nullptr, "AdaptivePlanner needs a profiled DAG");
  const Status st = validate(opt_.calculator);
  DS_CHECK_MSG(st.is_ok(), st.message());
}

const DelaySchedule& AdaptivePlanner::plan() {
  calibrated_ = calibrated_profile(base_, calibrator_.factors(sig_));
  last_ = DelayCalculator(calibrated_, opt_.calculator).compute();
  planned_ = true;
  return last_;
}

void AdaptivePlanner::arm(engine::RunOptions& ro) {
  DS_CHECK_MSG(planned_, "AdaptivePlanner::arm() requires a prior plan()");
  ro.plan.delay = last_.delay;
  // Predicted per-stage durations drive the engine's drift trigger.
  ro.predicted_durations.assign(last_.predicted_stages.size(), 0.0);
  for (std::size_t i = 0; i < last_.predicted_stages.size(); ++i) {
    const StageTimeline& t = last_.predicted_stages[i];
    if (t.finish >= 0 && t.submitted >= 0)
      ro.predicted_durations[i] = t.finish - t.submitted;
  }
  if (opt_.replan) {
    ro.replanner = [this](const engine::ReplanRequest& req) {
      return replan(req);
    };
  }
}

void AdaptivePlanner::observe(const engine::JobResult& result) {
  DS_CHECK_MSG(planned_, "AdaptivePlanner::observe() requires a prior plan()");
  calibrator_.observe(sig_, observe_run(last_, result));
}

engine::ReplanDecision AdaptivePlanner::replan(
    const engine::ReplanRequest& req) {
  DS_CHECK_MSG(req.plan != nullptr, "ReplanRequest carries no plan");
  const auto n = static_cast<std::size_t>(base_.dag->num_stages());

  // Re-profile against what the cluster looks like *now*: freshest
  // calibration factors, and the worker count the crash left alive.
  JobProfile prof = calibrated_profile(base_, calibrator_.factors(sig_));
  if (req.live_workers > 0 && req.live_workers < prof.cluster.num_workers)
    prof.cluster.num_workers = std::max(1, req.live_workers);

  std::vector<Seconds> current = req.plan->delay;
  current.resize(n, 0.0);

  // Fresh Alg. 1 search on the live profile, then the frozen-prefix merge:
  // pending stages adopt the new delays, submitted stages keep theirs.
  CalculatorOptions copt = opt_.calculator;
  DelaySchedule fresh = DelayCalculator(prof, copt).compute();
  std::vector<Seconds> merged = current;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < req.submitted.size() && req.submitted[i]) continue;
    merged[i] = i < fresh.delay.size() ? fresh.delay[i] : 0.0;
  }

  // Score both delay vectors under the same live model: the gain offered to
  // the engine is the predicted makespan improvement of switching.
  const ScheduleEvaluator eval(prof, copt.slot, copt.model);
  EvalScratch scratch;
  const Score before = eval.score(current, scratch);
  const Score after = eval.score(merged, scratch);

  engine::ReplanDecision d;
  d.expected_gain = before.makespan - after.makespan;
  d.apply = after.better_than(before);
  d.delay = std::move(merged);
  return d;
}

}  // namespace ds::core
