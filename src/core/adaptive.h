// AdaptivePlanner — the drift-closed control loop over one workload.
//
// Composes the three adaptive pieces into the object a caller actually uses
// per job submission:
//
//   plan()     runs the DelayStage search on the *calibrated* profile (the
//              base profile corrected by the workload's accumulated EWMA
//              factors — identity on first sight, observed truth for
//              recurrent jobs);
//   arm(ro)    installs the plan and (with AdaptiveOptions::replan) a
//              replanner bound to this object into an engine::RunOptions,
//              so the run can replan mid-job when drift or a crash fires a
//              trigger;
//   observe(r) folds the finished run's measured phase spans back into the
//              calibrator, closing the loop for the next recurrence.
//
// Mid-job replanning uses a frozen-prefix approximation: the fresh Alg. 1
// search runs over the full DAG on the calibrated (and crash-shrunk)
// cluster, but only the delays of not-yet-submitted stages are adopted —
// submitted stages' delays are spent and kept verbatim. The candidate plan
// is only offered to the engine if it scores strictly better than the
// current delays under the same calibrated model (the engine additionally
// applies its engine::kMinExpectedGain guard). See DESIGN.md §11.
#pragma once

#include <cstdint>

#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "engine/job_run.h"
#include "engine/replan.h"

namespace ds::core {

struct AdaptiveOptions {
  CalculatorOptions calculator;
  // Off by default: arm() then installs only the plan and the run is
  // bit-identical to a plain DelayCalculator plan.
  bool replan = false;
};

class AdaptivePlanner {
 public:
  // `base.dag` must outlive the planner.
  explicit AdaptivePlanner(const JobProfile& base,
                           AdaptiveOptions options = {});

  // Plan on the calibrated profile. Identity calibration (never-observed
  // workload) makes this bit-identical to DelayCalculator on `base`.
  const DelaySchedule& plan();

  // Install the plan, and the replanner when replanning is on, into `ro`.
  // Requires plan(); this object must outlive the JobRun (the replanner
  // captures `this`).
  void arm(engine::RunOptions& ro);

  // Feed a finished run back into the calibrator.
  void observe(const engine::JobResult& result);

  // The engine-facing replan callback (arm() installs it; exposed for
  // tests). Snapshots in `req`, answer per the frozen-prefix search above.
  engine::ReplanDecision replan(const engine::ReplanRequest& req);

  CalibrationFactors factors() const { return calibrator_.factors(sig_); }

 private:
  JobProfile base_;        // field copy; shares base.dag
  JobProfile calibrated_;  // rebuilt by plan(); referenced by last_
  AdaptiveOptions opt_;
  ModelCalibrator calibrator_;
  std::uint64_t sig_;
  DelaySchedule last_;
  bool planned_ = false;
};

}  // namespace ds::core
