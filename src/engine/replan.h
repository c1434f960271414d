// Mid-job replanning contract between the engine and a planner.
//
// A running job's measured phase boundaries can drift away from the plan's
// predictions (stale profile), or a node crash can invalidate the cluster
// state the plan was computed for. When that happens the engine snapshots
// its live state into a ReplanRequest and hands it to an installed
// Replanner, which may answer with a fresh delay vector for the stages that
// have not been submitted yet (already-submitted stages are frozen — their
// delays are spent). Installing RunOptions::replanner arms the triggers; the
// guard constants below bound how often replanning can happen so it cannot
// thrash the run.
//
// The engine knows nothing about *how* a new plan is produced: the Replanner
// is an opaque callable (core::AdaptivePlanner provides the standard one,
// re-running the calibrated DelayStage search over the pending stages). This
// keeps the dependency arrow intact — engine never includes core headers.
#pragma once

#include <functional>
#include <vector>

#include "dag/stage.h"
#include "util/units.h"

namespace ds::engine {

struct JobResult;
struct SubmissionPlan;

// Guard rails on mid-job replanning.
//
// Hard cap on applied replans per job run; once spent, the replanner is
// never consulted again.
inline constexpr int kMaxReplans = 2;
// Minimum sim-time between replan *attempts* (applied or not): a burst of
// drifting stage finishes triggers at most one planner invocation per
// window.
inline constexpr Seconds kReplanCooldown = 30.0;
// A candidate plan is only adopted if its predicted makespan improvement
// clears this bar — swapping delay vectors for noise-level gains churns the
// submission timeline for nothing.
inline constexpr Seconds kMinExpectedGain = 1.0;
// Drift trigger: a finished stage whose measured duration misses the
// prediction by more than this relative error requests a replan. The
// drift analytics (obs/analytics model_drift) warn on a stage at the same
// bound.
inline constexpr double kReplanTriggerRelError = 0.5;

// Live-state snapshot the engine hands to the replanner.
struct ReplanRequest {
  Seconds now = 0;
  // Stage whose finish triggered the drift check; kNoStage for crash
  // triggers.
  dag::StageId trigger_stage = dag::kNoStage;
  const char* reason = "";  // "drift" or "crash"
  // submitted[s]: stage s's delay is already spent — the replanner must keep
  // its entry of the returned vector equal to the current plan's.
  std::vector<bool> submitted;
  // Workers currently alive (crashed-and-not-recovered nodes excluded).
  int live_workers = 0;
  // Read-only views of the run so far; valid only during the call.
  const JobResult* progress = nullptr;
  const SubmissionPlan* plan = nullptr;
};

struct ReplanDecision {
  bool apply = false;
  // Full per-stage delay vector; entries for submitted stages are ignored.
  std::vector<Seconds> delay;
  // Predicted makespan improvement of `delay` over the current plan, under
  // the replanner's (calibrated) model. Compared against kMinExpectedGain.
  Seconds expected_gain = 0;
};

using Replanner = std::function<ReplanDecision(const ReplanRequest&)>;

}  // namespace ds::engine
