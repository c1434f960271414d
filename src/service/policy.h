// Cross-job ordering policies for the multi-job scheduler's admission queue.
//
// Three orderings from the literature the paper positions itself against:
//   * FIFO — arrival order, the stock Spark/YARN queue.
//   * SJF — shortest predicted JCT first (predicted by the same analytic
//     evaluator the DelayStage planner uses, at zero delays on the job's
//     residual profile), the classic mean-JCT optimiser.
//   * HardFirst — a DAGPS-style "do the hard stuff first" score: jobs with
//     the longest critical path (the hard-to-overlap spine of the DAG) are
//     admitted first, so their long dependency chains start ticking while
//     lighter jobs backfill around them.
//
// Policies only produce a *score*; the scheduler combines it with priority
// classes and aging (see scheduler.h) so no policy can starve a job.
#pragma once

#include <string>

#include "core/profile.h"
#include "util/status.h"
#include "util/units.h"

namespace ds::service {

enum class OrderPolicy { kFifo, kSjf, kHardFirst };

// "fifo" | "sjf" | "hard-first" (case-sensitive, the CLI spelling).
Status parse_order_policy(const std::string& name, OrderPolicy* out);
const char* to_string(OrderPolicy policy);

// Predicted dedicated-cluster JCT of `profile`'s job at zero delays — the
// SJF key and the slowdown baseline. Uses the interference-aware evaluator
// at one-second slots, so it is the same estimate the planner's x = 0
// baseline scores.
Seconds predicted_dedicated_jct(const core::JobProfile& profile);

// Length of the DAG's critical path in solo stage times (Alg. 1 line 2's
// ^t_k summed along the longest dependency chain) — the HardFirst key.
Seconds critical_path_time(const core::JobProfile& profile);

// Policy sort key for one queued job: smaller = admit earlier. FIFO ignores
// both estimates (the scheduler's arrival sequence breaks ties).
double policy_score(OrderPolicy policy, Seconds predicted_jct,
                    Seconds critical_path);

}  // namespace ds::service
