// Execution records produced by a job run — the raw material for every
// prototype figure: stage breakdowns (Fig. 11/16), JCTs (Fig. 10),
// occupancy (Fig. 13) — plus the recovery observability the fault-injection
// subsystem adds (resubmissions, wasted work, recovery time).
#pragma once

#include <string>
#include <vector>

#include "dag/stage.h"
#include "sim/network.h"
#include "util/units.h"

namespace ds::engine {

struct TaskRecord {
  dag::StageId stage = dag::kNoStage;
  int index = -1;
  sim::NodeId node = -1;      // node of the successful attempt
  Seconds launch = -1;        // first attempt's slot grant
  Seconds read_done = -1;     // successful attempt: input fetched
  Seconds compute_done = -1;  // successful attempt: processing finished
  Seconds finish = -1;        // write complete; slot released
  int attempts = 0;           // 1 = no retries (faults, crashes, speculation)
};

struct StageRecord {
  dag::StageId stage = dag::kNoStage;
  Seconds ready = -1;      // all parents complete
  Seconds submitted = -1;  // ready + delay x_k
  Seconds first_launch = -1;
  Seconds last_read_done = -1;     // end of the stage's shuffle-read span
  Seconds last_compute_done = -1;  // end of the stage's processing span
  Seconds finish = -1;

  // --- recovery observability (fault injection) ---
  // Times a *finished* stage was reopened because a node crash invalidated
  // shuffle output it had stored (Spark's stage resubmission on fetch
  // failure). Bounded by kMaxStageResubmissions.
  int resubmissions = 0;
  // Completed tasks whose output was lost and had to run again.
  int tasks_rerun = 0;
  // Seconds of discarded attempt time: mid-compute aborts, attempts killed
  // by node crashes or fetch failures, losing speculative copies, and the
  // full span of completed tasks whose output was later invalidated.
  Seconds wasted_seconds = 0;
  // Time the stage spent re-finishing after being reopened (crash →
  // re-completion), summed over reopen incidents.
  Seconds recovery_seconds = 0;

  Seconds duration() const { return finish - submitted; }
};

struct JobResult {
  Seconds jct = -1;
  std::vector<StageRecord> stages;  // indexed by StageId
  std::vector<TaskRecord> tasks;

  // Terminal failure: a task exceeded max_attempts or a stage exceeded
  // kMaxStageResubmissions. jct stays -1; failed_at records when the job
  // gave up.
  bool failed = false;
  Seconds failed_at = -1;
  std::string failure_reason;

  // Recovery summary.
  int node_crashes = 0;    // crashes that landed while this job ran
  int fetch_failures = 0;  // attempts killed because a shuffle source died
  // Mid-job replans actually applied (RunOptions::replanner; 0 when unset —
  // and with replanning disabled the run is bit-identical to a build
  // without the feature).
  int replans = 0;

  bool complete() const { return jct >= 0; }
  // The run reached a terminal state — successfully or not.
  bool finished() const { return complete() || failed; }

  Seconds wasted_seconds() const {
    Seconds w = 0;
    for (const auto& s : stages) w += s.wasted_seconds;
    return w;
  }
  int resubmissions() const {
    int n = 0;
    for (const auto& s : stages) n += s.resubmissions;
    return n;
  }
  int tasks_rerun() const {
    int n = 0;
    for (const auto& s : stages) n += s.tasks_rerun;
    return n;
  }
};

}  // namespace ds::engine
