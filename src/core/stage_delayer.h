// Stage delayer — the prototype's second module (§4.2).
//
// The delay-time calculator stores X in Spark's metrics.properties file; the
// delayer reads it back and sleeps each stage's submission inside
// DAGScheduler.submitStage(). Here "sleeping the submission" is the engine's
// SubmissionPlan::delay (a schedule's `delay` vector, applied as is), and the
// properties round trip is reproduced literally so a schedule can be
// persisted and reloaded.
#pragma once

#include <string>
#include <vector>

#include "core/delay_calculator.h"

namespace ds::core {

// metrics.properties-style round trip, one line per stage:
//   spark.delaystage.stage.<id>=<seconds>
std::string to_properties(const std::vector<Seconds>& delay);
// Comments, blank lines and foreign keys are skipped; stages missing from
// the text get delay 0. Throws CheckError on a malformed stage line.
DelaySchedule from_properties(const std::string& text);

}  // namespace ds::core
