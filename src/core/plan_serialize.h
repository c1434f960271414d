// DelaySchedule persistence: a versioned text record (plan + predicted
// per-stage timeline) so cached plans can outlive the process, plus a JSON
// rendering for the plan daemon's responses.
//
// Layering note: ISSUE 8 sketched this next to dag/serialize, but
// DelaySchedule is a core type and dag sits *below* core in the link order —
// so the round trip lives here, spelled like dag/serialize's job-spec format
// (comma records, one per line, # comments).
//
// Format (version 1):
//   plan,v1
//   delay,<stage>,<seconds>
//   stage,<stage>,<ready>,<submitted>,<read_done>,<compute_done>,<finish>
//   makespan,<seconds>
//   jct,<seconds>
//   search,<evaluations>,<memo_hits>
//
// Doubles are printed with 17 significant digits, which round-trips IEEE
// binary64 exactly: load(save(s)) reproduces every field bit for bit (the
// paths decomposition is derivable from the DAG and is not persisted).
// Unknown versions and malformed records come back as a ds::Status error —
// a stale cache file must never crash the daemon that finds it.
#pragma once

#include <iosfwd>
#include <string>

#include "core/delay_calculator.h"
#include "util/status.h"

namespace ds::core {

inline constexpr int kPlanFormatVersion = 1;

void save_plan(const DelaySchedule& plan, std::ostream& out);
std::string save_plan_text(const DelaySchedule& plan);

// Parses a plan record; `out` is only modified on success.
Status load_plan(std::istream& in, DelaySchedule* out);
Status load_plan_text(const std::string& text, DelaySchedule* out);

// The same schedule as a JSON object (delays, timeline, makespan/JCT,
// search counters) — what `delaystage_cli serve` embeds in its responses.
void plan_to_json(const DelaySchedule& plan, std::ostream& out);

}  // namespace ds::core
