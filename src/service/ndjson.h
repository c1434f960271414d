// The NDJSON request protocol (version 1) shared by `delaystage_cli serve`
// (service/daemon.h) and `delaystage_cli sched --jobs-in`: newline-delimited
// JSON, one request object per line, one grammar for both front doors.
//
// Every request MAY carry a "v" version field:
//   * absent          → treated as version 1 (the first shipped protocol)
//   * "v": 1          → version 1
//   * anything else   → the request is rejected with a ds::Status error
//     ("v": 1.5 and "v": "1" included);
//     serve answers it with an {"v": 1, "id": …, "error": "…"} line and
//     keeps going (one bad request never kills the server).
// Unknown fields are ignored (forward tolerance): clients may attach extra
// metadata without breaking older servers. Every response line carries
// "v": 1.
//
// Request shapes:
//   {"v": 1, "id": 7, "workload": "lda", "scale": 1.0, …}
//   {"v": 1, "id": 7, "spec": "job,x\nstage,…", …}
//   {"v": 1, "id": 7, "cmd": "stats" | "save"}
// A job request names exactly one of "workload" (a built-in benchmark:
// als, connected_components, cosine_similarity, lda or triangle_count,
// its dataset sized by "scale") or "spec" (dag/serialize job-spec text,
// newlines escaped as \n inside the JSON string). Each front door reads
// its own fields:
//   serve — "id" (echoed in the response), "cluster" (prototype |
//     three_node), the preset overrides "workers", "executors",
//     "storage_nodes" and "congestion", and the planner's "quantile";
//     "stats" answers cache/profile counters, "save" persists the profile
//     store.
//   sched — "arrival" (absolute submit time in seconds, a number below
//     sim::kClockHorizon = 2^24 s; absent/negative = back-to-back with the
//     previous job), "priority" (the class, lower = more important) and
//     "id": a job row's "id" is the scheduler's job id, so a line that
//     carries an "id" gets it back as the row's "request_id" (echoed like
//     serve echoes "id"). "stats" answers in stream order with one live
//     {"ev": "stats"} state line (Scheduler::write_stats), evaluated after
//     the preceding submissions; "save" is an error. A rejected line gets
//     an error response naming its line number and the stream goes on.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "dag/job.h"
#include "service/scheduler.h"
#include "util/json.h"
#include "util/status.h"
#include "util/units.h"

namespace ds::service {

inline constexpr int kNdjsonProtocolVersion = 1;

struct Request {
  enum class Kind { kJob, kStats, kSave };
  Kind kind = Kind::kJob;
  json::Value object;    // the whole parsed line: each front door's fields
  dag::JobDag dag;       // kJob only
  Seconds arrival = -1;  // < 0: caller decides (arrive immediately)
  int priority = 0;
};

// Reads the integer field `name` of `object` into `*out`; an absent field
// leaves `*out` as it is. A present field must be an integral number that
// fits in an int ("v", "priority", "workers", "executors",
// "storage_nodes"); anything else is an error naming the field.
Status read_int(const json::Value& object, std::string_view name, int* out);

// Parses one request line: a JSON object with a supported "v", then either
// a "cmd" or a job. On error `req->object` still holds whatever parsed (so
// serve can echo the "id"); the other fields are unspecified.
Status parse_request(const std::string& line, Request* req);

// Starts a response line: `{"v": 1, "id": <id>` (scalar ids echo back,
// anything else is null). The caller appends fields and the closing brace.
void open_response(std::ostream& os, const json::Value* id);

// A complete {"v": 1, "id": …, "error": "…"} response (no newline).
std::string error_response(const json::Value* id, const std::string& message);

// One completed job as an NDJSON response line ({"v": 1, "id": …, "name",
// "state", "arrival", "wait", "jct", "slowdown", "planned_delay",
// "cache": "hit"|"miss"}). "id" is the scheduler's JobId; a non-null
// `request_id` (the "id" of the request line that submitted the job) adds
// "request_id": … right after it.
void write_job_status(std::ostream& os, const JobStatus& status,
                      const json::Value* request_id = nullptr);

}  // namespace ds::service
