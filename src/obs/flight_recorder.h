// FlightRecorder — the always-on scheduler audit trail.
//
// A bounded ring of fixed-size structured records, one per scheduler /
// engine lifecycle transition (submit → admit → size/grant → plan → run →
// stage finishes → replan/recovery → release → finish/fail, plus
// slo_violation marks), each stamped with the *simulated* time it happened
// and the queueing context that explains it (queue depth, ledger occupancy,
// plan-cache hit/miss, chosen delay budget). Because every record is
// emitted from inside a simulator event, the trail is bit-identical for any
// planner thread count — the same determinism contract the scheduler itself
// makes (flight_recorder_test pins it).
//
// Cost model: recording is one branch when disabled; when enabled it is a
// short critical section copying ~100 bytes into a preallocated EventRing —
// no allocation in the steady state (dynamic labels go through intern(),
// which deduplicates into recorder-owned storage, bounded by the number of
// *distinct* labels). The ring wraps, counting what it overwrote in
// dropped(), so memory stays bounded no matter how long the service runs —
// the flight-recorder idiom: you keep the last N transitions, which is what
// you want when something just went wrong.
//
// Dumps are versioned NDJSON ({"v": 1, "t": …, "ev": "admit", …}, one
// record per line, ring order): on demand (write_ndjson / dump_now),
// automatically when a job reaches a terminal failure (the engine calls
// on_anomaly), and on any DS_CHECK violation once install_crash_dump()
// has registered the recorder with the util/check.h failure hook.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_ring.h"

namespace ds::obs {

enum class FlightKind : std::uint8_t {
  kSubmit,        // job entered the admission queue
  kAdmit,         // job left the queue (value = wait seconds)
  kGrant,         // ledger commitment (value = slots, aux = bandwidth B/s)
  kPlan,          // admission planning done (value = Σ delay, cache hit/miss)
  kRunStart,      // engine::JobRun launched
  kStageFinish,   // one stage finished (value = duration seconds)
  kReplan,        // mid-job replan applied (label = trigger reason)
  kRecovery,      // crash recovery: stage reopened (value = tasks re-run)
  kRelease,       // ledger grant returned
  kFinish,        // job finished (value = JCT, aux = slowdown)
  kFail,          // job failed terminally (label = reason)
  kSloViolation,  // an SLO rule crossed its threshold (label = rule)
  kMark,          // free-form structured annotation
};

// Stable NDJSON "ev" spelling for each kind.
const char* to_string(FlightKind kind);

struct FlightRecord {
  double t = 0;                  // sim seconds (wall for sim-less hosts)
  FlightKind kind = FlightKind::kMark;
  std::uint64_t job = 0;         // service job id; 0 = none
  std::int32_t stage = -1;       // stage id; -1 = job-level
  std::int32_t priority = 0;     // job priority class
  const char* label = nullptr;   // static or interned detail string
  double queue_depth = -1;       // admission queue length; -1 = not sampled
  double occupancy = -1;         // ledger slot occupancy in [0,1]; -1 = n/a
  double value = 0;              // kind-specific (see enum comments)
  double aux = 0;                // kind-specific secondary value
  std::int8_t cache = -1;        // 1 = plan-cache hit, 0 = miss, -1 = n/a
  std::uint64_t seq = 0;         // filled by record(): total records so far
};

// Records an enabled recorder retains; older records are overwritten (and
// counted as dropped).
inline constexpr std::size_t kFlightCapacity = std::size_t{1} << 14;

struct FlightRecorderOptions {
  bool enabled = false;
  // Auto-dump target for on_anomaly() and the crash hook. Empty = no
  // auto-dump ("-" = stderr). Overwritten on every dump: the file always
  // holds the most recent trail.
  std::string dump_path;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions opt = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  bool enabled() const { return opt_.enabled; }

  // Append one record (seq is assigned here). One branch when disabled.
  void record(FlightRecord r);

  // Copy a dynamic string into recorder-owned storage; the pointer stays
  // valid for the recorder's lifetime. Deduplicates, so steady-state use
  // with a bounded label vocabulary allocates nothing.
  const char* intern(const std::string& s) { return events_.intern(s); }

  // Records ever accepted / overwritten by wraparound / currently retained.
  std::uint64_t recorded() const { return events_.recorded(); }
  std::uint64_t dropped() const { return events_.dropped(); }
  std::size_t size() const { return events_.size(); }

  // Retained records in ring (= seq) order.
  std::vector<FlightRecord> snapshot() const { return events_.snapshot(); }

  // Versioned NDJSON dump of the retained trail, ring order, one record per
  // line. Deterministic for a deterministic record stream.
  void write_ndjson(std::ostream& os) const;

  // Write the trail to opt.dump_path now, prefixed with one {"ev": "dump"}
  // header line naming `reason`. No-op (returns false) when disabled or no
  // dump_path is configured; never throws (an audit dump must not take the
  // process down with it).
  bool dump_now(const char* reason);

  // Anomaly entry point (job failure, invariant violation): records a kMark
  // with the reason, then dump_now(reason).
  void on_anomaly(const char* reason);

 private:
  const FlightRecorderOptions opt_;
  EventRing<FlightRecord> events_;
};

// Register `rec` with the DS_CHECK failure hook: any failed check dumps the
// trail (on_anomaly) before the CheckError propagates. One recorder at a
// time; install_crash_dump(nullptr) uninstalls (the recorder's destructor
// uninstalls itself automatically if still registered).
void install_crash_dump(FlightRecorder* rec);

}  // namespace ds::obs
