// PlanDaemon — the `delaystage_cli serve` loop: newline-delimited JSON plan
// requests on an istream, responses (one JSON object per line, in request
// order) on an ostream.
//
// Request shapes:
//   {"id": 7, "spec": "job,x\nstage,...", "cluster": "prototype",
//    "workers": 30, "executors": 2, "storage_nodes": 3, "quantile": 0.9}
//   {"cmd": "stats"}         → cache/profile counters
//   {"cmd": "save"}          → persist the profile store now
//
// `spec` is the dag/serialize job-spec text (newlines escaped as \n inside
// the JSON string). `cluster` names a preset (prototype | three_node; any
// other name is an error response); workers/executors/storage_nodes/
// congestion override individual fields of it, so a client can describe the
// live cluster it sees. Every other field is optional and defaults to the
// daemon's configuration.
//
// Responses echo the request `id` and carry "cache": "hit" | "miss" plus the
// full plan (core::plan_to_json). A malformed line produces
// {"id": ..., "error": "..."} — never a crash, never a dropped line.
//
// Dispatch is batched: up to `batch` lines are read, planned concurrently on
// a util/ThreadPool (the stores are thread-safe; responses land in
// per-index slots), then written in arrival order. Ordering is therefore
// preserved even though planning is parallel.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/telemetry.h"
#include "sim/cluster.h"
#include "store/plan_service.h"
#include "util/thread_pool.h"

namespace ds::store {

struct DaemonOptions {
  PlanServiceOptions service;
  // Preset used when a request names no cluster.
  sim::ClusterSpec cluster = sim::ClusterSpec::paper_prototype();
  int threads = 0;          // ThreadPool size; 0 = hardware concurrency
  std::size_t batch = 32;   // max requests planned per dispatch round
  // Streaming telemetry on a *wall-clock* cadence: serve() snapshots the
  // Observability registry into this sink at least telemetry_period seconds
  // apart, checked between dispatch rounds (a daemon blocked on stdin does
  // not tick). Requires a non-null obs. The sink must outlive the daemon.
  obs::TelemetrySink* telemetry = nullptr;
  double telemetry_period = 10.0;
};

struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t plans = 0;
  std::uint64_t errors = 0;
};

class PlanDaemon {
 public:
  explicit PlanDaemon(DaemonOptions options, obs::Observability* obs = nullptr);

  // Serve until EOF on `in`. Blank lines are skipped. Returns totals.
  DaemonStats serve(std::istream& in, std::ostream& out);

  // Handle one request line; returns the response JSON (no trailing
  // newline). Exposed for tests — serve() is this plus batching. `is_error`
  // (optional) reports whether the response is an error response.
  std::string handle_line(const std::string& line, bool* is_error = nullptr);

  PlanService& service() { return service_; }
  const DaemonStats& stats() const { return stats_; }

 private:
  // Wall seconds since construction (the daemon's telemetry/audit time base).
  double uptime_s() const;

  DaemonOptions opt_;
  obs::Observability* obs_;
  PlanService service_;
  ThreadPool pool_;
  DaemonStats stats_;
  obs::Counter requests_metric_;
  obs::Counter errors_metric_;
  obs::FlightRecorder* flight_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  double last_telemetry_ = -1;
};

}  // namespace ds::store
