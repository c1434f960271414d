// TelemetrySink — streaming metric time series, replacing exit-only dumps.
//
// Each snapshot() appends ONE NDJSON line to the sink's stream: a versioned
// record stamping the full MetricsRegistry state (counters, gauges, and
// per-histogram {count, sum, mean, p50, p90, p99}) at a caller-supplied
// timestamp. The Scheduler drives it on a sim-time cadence (so for the
// deterministic sched/sim metrics the series is bit-identical for any
// --threads), while the plan daemon drives it on a wall-time cadence.
//
// The exclude prefix filter carves the deterministic surface out of a
// registry that also holds wall-clock and thread-racy metrics (planner.*
// memo counters, tracer.* ring drops): the sched CLI excludes those so its
// telemetry stream stays byte-reproducible, while the daemon streams
// everything.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ds::obs {

struct Observability;

struct TelemetryOptions {
  // Drop metrics whose name starts with one of these prefixes.
  std::vector<std::string> exclude_prefixes;
};

class TelemetrySink {
 public:
  // The stream must outlive the sink. Not owned, not closed.
  explicit TelemetrySink(std::ostream& os, TelemetryOptions opt = {});
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  // Append one {"v": 1, "seq": …, "t": …, "counters": …, "gauges": …,
  // "histograms": …} line for the registry state at time `t` (sim or wall
  // seconds — the caller's cadence defines the time base). Refreshes the
  // registry's derived metrics (tracer.dropped_spans, …) first, then
  // flushes the stream so a live `tail -f` sees every tick.
  void snapshot(Observability& obs, double t);

  std::uint64_t snapshots() const { return seq_; }

 private:
  bool keep(const std::string& name) const;

  std::ostream& os_;
  const TelemetryOptions opt_;
  std::uint64_t seq_ = 0;
};

}  // namespace ds::obs
