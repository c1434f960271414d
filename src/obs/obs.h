// The observability sink every subsystem publishes into, plus the null-safe
// resolvers instrumented code uses at construction time.
//
// One Observability instance bundles a MetricsRegistry and a Tracer. Code
// takes an `Observability*` (almost always via ds::CommonOptions::obs) and
// resolves typed handles once:
//
//   obs::Counter events_ = obs::counter(opts.obs, "sim.events");
//   obs::Tracer* trace_  = obs::tracer(opts.obs);   // nullptr when disabled
//
// A null sink yields disabled handles — each hot-path update is one branch,
// and no trace call is ever made (callers guard span emission on the
// nullptr). Crucially, instrumentation never schedules simulator events and
// never feeds back into any decision, so enabling observability cannot
// change a simulation result bit (obs_test pins this).
//
// Chrome-trace track layout (shared by every instrumented layer):
//   pid 0                 stage lifecycle; tid = stage id
//   pid 1+n               worker node n;   tid = executor slot lane
//   pid kPlannerPid       planner phases (wall clock); tid = restart index
#pragma once

#include <string>
#include <string_view>

#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace ds::obs {

constexpr std::int32_t kJobPid = 0;
constexpr std::int32_t kNodePidBase = 1;
constexpr std::int32_t kPlannerPid = 1 << 20;

struct Observability {
  Observability() = default;
  explicit Observability(TracerOptions trace_options) : tracer(trace_options) {}
  Observability(TracerOptions trace_options,
                FlightRecorderOptions flight_options)
      : tracer(trace_options), flight(flight_options) {}
  MetricsRegistry metrics;
  Tracer tracer;
  FlightRecorder flight;

  // Fold ring-buffer loss counts into the registry (tracer.dropped_spans,
  // flight.dropped_records) so exporters see them as ordinary counters.
  // Counters only move forward, so this applies the delta since the last
  // refresh. Called by TelemetrySink::snapshot and the CLIs' exit flush.
  void refresh_derived();
};

// The resolvers build the metric name (and a histogram's buckets) only for a
// live sink: a null sink allocates nothing, so components built in bulk
// without one (every node's disk fabric) pay nothing for instrumentation.
inline Counter counter(Observability* obs, std::string_view name) {
  return obs != nullptr ? obs->metrics.counter(std::string(name)) : Counter();
}

inline Gauge gauge(Observability* obs, std::string_view name) {
  return obs != nullptr ? obs->metrics.gauge(std::string(name)) : Gauge();
}

// Buckets are exponential_buckets(start, factor, count).
inline Histogram histogram(Observability* obs, std::string_view name,
                           double start, double factor, int count) {
  return obs != nullptr
             ? obs->metrics.histogram(std::string(name),
                                      exponential_buckets(start, factor, count))
             : Histogram();
}

inline Tracer* tracer(Observability* obs) {
  return obs != nullptr && obs->tracer.enabled() ? &obs->tracer : nullptr;
}

inline FlightRecorder* flight(Observability* obs) {
  return obs != nullptr && obs->flight.enabled() ? &obs->flight : nullptr;
}

// RAII wall-clock span for host-side phases (planner scans, restarts). No-op
// when constructed with a null tracer.
class WallSpan {
 public:
  WallSpan(Tracer* tracer, const char* cat, const char* name, std::int32_t pid,
           std::int32_t tid, const char* arg_name = nullptr,
           double arg_value = 0);
  ~WallSpan();
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* cat_;
  const char* name_;
  std::int32_t pid_;
  std::int32_t tid_;
  const char* arg_name_;
  double arg_value_;
  double start_s_ = 0;
};

}  // namespace ds::obs
