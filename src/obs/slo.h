// Online SLO tracking over mergeable quantile sketches.
//
// An SloTracker holds one QuantileSketch per (metric, priority class) —
// JCT, slowdown, queue wait and plan latency — fed live by the Scheduler as
// jobs move through the pipeline. Rules like "p99_slowdown<=2.5" are
// evaluated against the fleet-wide sketch (all priority classes merged;
// merging is exact, see quantile_sketch.h, so the evaluated quantile is
// bit-identical for any observation order or planner thread count). Each
// ok→violated transition emits a structured slo_violation flight-recorder
// event and bumps the slo.violations counter; the per-rule current value is
// published as the slo.<spec> gauge so telemetry streams the SLO state on
// every cadence tick.
//
// Rule grammar (parse_slo_rule):  p<quantile>_<metric><=<threshold>
//   quantile  integer 1..99 or decimal ("p99", "p99.9", "p50")
//   metric    jct | slowdown | queue_wait | plan_latency
//   threshold positive double (seconds, or a ratio for slowdown)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantile_sketch.h"
#include "obs/registry.h"
#include "util/status.h"

namespace ds::obs {

class FlightRecorder;
struct Observability;

enum class SloMetric : std::uint8_t {
  kJct,          // finish − arrival, seconds (queueing included)
  kSlowdown,     // jct / dedicated-cluster estimate, dimensionless
  kQueueWait,    // admitted − arrival, seconds
  kPlanLatency,  // admission planning wall seconds (nondeterministic!)
};

const char* to_string(SloMetric metric);

struct SloRule {
  SloMetric metric = SloMetric::kSlowdown;
  double quantile = 0.99;   // in (0, 1)
  double threshold = 0;     // violated when quantile value exceeds this
  std::string spec;         // original "p99_slowdown<=2.5" spelling
};

// Parse one rule from its CLI spelling. On error `out` is untouched.
Status parse_slo_rule(std::string_view text, SloRule* out);

struct SloOptions {
  std::vector<SloRule> rules;
};

class SloTracker {
 public:
  // `obs` and `flight` may be null (gauges/events silently disabled); the
  // tracker still answers quantile queries and write_ndjson.
  SloTracker(SloOptions opt, Observability* obs, FlightRecorder* flight);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  bool empty() const { return opt_.rules.empty(); }
  const std::vector<SloRule>& rules() const { return opt_.rules; }

  // Feed points as the scheduler learns them (admission → queue wait + plan
  // latency, completion → jct + slowdown).
  void observe_queue_wait(int priority, double seconds);
  void observe_plan_latency(int priority, double seconds);
  void observe_finish(int priority, double jct, double slowdown);

  // Re-evaluate every rule at time `t`: update the slo.<spec> gauges and,
  // on each ok→violated transition, record a kSloViolation flight event
  // (value = observed quantile, aux = threshold) and bump slo.violations.
  // A rule with no observations yet evaluates as ok.
  void evaluate(double t);

  // Fleet-wide sketch for a metric (all priority classes merged — exact).
  QuantileSketch merged(SloMetric metric) const;

  std::uint64_t violations() const { return violations_; }
  bool violated(std::size_t rule_index) const;

  // One {"v": 1, "ev": "slo", "t": …, "rules": [...]} NDJSON line with each
  // rule's current value / threshold / violation state — the stats command's
  // SLO section.
  void write_ndjson(std::ostream& os, double t) const;

 private:
  QuantileSketch& sketch(SloMetric metric, int priority);

  const SloOptions opt_;
  FlightRecorder* flight_;
  // (metric, priority class) → sketch. std::map keeps merge order (and thus
  // nothing — merges are order-independent anyway) stable for readers.
  std::map<std::pair<int, int>, QuantileSketch> sketches_;
  std::vector<bool> violated_;      // per rule, current state
  std::vector<Gauge> rule_gauges_;  // slo.<spec>
  Counter m_violations_;
  std::uint64_t violations_ = 0;
};

}  // namespace ds::obs
