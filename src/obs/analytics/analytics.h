// Derived analytics over the observability layer: the paper's evaluation
// methodology (§2 motivation, §3 model validation, §5 utilization studies)
// as a library instead of per-bench arithmetic.
//
// Two report families:
//
//  * Model drift (Figs. 9–11): per-stage, per-term residuals between the
//    analytical model's predicted phase breakdown (Eq. 1–3, exported by the
//    planner as DelaySchedule::predicted_stages) and the engine's executed
//    StageRecords — network fetch vs [submitted, last_read_done), compute vs
//    [last_read_done, last_compute_done), shuffle write vs
//    [last_compute_done, finish). Residuals aggregate into per-term
//    percentile summaries, and fixed bounds turn model decay into explicit
//    warnings.
//
//  * Interleaving efficiency (Figs. 4/5/12/13, Tables 3/4): per-resource
//    busy/idle timelines derived online from the Tracer's engine task spans
//    (fetch → network, compute → CPU, write → disk), idle fractions, the
//    pairwise network×CPU overlap, and a makespan-normalized interleaving
//    score — the quantity DelayStage exists to raise. Series-based helpers
//    cover the sampler/replay views the bench binaries print so Fig. 4/12/13
//    and Table 3/4 all consume one implementation.
//
// Everything here is read-only over snapshots: computing a report never
// touches a live simulation, so analytics inherit the obs layer's passivity
// guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "dag/job.h"
#include "engine/records.h"
#include "engine/replan.h"
#include "metrics/sampler.h"
#include "metrics/stats.h"
#include "metrics/timeseries.h"
#include "obs/tracer.h"
#include "trace/replay.h"

namespace ds::obs::analytics {

// --- model drift -----------------------------------------------------------

// The three model terms of Eq. 1, as spans of one stage's timeline.
struct PhaseBreakdown {
  Seconds network = 0;  // shuffle-read transfer: max_i(s_i / B_i)
  Seconds compute = 0;  // data processing: Σ_i s_i / (ε · R_k)
  Seconds write = 0;    // shuffle write: d / D
  Seconds total() const { return network + compute + write; }
};

// Predicted breakdown of one stage under the planner's slotted simulation.
PhaseBreakdown predicted_breakdown(const core::StageTimeline& t);

// Executed breakdown from the engine's stage record. Requires a finished
// stage (finish >= 0); the write term absorbs any tail between the last
// compute completion and stage finish, mirroring the model's phase order.
PhaseBreakdown actual_breakdown(const engine::StageRecord& r);

struct TermDrift {
  Seconds predicted = 0;
  Seconds actual = 0;
  Seconds residual() const { return actual - predicted; }
  // |residual| normalized by the stage's *predicted total* duration, so a
  // near-zero individual term (e.g. a tiny write phase) cannot blow the
  // ratio up while a genuinely mis-modelled stage still registers.
  double rel_error = 0;
};

struct StageDrift {
  dag::StageId stage = dag::kNoStage;
  std::string name;
  Seconds delay = 0;  // planned x_k
  TermDrift network, compute, write;
  TermDrift duration;  // whole-stage span (submitted → finish)
};

// Percentile summary of one term's |relative error| across stages.
struct DriftSummary {
  int count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double max = 0;
};

// Warning bounds. Per stage: a stage's whole-duration relative error above
// engine::kReplanTriggerRelError, the bound at which an armed run requests
// a replan. Aggregate: a term's p90 relative error above this bound.
inline constexpr double kDriftP90RelErrorBound = 0.25;

struct DriftReport {
  std::vector<StageDrift> stages;  // finished stages only
  DriftSummary network, compute, write, duration;
  std::vector<std::string> warnings;
  bool within_bounds() const { return warnings.empty(); }
};

// Compare the planner's exported predictions against an executed run.
// `predicted` is DelaySchedule::predicted_stages (or any evaluator output
// for the same delay vector); `delay` is the planned X (short vectors mean
// zero, like SubmissionPlan). Unfinished stages are skipped.
DriftReport model_drift(const std::vector<core::StageTimeline>& predicted,
                        const std::vector<Seconds>& delay,
                        const dag::JobDag& dag,
                        const engine::JobResult& actual);

// --- interleaving efficiency (span-based) ----------------------------------

struct Interval {
  Seconds start = 0;
  Seconds end = 0;
};

// One resource's busy timeline over [0, horizon]: merged disjoint intervals
// in ascending order. busy + idle == horizon by construction.
struct ResourceTimeline {
  std::vector<Interval> busy;
  Seconds busy_seconds = 0;
  Seconds idle_seconds = 0;
  double busy_fraction = 0;
  double idle_fraction = 0;
};

struct WorkerInterleaving {
  // Chrome-trace pid of the worker track (kNodePidBase + node id); -1 for
  // the cluster-level union row.
  std::int32_t pid = -1;
  ResourceTimeline network, cpu, disk;
  // Seconds during which the network and the CPU are busy *simultaneously* —
  // the overlap DelayStage converts alternation into (Figs. 5/12).
  Seconds net_cpu_overlap = 0;
  // overlap / min(network busy, CPU busy): 1 means the scarcer resource is
  // always interleaved with the other; 0 means strict alternation.
  double overlap_fraction = 0;
  // overlap / horizon: the makespan-normalized interleaving score.
  double interleaving_score = 0;
};

struct InterleavingReport {
  Seconds horizon = 0;
  // Per worker node, ascending pid, only workers that recorded task spans.
  std::vector<WorkerInterleaving> workers;
  // Union across workers: a resource class is busy when any worker uses it.
  WorkerInterleaving cluster;
};

// Derive the report from engine task spans (category "task": names starting
// with fetch/compute/write, killed variants included — the resource was held
// either way). Spans are clipped to [0, horizon]; horizon <= 0 means "end of
// the last span" (pass the JCT for the paper's makespan-relative fractions).
InterleavingReport interleaving_from_spans(
    const std::vector<TraceEvent>& events, Seconds horizon = -1);
InterleavingReport interleaving(const Tracer& tracer, Seconds horizon = -1);

// --- series-based utilization views (Fig. 4/12/13, Tables 3/4) -------------

// Percent of samples strictly below `threshold` (Fig. 4's "below 10% CPU
// for 39.1% of the time"). Empty series → 0.
double percent_below(const metrics::TimeSeries& series, double threshold);

// A worker's sampled utilization over [0, horizon] — the series and
// mean(std) rows of Fig. 12 and Table 3.
struct WorkerUtilization {
  metrics::TimeSeries cpu;  // percent
  metrics::TimeSeries net;  // MB/s received
  metrics::Summary cpu_summary;
  metrics::Summary net_summary;
};
WorkerUtilization worker_utilization(const metrics::UtilizationSampler& sampler,
                                     sim::NodeId worker, Seconds horizon);

// Fleet-level aggregation of a trace replay: the Table 4 / Fig. 4 numbers
// plus idle fractions and per-job utilization percentiles.
struct FleetUtilization {
  std::size_t jobs = 0;
  double mean_jct_s = 0;
  double mean_dedicated_s = 0;
  // Cluster-occupancy time averages (percent) — Fig. 4(a).
  double cluster_cpu_pct = 0;
  double cluster_net_pct = 0;
  // Runtime-weighted utilization of the resources allocated to jobs
  // (percent) — Table 4's view — and the complementary idle fractions.
  double job_cpu_pct = 0;
  double job_net_pct = 0;
  double job_cpu_idle_pct = 0;
  double job_net_idle_pct = 0;
  // Per-job utilization spread (percent, unweighted percentiles).
  double job_cpu_p50 = 0;
  double job_cpu_p90 = 0;
  double job_net_p50 = 0;
  double job_net_p90 = 0;
  // Mean total planned delay Σ_k x_k per job (0 for stock strategies).
  Seconds mean_planned_delay_s = 0;
};
FleetUtilization fleet_utilization(const trace::ReplayResult& result);

}  // namespace ds::obs::analytics
