#include "obs/analytics/analytics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/obs.h"
#include "util/check.h"

namespace ds::obs::analytics {

namespace {

constexpr double kEps = 1e-9;

double rel_of(Seconds residual, Seconds scale) {
  return std::abs(residual) / std::max(scale, kEps);
}

DriftSummary summarize_rel(std::vector<double>& rel) {
  DriftSummary s;
  s.count = static_cast<int>(rel.size());
  if (rel.empty()) return s;
  double sum = 0;
  for (double r : rel) sum += r;
  s.mean = sum / static_cast<double>(rel.size());
  std::sort(rel.begin(), rel.end());
  s.p50 = metrics::percentile(rel, 50);
  s.p90 = metrics::percentile(rel, 90);
  s.max = rel.back();
  return s;
}

std::string fmt1(double v) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << v;
  return os.str();
}

// Merge raw intervals into a disjoint ascending timeline clipped to
// [0, horizon], then derive the busy/idle partition.
ResourceTimeline build_timeline(std::vector<Interval> raw, Seconds horizon) {
  ResourceTimeline tl;
  std::vector<Interval> clipped;
  clipped.reserve(raw.size());
  for (const Interval& iv : raw) {
    const Seconds a = std::max<Seconds>(iv.start, 0);
    const Seconds b = std::min(iv.end, horizon);
    if (b > a) clipped.push_back({a, b});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& x, const Interval& y) {
              return x.start < y.start || (x.start == y.start && x.end < y.end);
            });
  for (const Interval& iv : clipped) {
    if (!tl.busy.empty() && iv.start <= tl.busy.back().end) {
      tl.busy.back().end = std::max(tl.busy.back().end, iv.end);
    } else {
      tl.busy.push_back(iv);
    }
  }
  for (const Interval& iv : tl.busy) tl.busy_seconds += iv.end - iv.start;
  tl.idle_seconds = horizon - tl.busy_seconds;
  if (horizon > 0) {
    tl.busy_fraction = tl.busy_seconds / horizon;
    tl.idle_fraction = tl.idle_seconds / horizon;
  }
  return tl;
}

// Seconds during which both (merged, ascending) timelines are busy.
Seconds overlap_seconds(const std::vector<Interval>& a,
                        const std::vector<Interval>& b) {
  Seconds overlap = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Seconds lo = std::max(a[i].start, b[j].start);
    const Seconds hi = std::min(a[i].end, b[j].end);
    if (hi > lo) overlap += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

// Raw (unmerged) busy intervals of one worker, per resource class.
struct RawWorker {
  std::vector<Interval> network, cpu, disk;
};

WorkerInterleaving finish_worker(std::int32_t pid, RawWorker&& raw,
                                 Seconds horizon) {
  WorkerInterleaving w;
  w.pid = pid;
  w.network = build_timeline(std::move(raw.network), horizon);
  w.cpu = build_timeline(std::move(raw.cpu), horizon);
  w.disk = build_timeline(std::move(raw.disk), horizon);
  w.net_cpu_overlap = overlap_seconds(w.network.busy, w.cpu.busy);
  const Seconds scarcer =
      std::min(w.network.busy_seconds, w.cpu.busy_seconds);
  w.overlap_fraction = scarcer > 0 ? w.net_cpu_overlap / scarcer : 0.0;
  w.interleaving_score = horizon > 0 ? w.net_cpu_overlap / horizon : 0.0;
  return w;
}

std::vector<Interval>* resource_of(RawWorker& w, const char* name) {
  if (std::strncmp(name, "fetch", 5) == 0) return &w.network;
  if (std::strncmp(name, "compute", 7) == 0) return &w.cpu;
  if (std::strncmp(name, "write", 5) == 0) return &w.disk;
  return nullptr;
}

}  // namespace

// --- model drift -----------------------------------------------------------

PhaseBreakdown predicted_breakdown(const core::StageTimeline& t) {
  PhaseBreakdown b;
  b.network = t.read_done - t.submitted;
  b.compute = t.compute_done - t.read_done;
  b.write = t.finish - t.compute_done;
  return b;
}

PhaseBreakdown actual_breakdown(const engine::StageRecord& r) {
  DS_CHECK_MSG(r.finish >= 0, "actual_breakdown wants a finished stage");
  PhaseBreakdown b;
  b.network = r.last_read_done - r.submitted;
  b.compute = r.last_compute_done - r.last_read_done;
  b.write = r.finish - r.last_compute_done;
  return b;
}

DriftReport model_drift(const std::vector<core::StageTimeline>& predicted,
                        const std::vector<Seconds>& delay,
                        const dag::JobDag& dag,
                        const engine::JobResult& actual) {
  DS_CHECK_MSG(predicted.size() >= actual.stages.size(),
               "predicted timeline shorter than the executed stage set");
  DriftReport rep;
  std::vector<double> rel_net, rel_cpu, rel_wr, rel_dur;
  for (std::size_t i = 0; i < actual.stages.size(); ++i) {
    const engine::StageRecord& rec = actual.stages[i];
    if (rec.finish < 0) continue;  // never ran (failed job)
    const PhaseBreakdown pred = predicted_breakdown(predicted[i]);
    const PhaseBreakdown act = actual_breakdown(rec);

    StageDrift d;
    d.stage = static_cast<dag::StageId>(i);
    d.name = dag.stage(d.stage).name;
    d.delay = i < delay.size() ? delay[i] : 0.0;
    const Seconds scale = pred.total();
    auto term = [&](Seconds p, Seconds a) {
      TermDrift t;
      t.predicted = p;
      t.actual = a;
      t.rel_error = rel_of(a - p, scale);
      return t;
    };
    d.network = term(pred.network, act.network);
    d.compute = term(pred.compute, act.compute);
    d.write = term(pred.write, act.write);
    d.duration = term(pred.total(), act.total());

    rel_net.push_back(d.network.rel_error);
    rel_cpu.push_back(d.compute.rel_error);
    rel_wr.push_back(d.write.rel_error);
    rel_dur.push_back(d.duration.rel_error);
    if (d.duration.rel_error > engine::kReplanTriggerRelError) {
      rep.warnings.push_back(
          "stage " + d.name + ": predicted " + fmt1(d.duration.predicted) +
          " s vs actual " + fmt1(d.duration.actual) + " s (rel error " +
          fmt1(100.0 * d.duration.rel_error) + " % > " +
          fmt1(100.0 * engine::kReplanTriggerRelError) + " %)");
    }
    rep.stages.push_back(std::move(d));
  }
  rep.network = summarize_rel(rel_net);
  rep.compute = summarize_rel(rel_cpu);
  rep.write = summarize_rel(rel_wr);
  rep.duration = summarize_rel(rel_dur);
  const auto check_term = [&](const char* name, const DriftSummary& s) {
    if (s.count > 0 && s.p90 > kDriftP90RelErrorBound) {
      rep.warnings.push_back(
          std::string(name) + " term: p90 relative error " +
          fmt1(100.0 * s.p90) + " % exceeds bound " +
          fmt1(100.0 * kDriftP90RelErrorBound) + " %");
    }
  };
  check_term("network", rep.network);
  check_term("compute", rep.compute);
  check_term("write", rep.write);
  return rep;
}

// --- interleaving ----------------------------------------------------------

InterleavingReport interleaving_from_spans(
    const std::vector<TraceEvent>& events, Seconds horizon) {
  // Engine task spans live on the worker pid tracks; their ts/dur are
  // sim-time microseconds.
  std::map<std::int32_t, RawWorker> raw;
  RawWorker cluster_raw;
  Seconds last_end = 0;
  for (const TraceEvent& ev : events) {
    if (ev.phase != 'X' || std::strcmp(ev.cat, "task") != 0) continue;
    if (ev.pid < kNodePidBase || ev.pid >= kPlannerPid) continue;
    RawWorker& w = raw[ev.pid];
    std::vector<Interval>* res = resource_of(w, ev.name);
    if (res == nullptr) continue;
    const Interval iv{ev.ts_us * 1e-6, (ev.ts_us + ev.dur_us) * 1e-6};
    res->push_back(iv);
    resource_of(cluster_raw, ev.name)->push_back(iv);
    last_end = std::max(last_end, iv.end);
  }
  InterleavingReport rep;
  rep.horizon = horizon > 0 ? horizon : last_end;
  for (auto& [pid, w] : raw)
    rep.workers.push_back(finish_worker(pid, std::move(w), rep.horizon));
  rep.cluster = finish_worker(-1, std::move(cluster_raw), rep.horizon);
  return rep;
}

InterleavingReport interleaving(const Tracer& tracer, Seconds horizon) {
  return interleaving_from_spans(tracer.snapshot(), horizon);
}

// --- series-based views ----------------------------------------------------

double percent_below(const metrics::TimeSeries& series, double threshold) {
  if (series.empty()) return 0.0;
  double below = 0;
  for (double v : series.values()) below += (v < threshold);
  return 100.0 * below / static_cast<double>(series.size());
}

WorkerUtilization worker_utilization(const metrics::UtilizationSampler& sampler,
                                     sim::NodeId worker, Seconds horizon) {
  WorkerUtilization u;
  u.cpu = sampler.cpu_util(worker);
  u.net = sampler.net_rx_mbps(worker);
  u.cpu_summary = u.cpu.summarize(0, horizon);
  u.net_summary = u.net.summarize(0, horizon);
  return u;
}

FleetUtilization fleet_utilization(const trace::ReplayResult& result) {
  FleetUtilization f;
  f.jobs = result.jobs.size();
  if (f.jobs == 0) return f;
  f.mean_jct_s = result.mean_jct();
  f.mean_dedicated_s = result.mean_dedicated();
  f.cluster_cpu_pct = result.mean_cpu_util();
  f.cluster_net_pct = result.mean_net_util();
  f.job_cpu_pct = result.mean_job_cpu_util();
  f.job_net_pct = result.mean_job_net_util();
  f.job_cpu_idle_pct = 100.0 - f.job_cpu_pct;
  f.job_net_idle_pct = 100.0 - f.job_net_pct;

  std::vector<double> cpu, net;
  cpu.reserve(f.jobs);
  net.reserve(f.jobs);
  Seconds delay_sum = 0;
  for (const auto& j : result.jobs) {
    cpu.push_back(100.0 * j.cpu_util);
    net.push_back(100.0 * j.net_util);
    delay_sum += j.planned_delay;
  }
  std::sort(cpu.begin(), cpu.end());
  std::sort(net.begin(), net.end());
  f.job_cpu_p50 = metrics::percentile(cpu, 50);
  f.job_cpu_p90 = metrics::percentile(cpu, 90);
  f.job_net_p50 = metrics::percentile(net, 50);
  f.job_net_p90 = metrics::percentile(net, 90);
  f.mean_planned_delay_s = delay_sum / static_cast<double>(f.jobs);
  return f;
}

}  // namespace ds::obs::analytics
