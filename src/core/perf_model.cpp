#include "core/perf_model.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "engine/job_run.h"
#include "util/check.h"

namespace ds::core {

PerfModel::PerfModel(const JobProfile& profile, ModelOptions options)
    : profile_(profile), options_(options) {
  DS_CHECK_MSG(profile.dag != nullptr, "profile has no DAG");
  DS_CHECK(profile.cluster.num_workers > 0);
  DS_CHECK(profile.cluster.executors_per_worker > 0);
  DS_CHECK(profile.cluster.nic_bw > 0);
  DS_CHECK(profile.cluster.disk_bw > 0);
  DS_CHECK_MSG(profile.compute_time_scale > 0,
               "compute_time_scale must be positive");
  DS_CHECK_MSG(options_.quantile >= 0 && options_.quantile < 1.0,
               "model quantile must be in [0, 1)");
}

double inverse_normal_cdf(double p) {
  DS_CHECK_MSG(p > 0 && p < 1, "inverse_normal_cdf needs p in (0, 1)");
  // Acklam's rational approximation: a central rational fit plus matching
  // tail fits below/above the break points.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

Bytes PerfModel::read_work(dag::StageId k) const {
  return profile_.dag->stage(k).input_bytes;
}

Seconds PerfModel::compute_work(dag::StageId k) const {
  const dag::Stage& s = profile_.dag->stage(k);
  if (s.process_rate <= 0) return 0.0;
  // compute_time_scale defaults to 1.0 — a bit-exact multiplicative
  // identity — so uncalibrated profiles reproduce the legacy numbers.
  return profile_.compute_time_scale * (s.input_bytes / s.process_rate);
}

double PerfModel::straggler_factor(dag::StageId k) const {
  const dag::Stage& s = profile_.dag->stage(k);
  if (s.task_skew <= 0 || s.num_tasks < 2) return 1.0;
  const double t = static_cast<double>(s.num_tasks);
  double z;
  if (options_.quantile == 0.0) {
    // Legacy point estimate — expected maximum of T lognormal(0, σ)
    // multipliers ≈ exp(σ·z) with z = Φ⁻¹(T/(T+1)), using the asymptotic
    // inverse-normal expansion
    // z ≈ sqrt(2 ln T) − (ln 4π + ln ln T) / (2 sqrt(2 ln T)).
    const double l = std::sqrt(2.0 * std::log(t));
    z = std::max(0.5, l - (std::log(4.0 * std::numbers::pi) +
                           std::log(std::log(t))) /
                              (2.0 * l));
  } else {
    // Quantile target: P(max of T iid ≤ m) = q ⇔ per-task CDF = q^{1/T},
    // so the q-quantile of the stage's slowest task is exp(σ·Φ⁻¹(q^{1/T})).
    // Floored at 0.5 like the legacy z so low quantiles of small stages do
    // not undercut the deterministic bulk estimate.
    z = std::max(0.5, inverse_normal_cdf(std::pow(options_.quantile, 1.0 / t)));
  }
  double factor = std::exp(s.task_skew * z);
  if (options_.speculation) {
    // A copy launches once the primary runs kSpeculationThreshold × the
    // median; the median-speed copy then finishes ~1 median later, so the
    // effective straggler multiplier is truncated at threshold + 1.
    factor = std::min(factor, engine::kSpeculationThreshold + 1.0);
  }
  return factor;
}

Bytes PerfModel::write_work(dag::StageId k) const {
  return profile_.dag->stage(k).output_bytes;
}

BytesPerSec PerfModel::read_rate_alone(dag::StageId k) const {
  const auto& c = profile_.cluster;
  // Shuffle reads are bounded by the workers' aggregate ingress; source-stage
  // reads additionally by the HDFS nodes' aggregate egress (3 storage nodes
  // feeding 30 workers bottleneck on the storage side, as in the prototype).
  const BytesPerSec worker_side = c.num_workers * c.nic_bw;
  if (profile_.dag->parents(k).empty() && c.num_storage_nodes > 0) {
    const BytesPerSec storage_side = c.storage_net_bw > 0
                                         ? c.storage_net_bw
                                         : c.num_storage_nodes * c.nic_bw;
    return std::min(worker_side, storage_side);
  }
  return worker_side;
}

double PerfModel::usable_executors(dag::StageId k) const {
  return std::min(static_cast<double>(profile_.dag->stage(k).num_tasks),
                  static_cast<double>(profile_.cluster.total_executors()));
}

Seconds PerfModel::straggler_tail(dag::StageId k) const {
  const dag::Stage& s = profile_.dag->stage(k);
  if (s.num_tasks <= 0) return 0.0;
  // The largest task is the last to finish reading, and its whole compute
  // happens after the stage's read span ends (Eq. 2's slowest worker).
  return compute_work(k) / static_cast<double>(s.num_tasks) *
         straggler_factor(k);
}

BytesPerSec PerfModel::write_rate_alone() const {
  return profile_.cluster.num_workers * profile_.cluster.disk_bw;
}

PhaseTimes PerfModel::stage_phases(dag::StageId k, const Shares& shares) const {
  DS_CHECK(shares.network >= 1 && shares.cpu >= 1 && shares.disk >= 1);
  PhaseTimes t;
  t.read = read_work(k) / (read_rate_alone(k) / shares.network);
  const double execs =
      std::max(1.0, std::min(usable_executors(k),
                             profile_.cluster.total_executors() / shares.cpu));
  t.compute = compute_work(k) / execs;
  t.write = write_work(k) / (write_rate_alone() / shares.disk);
  return t;
}

Seconds PerfModel::solo_time(dag::StageId k) const {
  // The compute span cannot undercut the largest task (Eq. 2); the straggler
  // tail replaces the bulk span when it dominates.
  const PhaseTimes t = stage_phases(k, Shares{});
  return t.read + std::max(t.compute, straggler_tail(k)) + t.write;
}

}  // namespace ds::core
