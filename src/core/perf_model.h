// Analytical stage performance model — Eq. (1)–(3) of the paper.
//
// Per-task time on a worker (Eq. 1) is the sum of three resource phases:
//     max_i( s_i / B_i )        shuffle-read transfer (slowest source)
//   + Σ_i s_i / (ε · R_k)       data processing on the stage's executors
//   + d / D                     shuffle write to the local disk
// and the stage time is the slowest worker (Eq. 2). With balanced data this
// aggregates to cluster-level phase durations, which is the form both the
// solo estimate ^t_k (Alg. 1 line 2) and the slotted evaluator use. Each
// phase's duration scales with how many stages share that resource — the
// `shares` argument is f_w_τ(X) by another name.
#pragma once

#include "core/profile.h"
#include "dag/stage.h"

namespace ds::core {

// Resource-sharing factors: how many stages concurrently use each resource.
struct Shares {
  double network = 1;
  double cpu = 1;
  double disk = 1;
};

// How the model turns per-task dispersion (Stage::task_skew) into a stage
// completion estimate. The defaults reproduce the paper's point estimate
// bit-exactly; quantile/speculation are the distribution-aware extensions
// ("Towards Stochastically Optimizing Data Computing Flows", PAPERS.md).
struct ModelOptions {
  // 0 (default): legacy expected-maximum straggler estimate, numerically
  // identical to the pre-quantile model. (0, 1): plan against this quantile
  // of the stage completion distribution — the straggler inflation becomes
  // exp(σ·Φ⁻¹(q^{1/T})) for the q-quantile of the max of T lognormal(0, σ)
  // task multipliers, so p90/p95 plans budget for tail tasks the mean never
  // sees. Must be < 1.
  double quantile = 0.0;
  // Co-optimization with the engine's speculation policy: a speculative copy
  // relaunches any task running past engine::kSpeculationThreshold × the
  // median, which truncates the straggler distribution — the modeled
  // inflation is capped at threshold + 1 (original wait plus a median-speed
  // copy).
  bool speculation = false;

  bool is_identity() const { return quantile == 0.0 && !speculation; }
};

struct PhaseTimes {
  Seconds read = 0;
  Seconds compute = 0;
  Seconds write = 0;
  Seconds total() const { return read + compute + write; }
};

class PerfModel {
 public:
  explicit PerfModel(const JobProfile& profile, ModelOptions options = {});

  // Phase durations of stage k under the given sharing factors (Eq. 1
  // aggregated over the slowest worker, Eq. 2).
  PhaseTimes stage_phases(dag::StageId k, const Shares& shares) const;

  // ^t_k: stage time as if running alone in the cluster (Alg. 1 line 2).
  Seconds solo_time(dag::StageId k) const;

  // Raw phase *work* terms used by the slotted evaluator:
  //   read: bytes to move; compute: executor-seconds; write: bytes to write.
  Bytes read_work(dag::StageId k) const;
  Seconds compute_work(dag::StageId k) const;
  Bytes write_work(dag::StageId k) const;

  // Eq. (2) takes the *slowest* worker: with skewed partitions the largest
  // task gates the stage. For lognormal(σ) multipliers over T tasks the
  // expected maximum is ≈ exp(σ·sqrt(2·ln T)); compute_work is inflated by
  // this factor (network/disk phases are bandwidth-shared, so their span
  // tracks total volume, not the largest task).
  double straggler_factor(dag::StageId k) const;

  // Compute time of the largest task — the tail that must elapse after the
  // stage's shuffle-read span before the stage can finish.
  Seconds straggler_tail(dag::StageId k) const;

  // Aggregate service rates at share 1 (the evaluator divides by the live
  // sharing count each slot).
  BytesPerSec read_rate_alone(dag::StageId k) const;
  // Executors stage k can actually use (min of task count and cluster size).
  double usable_executors(dag::StageId k) const;
  BytesPerSec write_rate_alone() const;

  const ModelOptions& options() const { return options_; }

 private:
  const JobProfile& profile_;
  ModelOptions options_;
};

// Φ⁻¹: inverse of the standard normal CDF (Acklam's rational approximation,
// |relative error| < 1.15e-9 over (0, 1)). Exposed for tests.
double inverse_normal_cdf(double p);

}  // namespace ds::core
