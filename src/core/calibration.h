// Online recalibration of the Eq. 1 coefficients from observed runs.
//
// PR 5's drift analytics measure, per stage and per term, how far the
// planner's predicted phase spans (network fetch / compute / shuffle write)
// land from what the engine actually executed. This module closes the loop:
// a ModelCalibrator folds those residuals into per-workload-signature EWMA
// correction factors, and calibrated_profile applies them to a JobProfile
// so the *next* plan for a recurrent workload starts from observed truth
// instead of the stale profile.
//
// The correction is multiplicative per Eq. 1 term:
//   network factor f_n — observed fetch spans ran f_n × the prediction, so
//     the effective NIC/storage bandwidth is divided by f_n;
//   compute factor f_c — multiplies JobProfile::compute_time_scale;
//   write factor f_w — divides the profiled disk bandwidth.
// All factors start at exactly 1.0 and an identity calibration is a bit-
// exact no-op (x · 1.0 and x / 1.0 are IEEE identities), so plans for
// never-observed workloads are unchanged down to the last bit.
//
// Layering: this lives in core and consumes plain Seconds sums extracted
// from (DelaySchedule, engine::JobResult) pairs — it cannot depend on
// obs/analytics' DriftReport (ds_analytics links *against* core), but the
// phase-boundary mapping is identical to analytics::actual_breakdown.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/delay_calculator.h"
#include "core/perf_model.h"
#include "core/profile.h"
#include "engine/records.h"

namespace ds::core {

// Structural fingerprint of a workload: stage volumes, rates, skews and the
// dependency shape. Recurrent submissions of the same job hash identically
// (whatever their JobDag instance), which is the key calibration state is
// accumulated under.
std::uint64_t workload_signature(const dag::JobDag& dag);

struct CalibrationOptions {
  // EWMA weight of the newest observation. 0.4 converges in ~3 recurrences
  // while still averaging out per-run skew noise.
  double ewma_alpha = 0.4;
  // Clamp on each per-run actual/predicted ratio and on the running
  // factors: one wild run (a crash-mangled stage, a division by a tiny
  // prediction) must not poison the profile.
  double min_factor = 0.2;
  double max_factor = 5.0;
};

// Per-term multiplicative corrections (observed time / predicted time).
struct CalibrationFactors {
  double network = 1.0;
  double compute = 1.0;
  double write = 1.0;
  int observations = 0;

  bool is_identity() const {
    return network == 1.0 && compute == 1.0 && write == 1.0;
  }
};

// One executed run's per-term evidence: predicted and measured phase spans
// summed over the stages that ran cleanly (no crash-driven reruns).
struct PhaseObservation {
  Seconds predicted_network = 0;
  Seconds predicted_compute = 0;
  Seconds predicted_write = 0;
  Seconds actual_network = 0;
  Seconds actual_compute = 0;
  Seconds actual_write = 0;

  bool usable() const {
    return predicted_network > 0 || predicted_compute > 0 ||
           predicted_write > 0;
  }
};

// Join a planned schedule against its executed run. Phase mapping matches
// obs/analytics: network = [submitted, last_read_done), compute =
// [last_read_done, last_compute_done), write = [last_compute_done, finish).
// Stages that were resubmitted or had tasks rerun (crash recovery inflates
// their spans for reasons that are not model error) are excluded.
PhaseObservation observe_run(const DelaySchedule& plan,
                             const engine::JobResult& result);
// Same join for callers that hold a raw predicted timeline (e.g. the
// adaptive trace replay, which predicts with the evaluator directly even
// for zero-delay stock plans).
PhaseObservation observe_timelines(const std::vector<StageTimeline>& predicted,
                                   const engine::JobResult& result);

// Thread-safe store of per-workload correction factors. Safe to share across
// a whole trace replay; observation order is the only thing that matters for
// determinism (the adaptive replay feeds it sequentially in arrival order).
class ModelCalibrator {
 public:
  explicit ModelCalibrator(CalibrationOptions options = {});

  // Fold one run's evidence into the workload's factors:
  //   f ← (1 − α)·f + α·clamp(actual / predicted).
  // Unusable observations (no predicted spans) are ignored.
  void observe(std::uint64_t signature, const PhaseObservation& obs);

  // Current factors; identity for never-observed signatures.
  CalibrationFactors factors(std::uint64_t signature) const;

  // Persistence hooks for the profile store (store/profile_store.h):
  // snapshot() returns every signature's factors sorted by signature (a
  // deterministic order, so saved files are byte-stable run over run);
  // restore() overwrites one signature's factors wholesale — the loaded
  // values are the bit-exact doubles snapshot() exported, never re-derived.
  std::vector<std::pair<std::uint64_t, CalibrationFactors>> snapshot() const;
  void restore(std::uint64_t signature, const CalibrationFactors& factors);

  std::size_t workloads() const;
  const CalibrationOptions& options() const { return opt_; }

 private:
  CalibrationOptions opt_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, CalibrationFactors> factors_;
};

// `base` with the corrections applied (dag pointer is shared, not owned).
// Identity factors return a field-for-field copy of `base`.
JobProfile calibrated_profile(const JobProfile& base,
                              const CalibrationFactors& f);

}  // namespace ds::core
