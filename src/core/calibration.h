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
#include <string>
#include <unordered_map>
#include <vector>

#include "core/delay_calculator.h"
#include "core/perf_model.h"
#include "core/profile.h"
#include "engine/records.h"
#include "obs/obs.h"
#include "util/status.h"

namespace ds::core {

// Structural fingerprint of a workload: stage volumes, rates, skews and the
// dependency shape. Recurrent submissions of the same job hash identically
// (whatever their JobDag instance), which is the key calibration state is
// accumulated under.
std::uint64_t workload_signature(const dag::JobDag& dag);

// The calibration constants. None is a knob: each value is the one the
// adaptive loop, the plan service and every golden figure were tuned with.
//
// EWMA weight of the newest observation. 0.4 converges in ~3 recurrences
// while still averaging out per-run skew noise.
inline constexpr double kCalibrationAlpha = 0.4;
// Clamp on each per-run actual/predicted ratio and on the running factors:
// one wild run (a crash-mangled stage, a division by a tiny prediction)
// must not poison the profile.
inline constexpr double kMinFactor = 0.2;
inline constexpr double kMaxFactor = 5.0;
// Relative movement of any factor, against the factors the workload's epoch
// was anchored at, that opens a new epoch: a 10% model shift is worth a
// fresh Alg. 1 search, smaller ones are per-run noise.
inline constexpr double kDriftThreshold = 0.10;

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

// Calibration state per workload signature: the EWMA correction factors,
// the calibration *epoch* and the factors the epoch was anchored at. The
// epoch advances whenever a fold moves any factor more than kDriftThreshold
// from that anchor; it is the drift signal the PlanCache invalidates on (a
// cached plan carries the epoch it was computed under).
//
// Thread-safe; observation order is the only thing that matters for
// determinism (the adaptive replay feeds it sequentially in arrival order).
//
// Persistence ("DSPS" v2): a magic+version header, then per signature one
// length-prefixed, CRC-32-checked record of 9 host-endian words (signature,
// epoch, observations, the three factors, the three anchor factors). The
// last record for a signature wins, so an interrupted append leaves a
// loadable valid prefix. save() writes `<path>.tmp` and renames it over
// `path`; load() keeps the valid prefix of a corrupt tail and treats a
// missing file as a cold start. A cold start carries identity factors, so
// planning through an empty store is bit-identical to planning without one.
class ModelCalibrator {
 public:
  struct LoadInfo {
    bool missing = false;       // no file — cold start
    bool truncated = false;     // corrupt/short tail dropped
    std::size_t records = 0;    // records recovered
    std::size_t discarded = 0;  // records dropped (bad CRC / short read)
  };

  // `obs` (optional) receives profile_store.observations, .drifts and the
  // .workloads gauge.
  explicit ModelCalibrator(obs::Observability* obs = nullptr);

  // Fold one run's evidence into the workload's factors:
  //   f ← (1 − α)·f + α·clamp(actual / predicted).
  // Unusable observations (no predicted spans) are ignored. Returns true
  // when the fold advanced the epoch — the caller should drop that
  // signature's cached plans (PlanService does).
  bool observe(std::uint64_t signature, const PhaseObservation& obs);

  // Current factors; identity for never-observed signatures.
  CalibrationFactors factors(std::uint64_t signature) const;
  // 0 for never-observed signatures.
  std::uint64_t epoch(std::uint64_t signature) const;
  std::size_t workloads() const;

  // Records are sorted by signature, so identical state produces an
  // identical file.
  Status save(const std::string& path) const;
  // Replace the contents with the file's records. Missing file → empty, ok.
  // Bad header (magic or version) → error, contents untouched. Corrupt tail
  // → valid prefix kept, ok with info->truncated set.
  Status load(const std::string& path, LoadInfo* info = nullptr);

 private:
  struct Entry {
    CalibrationFactors factors;
    CalibrationFactors anchor;  // the factors the current epoch opened with
    std::uint64_t epoch = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  obs::Counter observations_;
  obs::Counter drifts_;
  obs::Gauge workloads_gauge_;
};

// `base` with the corrections applied (dag pointer is shared, not owned).
// Identity factors return a field-for-field copy of `base`.
JobProfile calibrated_profile(const JobProfile& base,
                              const CalibrationFactors& f);

}  // namespace ds::core
