// PlanService — the plan-as-a-service front: workload signature → profile
// calibration (core::ModelCalibrator) → sharded plan memoization (PlanCache)
// → DelayCalculator on miss.
//
// The cold-start contract: with an empty (or absent) store, factors are
// identity, and calibrated_profile with identity factors is a bit-exact copy
// of the caller's profile, so the first plan for any workload is
// bit-identical to calling DelayCalculator directly. Warm hits return the
// very DelaySchedule object computed on the cold path (a shared_ptr copy),
// so they are bit-identical by construction.
//
// Thread safety: plan() and observe() may be called from any number of
// threads. Two concurrent misses on one key both compute (the calculator is
// deterministic, so they compute the same plan) and the last insert wins —
// no lock is held around the planner itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "core/profile.h"
#include "engine/records.h"
#include "store/plan_cache.h"

namespace ds::store {

struct PlanServiceOptions {
  // Planner configuration shared by every request (threads/seed/obs ride in
  // via CommonOptions). Per-request model quantile overrides are part of the
  // cache key, so mixed-quantile clients coexist.
  core::CalculatorOptions calculator;
  PlanCache::Options cache;
  // When set, the ctor loads this store file (missing file = cold start)
  // and save() persists back to it — unless the file existed but did not
  // load (wrong magic, other version): save() then leaves it untouched.
  std::string store_path;
};

class PlanService {
 public:
  struct Planned {
    std::shared_ptr<const core::DelaySchedule> plan;
    bool cache_hit = false;
    std::uint64_t signature = 0;
    std::uint64_t epoch = 0;
  };

  explicit PlanService(PlanServiceOptions options = {},
                       obs::Observability* obs = nullptr);

  // Plan `dag` against `profile` (which must point at `dag`). `options`
  // overrides the service-wide calculator config for this request.
  Planned plan(const dag::JobDag& dag, const core::JobProfile& profile);
  Planned plan(const dag::JobDag& dag, const core::JobProfile& profile,
               const core::CalculatorOptions& options);

  // Fold an executed run back into the calibrator; on drift the
  // signature's cached plans are dropped.
  void observe(const dag::JobDag& dag, const core::DelaySchedule& plan,
               const engine::JobResult& result);
  void observe(std::uint64_t signature, const core::PhaseObservation& obs);

  // Persist the calibrator to options().store_path (no-op Status::ok()
  // when no path is configured). An error naming the path, and no write,
  // when the constructor could not read that file.
  Status save() const;

  core::ModelCalibrator& profiles() { return profiles_; }
  PlanCache& cache() { return cache_; }
  const PlanServiceOptions& options() const { return opt_; }
  // The LoadInfo of the constructor's store load (all-defaults when no
  // store_path was configured).
  const core::ModelCalibrator::LoadInfo& load_info() const {
    return load_info_;
  }

 private:
  PlanServiceOptions opt_;
  core::ModelCalibrator profiles_;
  PlanCache cache_;
  core::ModelCalibrator::LoadInfo load_info_;
  Status load_error_;
  obs::Counter plans_;
  obs::Counter cold_plans_;
};

}  // namespace ds::store
