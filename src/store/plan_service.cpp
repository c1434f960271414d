#include "store/plan_service.h"

#include <iostream>

#include "util/check.h"

namespace ds::store {

PlanService::PlanService(PlanServiceOptions options, obs::Observability* obs)
    : opt_(options),
      profiles_(obs),
      cache_(options.cache, obs),
      plans_(obs::counter(obs, "plan_service.requests")),
      cold_plans_(obs::counter(obs, "plan_service.cold_plans")) {
  if (!opt_.store_path.empty()) {
    const Status st = profiles_.load(opt_.store_path, &load_info_);
    // A bad header is a real misconfiguration (wrong file), but it must not
    // take the service down: warn and run cold, exactly like a first boot.
    // Remember the error so save() does not replace that file.
    if (!st.is_ok()) {
      std::clog << "[WARN ] " << st.message()
                << " — starting with an empty profile store\n";
      load_error_ = st;
      load_info_ = core::ModelCalibrator::LoadInfo{};
      load_info_.missing = true;
    } else if (load_info_.truncated) {
      std::clog << "[WARN ] profile store " << opt_.store_path
                << " had a corrupt tail; recovered " << load_info_.records
                << " record(s)\n";
    }
  }
}

PlanService::Planned PlanService::plan(const dag::JobDag& dag,
                                       const core::JobProfile& profile) {
  return plan(dag, profile, opt_.calculator);
}

PlanService::Planned PlanService::plan(
    const dag::JobDag& dag, const core::JobProfile& profile,
    const core::CalculatorOptions& options) {
  DS_CHECK_MSG(profile.dag == &dag, "profile must be built from this dag");
  plans_.inc();

  Planned out;
  out.signature = core::workload_signature(dag);
  out.epoch = profiles_.epoch(out.signature);

  PlanKey key;
  key.signature = out.signature;
  key.bucket = bucket_of(profile.cluster);
  key.options = options_digest(options);

  if (auto hit = cache_.find(key, out.epoch); hit != nullptr) {
    out.plan = std::move(hit);
    out.cache_hit = true;
    return out;
  }

  // Miss: plan against the calibrated profile (a bit-exact copy of the
  // caller's for never-observed workloads and every cold start).
  cold_plans_.inc();
  const core::JobProfile calibrated =
      core::calibrated_profile(profile, profiles_.factors(out.signature));
  auto plan = std::make_shared<const core::DelaySchedule>(
      core::DelayCalculator(calibrated, options).compute());
  cache_.insert(key, out.epoch, plan);
  out.plan = std::move(plan);
  return out;
}

void PlanService::observe(const dag::JobDag& dag,
                          const core::DelaySchedule& plan,
                          const engine::JobResult& result) {
  observe(core::workload_signature(dag), core::observe_run(plan, result));
}

void PlanService::observe(std::uint64_t signature,
                          const core::PhaseObservation& obs) {
  if (profiles_.observe(signature, obs)) cache_.invalidate_signature(signature);
}

Status PlanService::save() const {
  if (opt_.store_path.empty()) return Status::ok();
  if (!load_error_.is_ok())
    return Status::error("not saving over " + opt_.store_path +
                         ", which did not load: " + load_error_.message());
  return profiles_.save(opt_.store_path);
}

}  // namespace ds::store
