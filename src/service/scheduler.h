// ds::Scheduler — the online multi-job scheduler service, and the library's
// canonical public entry point.
//
// Where trace::replay approximates cross-job contention with processor
// sharing (§5.3's simplification), the Scheduler hosts many concurrent
// engine::JobRuns on ONE simulated cluster: jobs arrive as a stream
// (submit / submit_at, fed by service::poisson_arrivals or trace-driven
// gaps), wait in an admission queue, and execute side by side on the shared
// ExecutorPool / NetworkFabric, contending for slots and links exactly as
// the discrete-event engine resolves them.
//
// Admission pipeline per job:
//   1. Sizing — the job's slot demand (widest stage, clamped to
//      [min_slots_per_job, max_share × cluster]) and the matching worker
//      NIC bandwidth become a ClusterLedger grant. The ledger can never
//      over-commit: admission waits until the grant fits.
//   2. Ordering — queued jobs are ranked by effective priority (priority
//      class minus ⌊wait / delay_budget⌋ aging, so no class starves), then
//      by the OrderPolicy score (FIFO / SJF-by-predicted-JCT / DAGPS-style
//      hard-stuff-first), then arrival order. Smaller jobs may backfill
//      around a job that does not fit — until that job has aged a full
//      budget quantum, at which point backfill stops and the cluster drains
//      for it (admission fairness under priority inversion).
//   3. Planning — the DelayStage planner (via store::PlanService, so plans
//      are cached and profiles calibrate across recurrent jobs) runs
//      against the job's *residual* capacity: a profile whose worker count
//      is the granted share and whose bandwidths are discounted by the
//      other jobs' committed occupancy — inter-job interference folded into
//      the same f_w_τ(X) sharing factors Eq. 1 already models. Jobs that
//      waited long have their planned delays scaled down by
//      max(0, 1 − wait/delay_budget): queueing already staggered them.
//   4. Execution — an engine::JobRun on the shared cluster, stage
//      priorities set to the job's class so the executor queue serves
//      important jobs first; completion releases the grant, feeds the run
//      back into the PlanService (profile calibration + drift
//      invalidation), and immediately re-runs admission.
//
// Determinism: arrivals, admissions and completions are all simulator
// events processed in deterministic order, and the planner is bit-identical
// for any thread count — so the whole service is bit-identical for any
// SchedulerOptions::threads (scheduler_test pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "engine/job_run.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "service/ledger.h"
#include "service/policy.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "store/plan_service.h"
#include "util/status.h"

namespace ds {

// CommonOptions supplies:
//   threads — planner workers on the admission path (the DelayCalculator's
//     candidate fan-out). Results are bit-identical for any value.
//   seed — cluster bandwidth draws, per-job engine seeds (job i runs with
//     seed + i) and the Poisson arrival generator convention.
//   obs — fleet metrics (sched.* counters/gauges/histograms) plus everything
//     the engine, planner and plan service publish.
struct SchedulerOptions : CommonOptions {
  sim::ClusterSpec cluster = sim::ClusterSpec::paper_prototype();
  // Cross-job ordering policy for the admission queue.
  service::OrderPolicy policy = service::OrderPolicy::kFifo;
  // DelayStage planning on admission; false = zero-delay stock baseline
  // (the `bench_paper sched` ablation's control arm).
  bool plan_delays = true;
  // Plan-service backing the admission planner (cache shards/capacity,
  // profile store path, calculator tuning). threads/seed/obs inside
  // plan.calculator are overridden from this struct's CommonOptions.
  store::PlanServiceOptions plan;
  // Admission sizing: one job may hold at most max_share of the cluster's
  // executor slots, and always at least min_slots_per_job (clamped to the
  // cluster size) — so an idle cluster can admit any job and drain() always
  // terminates.
  double max_share = 0.5;
  int min_slots_per_job = 2;
  // How strongly other jobs' committed bandwidth discounts the residual
  // profile the planner sees (0 = plan as if alone; 1 = committed bandwidth
  // is fully unavailable).
  double interference = 1.0;
  // Aging quantum: a queued job's effective priority improves by one class
  // per delay_budget seconds waited, a job aged past one full quantum
  // blocks backfill, and planned delays scale by max(0, 1 − wait/budget).
  // <= 0 disables aging and delay rebalancing (strict class order).
  Seconds delay_budget = 120.0;
  // Online SLO rules (parse_slo_rule's "p99_slowdown<=2.5" grammar),
  // evaluated after every admission and completion over exact-merge quantile
  // sketches. Each ok→violated transition records a slo_violation flight
  // event and bumps the slo.violations counter; the live quantile is the
  // slo.<spec> gauge. A plan_latency rule observes planner *wall* time and
  // is therefore not bit-reproducible; the other metrics are.
  std::vector<obs::SloRule> slo;
  // Streaming telemetry: snapshot obs's registry into this sink every
  // telemetry_period *simulated* seconds while any job is non-terminal
  // (requires obs; the sink must outlive the scheduler). Ticks are ordinary
  // sim events at fixed times, so the stream is bit-identical for any
  // `threads` — filter out the wall-clock metric prefixes (planner.,
  // tracer.) for a byte-reproducible file.
  obs::TelemetrySink* telemetry = nullptr;
  Seconds telemetry_period = 10.0;
  // Fault injection forwarded to every admitted run (see
  // engine::RunOptions): each task attempt aborts with this probability;
  // a task aborting max_attempts times fails its job terminally — which
  // auto-dumps the flight recorder, the audit path sched_cli exercises
  // with --fail-rate.
  double task_failure_rate = 0.0;
  int max_attempts = 4;
};

// Validates field combinations (share in (0, 1], positive sizing, a sane
// cluster). The Scheduler constructor enforces this (throwing CheckError
// with the same message); CLIs call it up front for a friendly `error: …`.
Status validate(const SchedulerOptions& options);

enum class JobState { kQueued, kRunning, kFinished, kFailed };
const char* to_string(JobState state);

// Snapshot of one submitted job, returned by poll().
struct JobStatus {
  service::JobId id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  int priority = 0;  // lower = more important (executor-pool convention)
  Seconds arrival = -1;
  Seconds admitted = -1;  // -1 while queued
  Seconds finish = -1;    // -1 until terminal
  Seconds wait = 0;       // admitted − arrival (final once running)
  Seconds jct = -1;       // finish − arrival, queueing included
  // Analytic zero-delay JCT on the whole (idle) cluster — the denominator
  // of the slowdown metric and the SJF ordering key.
  Seconds dedicated_estimate = 0;
  double slowdown = 0;  // jct / dedicated_estimate, once finished
  Seconds planned_delay = 0;  // Σ_k x_k actually applied (after rebalancing)
  bool plan_cache_hit = false;
  service::ClusterLedger::Grant grant;  // zero until admitted
};

// Fleet-level queueing metrics over everything submitted so far.
struct FleetStats {
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t failed = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
  Seconds makespan = 0;  // latest finish time
  Seconds mean_wait = 0;
  Seconds max_wait = 0;
  Seconds mean_jct = 0;
  Seconds p99_jct = 0;  // nearest-rank over finished jobs
  double mean_slowdown = 0;
  double p99_slowdown = 0;
  double peak_slot_occupancy = 0;  // ledger high-water mark, in [0, 1]
  double plan_cache_hit_rate = 0;  // over admitted jobs with planning on
  Seconds mean_planned_delay = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Submit a job arriving now (or at `arrival`; past times clamp to now).
  // The dag is copied — the caller's copy need not outlive the scheduler.
  // Lower `priority` = more important, default 0; ids start at 1.
  service::JobId submit(const dag::JobDag& dag, int priority = 0);
  service::JobId submit_at(Seconds arrival, const dag::JobDag& dag,
                           int priority = 0);

  // Status snapshot; valid until the next submit. Ids are dense from 1.
  const JobStatus& poll(service::JobId id) const;

  // Advance simulated time. drain() runs until every submitted job reached
  // a terminal state (guaranteed to terminate: grants are clamped to the
  // cluster, so an idle cluster admits any head-of-queue job).
  void drain();
  void run_until(Seconds t);
  Seconds now() const { return sim_.now(); }

  FleetStats fleet() const;
  const service::ClusterLedger& ledger() const { return ledger_; }
  sim::Cluster& cluster() { return *cluster_; }
  store::PlanService& plans() { return plans_; }
  const SchedulerOptions& options() const { return opt_; }
  // Live SLO state (sketches, rule verdicts, violation count).
  const obs::SloTracker& slo() const { return *slo_; }

  // One {"v": 1, "ev": "stats", …} NDJSON line with the live queue / ledger
  // / fleet state (plus an "ev": "slo" line when rules are configured) — the
  // stats command of the jobs-in protocol and `serve` both answer with this.
  void write_stats(std::ostream& os) const;

 private:
  struct Job {
    JobStatus status;
    dag::JobDag dag;  // owned copy; JobRun and profiles reference it
    std::uint64_t seq = 0;  // arrival sequence (FIFO key, global tie-break)
    Seconds critical_path = 0;  // HardFirst key
    std::shared_ptr<const core::DelaySchedule> plan;
    std::unique_ptr<engine::JobRun> run;
  };

  Job& job(service::JobId id) { return *jobs_[id - 1]; }
  const Job& job(service::JobId id) const { return *jobs_[id - 1]; }

  void arrive(service::JobId id);
  // Admit every queued job that fits, honouring ordering + backfill rules.
  void try_admit();
  // Effective priority of a queued job at sim time `now`.
  int effective_priority(const Job& j, Seconds now) const;
  // Aged past a full budget quantum — blocks backfill behind it.
  bool urgent(const Job& j, Seconds now) const;
  service::ClusterLedger::Grant size_grant(const Job& j) const;
  void admit(service::JobId id, const service::ClusterLedger::Grant& g);
  // Residual-capacity profile: granted worker share, occupancy-discounted
  // bandwidth (computed against the ledger *before* this job commits).
  core::JobProfile residual_profile(const Job& j,
                                    const service::ClusterLedger::Grant& g)
      const;
  void on_job_finished(service::JobId id, const engine::JobResult& result);
  // Append one audit record stamped with sim-now and the job's priority.
  // `cache` is the plan-cache verdict (1 hit, 0 miss, -1 n/a).
  void flight_event(obs::FlightKind kind, service::JobId id, double value,
                    double aux = 0, std::int8_t cache = -1);
  // Start the telemetry cadence if a sink is configured and the chain is
  // not already running (restarted by arrivals after a quiescent period;
  // stops itself when every job is terminal, so drain() terminates).
  void maybe_start_telemetry();
  void telemetry_tick();
  bool all_terminal() const;

  SchedulerOptions opt_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Cluster> cluster_;
  service::ClusterLedger ledger_;
  store::PlanService plans_;
  BytesPerSec mean_worker_bw_ = 0;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<service::JobId> queue_;  // ids awaiting admission
  std::uint64_t next_seq_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  std::unique_ptr<obs::SloTracker> slo_;
  bool telemetry_running_ = false;

  obs::Counter m_submitted_;
  obs::Counter m_admitted_;
  obs::Counter m_finished_;
  obs::Counter m_failed_;
  obs::Counter m_cache_hits_;
  obs::Gauge m_queue_depth_;
  obs::Gauge m_active_jobs_;
  obs::Gauge m_slot_occupancy_;
  obs::Gauge m_ledger_slots_busy_;
  obs::Histogram m_wait_seconds_;
  obs::Histogram m_jct_seconds_;
  obs::Histogram m_slowdown_;
  // Wall-clock admission-planning latency (nondeterministic by nature —
  // excluded from the reproducible telemetry surface via its planner.
  // prefix).
  obs::Histogram m_plan_wall_;
};

}  // namespace ds
