// Spark-like job execution on the cluster simulator.
//
// Lifecycle per task (paper Fig. 8): acquire an executor slot → shuffle-read
// input from every source node in parallel (network flows; read blocks
// compute) → process data on the executor (CPU) → shuffle-write output to
// the local disk → release the slot. A stage finishes when its slowest task
// finishes (Eq. 2); a stage becomes ready when all parents finished, and is
// *submitted* `delay[k]` seconds later (DelayStage's knob; stock Spark is
// all-zeros).
//
// Data placement: source stages read their input from the storage (HDFS)
// nodes in proportion to node bandwidth; shuffle stages read each parent's
// output from wherever that parent's tasks actually ran.
//
// AggShuffle (pipelined_shuffle): reduce tasks of every stage are
// pre-assigned to workers round-robin; whenever a map task finishes, its
// output is immediately pushed to the reduce tasks' nodes. Bytes that arrive
// (or are in flight) before a reduce task reads are never fetched twice —
// the benefit is the transfer/compute overlap, which grows with the
// intra-stage task-duration variance (Stage::task_skew) exactly as the
// paper observes.
//
// Each task runs as one or two *attempts*: the primary, plus (with
// RunOptions::speculation) a speculative copy launched when the primary
// lags the stage's finished tasks. The first attempt to complete wins; the
// loser's flows, compute and disk write are cancelled and its slot freed.
//
// Failure model. Two failure domains compose:
//
//  * Task aborts (task_failure_rate): every attempt independently aborts
//    partway through its compute with this probability and is retried from
//    scratch. A task that aborts max_attempts times fails the *job*
//    terminally (JobResult::failed) — there is no "final attempt always
//    succeeds" fiction.
//  * Node crashes (RunOptions::faults → sim::FaultInjector): a crash kills
//    every live attempt on the node, forfeits its slots, and invalidates the
//    shuffle output it stored. Attempts elsewhere that were mid-fetch from
//    the dead node take a *fetch failure* and re-queue. Lost parent output
//    is regenerated lazily and recursively: only when (and if) a downstream
//    task actually needs the missing partitions are the producing tasks
//    re-submitted, reopening finished stages Spark-style. Reopenings per
//    stage are capped by kMaxStageResubmissions; exceeding the cap fails
//    the job. Crash-driven re-runs do not count against max_attempts (like
//    Spark, which exempts fetch failures from spark.task.maxFailures).
//
// Fault injection composes with speculation and locality waits; only
// pipelined_shuffle (AggShuffle's eager pushes) remains incompatible with
// both failure domains and with speculation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dag/job.h"
#include "engine/plan.h"
#include "engine/records.h"
#include "engine/replan.h"
#include "obs/obs.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "util/rng.h"
#include "util/status.h"

namespace ds::engine {

// How many times a *finished* stage may be reopened because a crash
// invalidated its stored shuffle output (Spark's
// spark.stage.maxConsecutiveAttempts analogue). Exceeding it fails the job
// terminally.
inline constexpr int kMaxStageResubmissions = 4;
// Speculative execution copies a task whose current attempt has run longer
// than this multiple of the stage's median finished duration (Spark's
// spark.speculation.multiplier). The planner's speculation-aware model
// (core::ModelOptions::speculation) caps its straggler estimate with it.
inline constexpr double kSpeculationThreshold = 1.5;

// The engine is single-threaded by design, so unlike the planner's and the
// replay's options this struct has no `threads`; `seed` and `obs` carry the
// CommonOptions names and defaults.
struct RunOptions {
  // Per-task skew multipliers and task aborts draw from this seed; pass the
  // same seed to a FaultInjector for a decorrelated crash schedule.
  std::uint64_t seed = 1;
  // Task/stage metrics and the per-slot span trace; nullptr = disabled. Must
  // outlive the run. Purely passive: it never changes a result bit.
  obs::Observability* obs = nullptr;
  SubmissionPlan plan;
  // Fault injection, task domain: each attempt independently aborts
  // mid-compute with this probability (must be in [0, 1)) and is retried
  // Spark-style (slot released, re-queued, input re-fetched). A task whose
  // attempts abort max_attempts times fails the job (JobResult::failed).
  // Incompatible with pipelined_shuffle; composes with speculation.
  double task_failure_rate = 0.0;
  int max_attempts = 4;
  // Fault injection, node domain: subscribe this run to a fault injector
  // driving whole-node crashes and recoveries on the same cluster. The
  // injector must outlive the run (and FaultInjector::start() must be
  // called for faults to actually fire). Incompatible with
  // pipelined_shuffle.
  sim::FaultInjector* faults = nullptr;
  // Task-level delay scheduling (Zaharia et al., EuroSys'10 — the technique
  // the paper contrasts DelayStage with in §1): a shuffle task first waits
  // up to this long for a slot on the worker holding most of its input
  // (which it then reads over loopback), falling back to any free slot.
  // 0 disables; Spark's default is ~3 s.
  Seconds locality_wait = 0.0;
  // Speculative execution: once half a stage's tasks have finished, a task
  // whose current attempt has run longer than kSpeculationThreshold × the
  // median finished duration gets a parallel copy on another executor; the
  // first finisher wins. Fixes machine-level stragglers (slow nodes, see
  // ClusterSpec::node_speed_*). Incompatible with pipelined_shuffle.
  bool speculation = false;
  // Mid-job replanning (see engine/replan.h): a set `replanner` arms the
  // triggers and is invoked with a live-state snapshot when one fires. The
  // default (empty) is a guaranteed no-op: results are bit-identical to a
  // build without the feature.
  Replanner replanner;
  // Planner-predicted stage durations (submitted → finish), indexed by
  // StageId: the drift trigger compares each finished stage against its
  // entry. Empty (or a missing/non-positive entry) disables the drift
  // trigger for that stage; crash triggers work regardless.
  std::vector<Seconds> predicted_durations;
  // Flight-recorder job id: stamps every audit record this run emits (run
  // start, stage finishes, replans, recoveries, failures) so a host
  // scheduling many runs can correlate the trail. 0 = standalone run.
  std::uint64_t flight_job_id = 0;
  // Terminal-state hook: invoked exactly once, at the sim time the run
  // reaches a terminal state (result().complete() or result().failed), with
  // the finalised result. This is how a host scheduling many concurrent runs
  // on one simulator (ds::Scheduler) reacts to completions without polling.
  // The callback may start new runs / schedule new events; it must not
  // destroy this JobRun while the engine is still on the stack.
  std::function<void(const JobResult&)> on_finished;
};

// Checks the fields a JobRun enforces: the task failure rate is in [0, 1),
// at least one attempt, and pipelined_shuffle excludes task aborts, node
// faults and speculation. JobRun enforces this (throwing CheckError with the
// same message); CLIs call it up front for a friendly `error: …`.
Status validate(const RunOptions& options);

class JobRun {
 public:
  // The dag, cluster and fault injector (if any) must outlive the run.
  JobRun(sim::Cluster& cluster, const dag::JobDag& dag, RunOptions opt);
  ~JobRun();
  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  // Schedule the job at the current sim time; drive with cluster.sim().run().
  void start();

  // Terminal: completed successfully or failed (see result().failed).
  bool finished() const { return result_.finished(); }
  // Valid once finished().
  const JobResult& result() const;
  // Executor slots stage `s` holds right now (Fig. 13's occupancy, sampled
  // by metrics::UtilizationSampler::track).
  int slots_held(dag::StageId s) const {
    return st_[static_cast<std::size_t>(s)].slots_held;
  }
  // Number of speculative copies launched (speculation only).
  int speculative_attempts() const { return speculative_attempts_; }

 private:
  // A flow an attempt is waiting on, with the node it pulls from (needed to
  // detect fetch failures when a source node dies mid-transfer).
  struct AttemptFlow {
    sim::FlowId id = 0;
    sim::NodeId src = -1;
    bool done = false;  // delivered; no longer at risk from a source crash
  };

  // One running execution of a task. index 0 = primary, 1 = speculative.
  struct Attempt {
    bool live = false;
    sim::NodeId node = -1;
    Seconds started = -1;
    int pending_flows = 0;
    bool read_done = false;
    bool computing = false;
    std::vector<AttemptFlow> flows;
    sim::EventId compute_event = sim::kInvalidEvent;
    bool writing = false;
    sim::FlowId disk_write = 0;  // loopback flow on cluster_.disk(node)
    // Tracing only (trace_ != nullptr): the slot lane this attempt occupies
    // on its node's trace track, and when its current phase began.
    int lane = -1;
    Seconds phase_started = -1;
  };

  struct StageState {
    int remaining_parents = 0;
    int remaining_tasks = 0;
    bool submitted = false;
    // Pending submission event while the stage sits in its delay window
    // (ready, not yet submitted). A replan cancels and reschedules it.
    sim::EventId submit_event = sim::kInvalidEvent;
    bool finished_once = false;  // children's remaining_parents consumed
    Seconds reopened_at = -1;                // for recovery_seconds
    std::vector<double> mult;                // per-task skew, mean 1
    std::vector<sim::NodeId> planned_node;   // AggShuffle pre-assignment
    std::vector<Bytes> output_at_node;       // filled as tasks write
    // AggShuffle bookkeeping: bytes pushed toward (task, src) — committed at
    // push *start*, so a task's remainder fetch never re-requests bytes that
    // are still in flight (completion waits on them via pending_flows).
    std::unordered_map<std::uint64_t, Bytes> push_committed;
    std::vector<int> inflight_push;          // pushes racing toward each task
    std::vector<bool> read_started;          // primary attempt, for pushes
    std::vector<bool> read_finished;
    std::vector<bool> launched;              // granted a slot (locality wait)
    std::vector<bool> task_done;
    std::vector<bool> spec_requested;        // a copy is queued or running
    std::vector<bool> needs_requeue;         // parked, awaiting re-enqueue
    // Completed tasks of a *finished* stage whose output a crash destroyed.
    // They stay done until a downstream consumer actually demands the data,
    // at which point the stage is reopened and they are re-run (lazy,
    // recursive resubmission — Spark's fetch-failure path).
    std::vector<bool> lost;
    int lost_count = 0;
    std::vector<int> enqueue_epoch;          // guards stale locality fallbacks
    std::vector<int> aborts;                 // dice failures, vs max_attempts
    std::vector<Seconds> success_span;       // winning attempt's span
    std::vector<std::array<Attempt, 2>> attempts;
    std::vector<Seconds> finished_durations;  // attempt spans, for speculation
    int slots_held = 0;                      // see JobRun::slots_held
  };

  static std::uint64_t push_key(int task, sim::NodeId src);

  void on_ready(dag::StageId s);
  void submit_stage(dag::StageId s);
  void enqueue_task(dag::StageId s, int t);
  // Re-enqueue after an abort, crash kill or fetch failure: no locality wait
  // (the retry should start as soon as any slot frees up).
  void requeue_task(dag::StageId s, int t);
  // Worker holding the largest share of this task's shuffle input, or -1.
  sim::NodeId preferred_node(dag::StageId s) const;
  void launch_attempt(dag::StageId s, int t, int a, sim::NodeId w);
  void begin_read(dag::StageId s, int t, int a, sim::NodeId w);
  void flow_arrived(dag::StageId s, int t, int a);
  void finish_read(dag::StageId s, int t, int a);
  void on_attempt_failed(dag::StageId s, int t, int a);
  void on_compute_done(dag::StageId s, int t, int a);
  void on_write_done(dag::StageId s, int t, int a);
  // Tear down a live attempt (flows, compute, write, slot accounting).
  // node_lost: the attempt's node crashed, so its slot is forfeited rather
  // than released back to the pool.
  void kill_attempt(dag::StageId s, int t, int a, bool node_lost);
  void maybe_speculate(dag::StageId s);
  void finish_stage(dag::StageId s);
  // AggShuffle: push `bytes` of freshly-written map output of `parent` from
  // `src` toward each child's pre-assigned reduce nodes.
  void push_map_output(dag::StageId parent, sim::NodeId src, Bytes bytes);

  // --- failure-domain recovery ---
  // Every parent's data is materialized (no lost/unfinished tasks upstream).
  bool parents_data_ready(dag::StageId s) const;
  // Park task t until its stage is pumped (attempt gone or output lost).
  void park_task(dag::StageId s, int t);
  // Re-enqueue every parked task of `s` whose inputs are available; demands
  // missing parent output (recursively) otherwise.
  void pump_requeues(dag::StageId s);
  // A consumer needs `s`'s parents' output: reopen finished parents with
  // lost partitions (re-running just those tasks) and pump parked ones.
  void demand_parents(dag::StageId s);
  void on_node_crashed(sim::NodeId w);
  void fail_job(const std::string& reason);
  // Fire opt_.on_finished exactly once, after result_ is terminal.
  void notify_finished();

  // --- mid-job replanning (no-op without opt_.replanner) ---
  // Evaluate the replan guards (engine/replan.h), snapshot live state,
  // invoke the replanner, and — if the decision clears kMinExpectedGain —
  // install the new delays for every not-yet-submitted stage (rescheduling
  // pending submission events in place).
  void consider_replan(dag::StageId trigger, const char* reason);

  // --- observability (passive; no-ops when opt_.obs is null) ---
  // Chrome-trace pid of worker w's slot track.
  static std::int32_t node_pid(sim::NodeId w) {
    return obs::kNodePidBase + static_cast<std::int32_t>(w);
  }
  // Claim/return a per-node trace lane so concurrent attempts on one worker
  // render as separate rows (the Fig. 12/13 occupancy timeline).
  int acquire_lane(sim::NodeId w);
  void release_lane(sim::NodeId w, int lane);
  // Emit the attempt's current phase as a complete span ending now.
  void trace_phase(dag::StageId s, Attempt& at, const char* name);

  StageState& st(dag::StageId s) { return st_[static_cast<std::size_t>(s)]; }
  const StageState& st(dag::StageId s) const {
    return st_[static_cast<std::size_t>(s)];
  }
  Attempt& attempt(dag::StageId s, int t, int a) {
    return st(s).attempts[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)];
  }
  TaskRecord& task(dag::StageId s, int t);
  StageRecord& rec(dag::StageId s) {
    return result_.stages[static_cast<std::size_t>(s)];
  }

  sim::Cluster& cluster_;
  const dag::JobDag& dag_;
  RunOptions opt_;
  Rng rng_;
  std::vector<StageState> st_;
  std::vector<int> task_base_;  // index of stage s's task 0 in result_.tasks
  JobResult result_;
  int stages_remaining_ = 0;
  bool started_ = false;
  bool failed_ = false;
  bool finish_notified_ = false;
  int speculative_attempts_ = 0;
  Seconds last_replan_attempt_ = -1;  // cooldown anchor (sim time)
  sim::FaultInjector::SubscriptionId fault_sub_ = 0;

  // Append one audit record (no-op when the recorder is off). Fills t, job
  // and the caller's kind-specific fields.
  void flight_record(obs::FlightKind kind, dag::StageId s, double value,
                     double aux = 0, const char* label = nullptr);

  // Observability handles (disabled when opt_.obs is null).
  obs::Tracer* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<const char*> stage_trace_names_;  // interned, tracing only
  std::vector<std::vector<bool>> lanes_;        // per worker, tracing only
  obs::Counter m_tasks_launched_;
  obs::Counter m_tasks_finished_;
  obs::Counter m_task_aborts_;
  obs::Counter m_fetch_failures_;
  obs::Counter m_node_crashes_;
  obs::Counter m_resubmissions_;
  obs::Counter m_speculative_;
  obs::Counter m_stages_finished_;
  obs::Counter m_replans_;
  obs::Histogram m_task_seconds_;
};

}  // namespace ds::engine
