#include "engine/job_run.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "metrics/stats.h"
#include "util/check.h"

namespace ds::engine {

namespace {
// Upper bound on node ids packed into push keys.
constexpr std::uint64_t kMaxNodes = 1u << 20;
}  // namespace

Status validate(const RunOptions& o) {
  if (!(o.task_failure_rate >= 0 && o.task_failure_rate < 1.0))
    return Status::error("task_failure_rate must be in [0, 1)");
  if (o.max_attempts < 1) return Status::error("max_attempts must be >= 1");
  if (o.plan.pipelined_shuffle) {
    if (o.task_failure_rate > 0)
      return Status::error(
          "fault injection is incompatible with pipelined shuffle");
    if (o.faults != nullptr)
      return Status::error(
          "node fault injection is incompatible with pipelined shuffle");
    if (o.speculation)
      return Status::error(
          "speculation is incompatible with pipelined shuffle");
  }
  return Status::ok();
}

JobRun::JobRun(sim::Cluster& cluster, const dag::JobDag& dag, RunOptions opt)
    : cluster_(cluster),
      dag_(dag),
      opt_(std::move(opt)),
      rng_(opt_.seed),
      trace_(obs::tracer(opt_.obs)),
      flight_(obs::flight(opt_.obs)),
      m_tasks_launched_(obs::counter(opt_.obs, "engine.tasks_launched")),
      m_tasks_finished_(obs::counter(opt_.obs, "engine.tasks_finished")),
      m_task_aborts_(obs::counter(opt_.obs, "engine.task_aborts")),
      m_fetch_failures_(obs::counter(opt_.obs, "engine.fetch_failures")),
      m_node_crashes_(obs::counter(opt_.obs, "engine.node_crashes")),
      m_resubmissions_(obs::counter(opt_.obs, "engine.stage_resubmissions")),
      m_speculative_(obs::counter(opt_.obs, "engine.speculative_copies")),
      m_stages_finished_(obs::counter(opt_.obs, "engine.stages_finished")),
      m_replans_(obs::counter(opt_.obs, "engine.replans")),
      m_task_seconds_(
          obs::histogram(opt_.obs, "engine.task_seconds", 1.0, 1.6, 24)) {
  DS_CHECK_MSG(static_cast<std::uint64_t>(cluster.total_nodes()) < kMaxNodes,
               "cluster too large for push keys");
  const Status valid = validate(opt_);
  DS_CHECK_MSG(valid.is_ok(), valid.message());
  if (opt_.faults != nullptr) {
    DS_CHECK_MSG(&opt_.faults->cluster() == &cluster_,
                 "fault injector drives a different cluster");
  }
  const auto n = static_cast<std::size_t>(dag_.num_stages());
  DS_CHECK_MSG(n > 0, "empty job");
  st_.resize(n);
  result_.stages.resize(n);
  task_base_.resize(n);
  int total_tasks = 0;
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    const dag::Stage& spec = dag_.stage(s);
    auto& state = st(s);
    const auto nt = static_cast<std::size_t>(spec.num_tasks);
    state.remaining_parents = static_cast<int>(dag_.parents(s).size());
    state.remaining_tasks = spec.num_tasks;
    state.output_at_node.assign(static_cast<std::size_t>(cluster.total_nodes()), 0.0);
    state.inflight_push.assign(nt, 0);
    state.read_started.assign(nt, false);
    state.read_finished.assign(nt, false);
    state.launched.assign(nt, false);
    state.task_done.assign(nt, false);
    state.spec_requested.assign(nt, false);
    state.needs_requeue.assign(nt, false);
    state.lost.assign(nt, false);
    state.enqueue_epoch.assign(nt, 0);
    state.aborts.assign(nt, 0);
    state.success_span.assign(nt, -1.0);
    state.attempts.assign(nt, {});

    // Per-task skew multipliers: lognormal(sigma), renormalised to mean
    // exactly 1 so stage totals always match the spec volumes.
    state.mult.assign(nt, 1.0);
    if (spec.task_skew > 0 && spec.num_tasks > 1) {
      double sum = 0;
      for (auto& m : state.mult) {
        m = rng_.lognormal(0.0, spec.task_skew);
        sum += m;
      }
      const double scale = static_cast<double>(spec.num_tasks) / sum;
      for (auto& m : state.mult) m *= scale;
    }

    // AggShuffle pre-assignment: round-robin over workers, offset by stage id
    // so concurrent stages do not all pile onto worker 0 first.
    if (opt_.plan.pipelined_shuffle) {
      state.planned_node.resize(nt);
      for (int t = 0; t < spec.num_tasks; ++t) {
        state.planned_node[static_cast<std::size_t>(t)] =
            cluster_.worker((t + s) % cluster_.num_workers());
      }
    }

    result_.stages[static_cast<std::size_t>(s)].stage = s;
    task_base_[static_cast<std::size_t>(s)] = total_tasks;
    total_tasks += spec.num_tasks;
  }
  result_.tasks.resize(static_cast<std::size_t>(total_tasks));
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
      auto& tr = task(s, t);
      tr.stage = s;
      tr.index = t;
    }
  }
  stages_remaining_ = dag_.num_stages();
  if (trace_ != nullptr) {
    // Track layout (see obs.h): stage lifecycle on pid 0 (one tid per
    // stage), each worker node's slot lanes on pid 1+n.
    trace_->set_process_name(obs::kJobPid, "stages");
    stage_trace_names_.resize(n);
    for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
      stage_trace_names_[static_cast<std::size_t>(s)] =
          trace_->intern(dag_.stage(s).name);
      trace_->set_thread_name(obs::kJobPid, s, dag_.stage(s).name);
    }
    lanes_.resize(static_cast<std::size_t>(cluster_.num_workers()));
    for (int w = 0; w < cluster_.num_workers(); ++w)
      trace_->set_process_name(node_pid(w), "worker " + std::to_string(w));
  }
  if (opt_.faults != nullptr) {
    fault_sub_ = opt_.faults->subscribe(
        [this](sim::NodeId w) { on_node_crashed(w); });
  }
}

JobRun::~JobRun() {
  if (opt_.faults != nullptr) opt_.faults->unsubscribe(fault_sub_);
}

void JobRun::start() {
  DS_CHECK_MSG(!started_, "JobRun::start() called twice");
  started_ = true;
  dag_.topo_order();  // validates acyclicity up front
  flight_record(obs::FlightKind::kRunStart, dag::kNoStage,
                static_cast<double>(dag_.num_stages()),
                static_cast<double>(result_.tasks.size()));
  for (dag::StageId s : dag_.sources()) on_ready(s);
}

void JobRun::flight_record(obs::FlightKind kind, dag::StageId s, double value,
                           double aux, const char* label) {
  if (flight_ == nullptr) return;
  obs::FlightRecord r;
  r.t = cluster_.sim().now();
  r.kind = kind;
  r.job = opt_.flight_job_id;
  r.stage = s == dag::kNoStage ? -1 : static_cast<std::int32_t>(s);
  r.label = label;
  r.value = value;
  r.aux = aux;
  flight_->record(r);
}

const JobResult& JobRun::result() const {
  DS_CHECK_MSG(result_.finished(), "job has not finished");
  return result_;
}

TaskRecord& JobRun::task(dag::StageId s, int t) {
  return result_.tasks[static_cast<std::size_t>(
      task_base_[static_cast<std::size_t>(s)] + t)];
}

std::uint64_t JobRun::push_key(int task, sim::NodeId src) {
  return static_cast<std::uint64_t>(task) * kMaxNodes +
         static_cast<std::uint64_t>(src);
}

int JobRun::acquire_lane(sim::NodeId w) {
  auto& lanes = lanes_[static_cast<std::size_t>(w)];
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (!lanes[i]) {
      lanes[i] = true;
      return static_cast<int>(i);
    }
  }
  // Speculative copies can briefly exceed executors_per_worker rows; grow.
  lanes.push_back(true);
  return static_cast<int>(lanes.size()) - 1;
}

void JobRun::release_lane(sim::NodeId w, int lane) {
  lanes_[static_cast<std::size_t>(w)][static_cast<std::size_t>(lane)] = false;
}

void JobRun::trace_phase(dag::StageId s, Attempt& at, const char* name) {
  const Seconds now = cluster_.sim().now();
  trace_->complete("task", name, at.phase_started, now - at.phase_started,
                   node_pid(at.node), at.lane, "stage",
                   static_cast<double>(s));
  at.phase_started = now;
}

void JobRun::on_ready(dag::StageId s) {
  if (failed_) return;
  rec(s).ready = cluster_.sim().now();
  const Seconds delay = opt_.plan.delay_for(s);
  DS_CHECK_MSG(delay >= 0, "negative delay for stage " << s);
  if (trace_ != nullptr)
    trace_->instant("stage", "ready", rec(s).ready, obs::kJobPid, s);
  // The event id is kept so a mid-job replan can cancel the pending
  // submission and reschedule it under the new delay.
  st(s).submit_event =
      cluster_.sim().schedule_after(delay, [this, s] { submit_stage(s); });
}

void JobRun::submit_stage(dag::StageId s) {
  if (failed_) return;
  auto& state = st(s);
  DS_CHECK(!state.submitted);
  state.submitted = true;
  state.submit_event = sim::kInvalidEvent;
  rec(s).submitted = cluster_.sim().now();
  if (trace_ != nullptr) {
    const Seconds delay = rec(s).submitted - rec(s).ready;
    if (delay > 0)
      trace_->complete("stage", "delay", rec(s).ready, delay, obs::kJobPid, s,
                       "delay_s", delay);
    trace_->instant("stage", "submit", rec(s).submitted, obs::kJobPid, s);
  }
  // A crash during the submission delay may have invalidated parent output
  // this stage was about to read: park everything and demand the re-run.
  if (!parents_data_ready(s)) {
    for (int t = 0; t < dag_.stage(s).num_tasks; ++t) park_task(s, t);
    demand_parents(s);
    return;
  }
  for (int t = 0; t < dag_.stage(s).num_tasks; ++t) enqueue_task(s, t);
}

sim::NodeId JobRun::preferred_node(dag::StageId s) const {
  if (dag_.parents(s).empty()) return -1;  // HDFS input: no worker is local
  Bytes best = 0;
  sim::NodeId node = -1;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    Bytes here = 0;
    for (dag::StageId p : dag_.parents(s))
      here += st_[static_cast<std::size_t>(p)]
                  .output_at_node[static_cast<std::size_t>(w)];
    if (here > best) {
      best = here;
      node = cluster_.worker(w);
    }
  }
  return node;
}

void JobRun::enqueue_task(dag::StageId s, int t) {
  auto& state = st(s);
  const int epoch = ++state.enqueue_epoch[static_cast<std::size_t>(t)];
  if (opt_.plan.pipelined_shuffle) {
    cluster_.executors().request(
        [this, s, t](sim::NodeId w) { launch_attempt(s, t, 0, w); },
        state.planned_node[static_cast<std::size_t>(t)],
        opt_.plan.priority_for(s));
    return;
  }
  const sim::NodeId pref = opt_.locality_wait > 0 ? preferred_node(s) : -1;
  if (pref < 0) {
    cluster_.executors().request(
        [this, s, t](sim::NodeId w) { launch_attempt(s, t, 0, w); }, -1,
        opt_.plan.priority_for(s));
    return;
  }
  // Delay scheduling (task level): wait for the preferred node, then give
  // up and take any slot. The epoch guard retires this fallback if a fault
  // re-queued the task in the meantime (the retry has its own request).
  const sim::SlotRequestId req = cluster_.executors().request(
      [this, s, t](sim::NodeId w) { launch_attempt(s, t, 0, w); }, pref,
      opt_.plan.priority_for(s));
  cluster_.sim().schedule_after(opt_.locality_wait, [this, s, t, req, epoch] {
    if (failed_) return;
    auto& state2 = st(s);
    if (state2.enqueue_epoch[static_cast<std::size_t>(t)] != epoch) return;
    if (state2.launched[static_cast<std::size_t>(t)]) return;
    cluster_.executors().cancel(req);
    cluster_.executors().request(
        [this, s, t](sim::NodeId w) { launch_attempt(s, t, 0, w); }, -1,
        opt_.plan.priority_for(s));
  });
}

void JobRun::requeue_task(dag::StageId s, int t) {
  auto& state = st(s);
  ++state.enqueue_epoch[static_cast<std::size_t>(t)];
  cluster_.executors().request(
      [this, s, t](sim::NodeId w) { launch_attempt(s, t, 0, w); }, -1,
      opt_.plan.priority_for(s));
}

void JobRun::launch_attempt(dag::StageId s, int t, int a, sim::NodeId w) {
  auto& state = st(s);
  if (failed_ || state.task_done[static_cast<std::size_t>(t)]) {
    // Terminal job, or a speculative grant arriving after completion.
    cluster_.executors().release(w);
    return;
  }
  // A crash may have invalidated parent output between the slot request and
  // this grant. Give the slot back; a primary parks until the lost parent
  // partitions are regenerated, a speculative copy is simply abandoned.
  if (!parents_data_ready(s)) {
    cluster_.executors().release(w);
    if (a == 0) {
      if (!state.needs_requeue[static_cast<std::size_t>(t)]) park_task(s, t);
      demand_parents(s);
    } else {
      state.spec_requested[static_cast<std::size_t>(t)] = false;
    }
    return;
  }
  state.launched[static_cast<std::size_t>(t)] = true;
  auto& at = attempt(s, t, a);
  DS_CHECK(!at.live);
  at = Attempt{};
  at.live = true;
  at.node = w;
  at.started = cluster_.sim().now();
  m_tasks_launched_.inc();
  if (trace_ != nullptr) {
    at.lane = acquire_lane(w);
    at.phase_started = at.started;
  }

  auto& tr = task(s, t);
  tr.node = w;
  if (tr.attempts == 0) tr.launch = at.started;
  ++tr.attempts;
  auto& sr = rec(s);
  if (sr.first_launch < 0) sr.first_launch = tr.launch;
  ++state.slots_held;
  begin_read(s, t, a, w);
}

void JobRun::begin_read(dag::StageId s, int t, int a, sim::NodeId w) {
  auto& state = st(s);
  auto& at = attempt(s, t, a);
  if (a == 0) state.read_started[static_cast<std::size_t>(t)] = true;
  const dag::Stage& spec = dag_.stage(s);
  const double mult = state.mult[static_cast<std::size_t>(t)];

  // Per-source volumes this task must fetch.
  std::vector<std::pair<sim::NodeId, Bytes>> sources;
  if (dag_.parents(s).empty()) {
    // Source stage: input striped across the storage nodes (HDFS) in
    // proportion to their bandwidth — block placement balances load, so a
    // slow replica node holds correspondingly less of the hot data. With no
    // storage tier, the input lives striped across the workers; job input is
    // durable (replicated), so under fault injection it is re-striped over
    // whichever workers are currently alive.
    const int ns = cluster_.num_storage_nodes();
    const Bytes want = spec.input_per_task() * mult;
    if (ns > 0) {
      BytesPerSec total_bw = 0;
      for (int i = 0; i < ns; ++i)
        total_bw += cluster_.nic_bw(cluster_.storage_node(i));
      for (int i = 0; i < ns; ++i) {
        const sim::NodeId node = cluster_.storage_node(i);
        sources.emplace_back(node, want * cluster_.nic_bw(node) / total_bw);
      }
    } else {
      std::vector<sim::NodeId> holders;
      for (int i = 0; i < cluster_.num_workers(); ++i) {
        const sim::NodeId node = cluster_.worker(i);
        if (opt_.faults == nullptr || opt_.faults->alive(node))
          holders.push_back(node);
      }
      DS_CHECK_MSG(!holders.empty(), "no live input holders");
      for (const sim::NodeId node : holders)
        sources.emplace_back(node, want / static_cast<double>(holders.size()));
    }
  } else {
    // Shuffle read: this task's partition of every parent's output, located
    // where the parent tasks wrote it, minus anything AggShuffle already
    // pushed here (primary attempts only; speculation excludes pipelining).
    const double frac = mult / static_cast<double>(spec.num_tasks);
    for (dag::StageId p : dag_.parents(s)) {
      const auto& out = st(p).output_at_node;
      for (sim::NodeId i = 0; i < static_cast<sim::NodeId>(out.size()); ++i) {
        Bytes b = out[static_cast<std::size_t>(i)] * frac;
        if (b <= 0) continue;
        if (a == 0) {
          const auto it = state.push_committed.find(push_key(t, i));
          if (it != state.push_committed.end()) {
            const Bytes credit = std::min(b, it->second);
            b -= credit;
          }
        }
        if (b > sim::kFluidEps) sources.emplace_back(i, b);
      }
    }
  }

  int pending = static_cast<int>(sources.size());
  if (a == 0) pending += state.inflight_push[static_cast<std::size_t>(t)];
  at.pending_flows = pending;
  if (pending == 0) {
    finish_read(s, t, a);
    return;
  }
  for (const auto& [src, bytes] : sources) {
    const auto fi = at.flows.size();
    at.flows.push_back({0, src, false});
    at.flows[fi].id = cluster_.fabric().start_flow(
        {src, w, bytes, s, [this, s, t, a, fi] {
           auto& a2 = attempt(s, t, a);
           if (!a2.live) return;  // raced with a cancellation
           if (fi < a2.flows.size()) a2.flows[fi].done = true;
           flow_arrived(s, t, a);
         }});
  }
}

void JobRun::flow_arrived(dag::StageId s, int t, int a) {
  auto& at = attempt(s, t, a);
  if (!at.live) return;  // raced with a cancellation
  DS_CHECK_MSG(at.pending_flows > 0,
               "stray flow arrival for stage " << s << " task " << t);
  if (--at.pending_flows == 0) finish_read(s, t, a);
}

void JobRun::finish_read(dag::StageId s, int t, int a) {
  auto& state = st(s);
  auto& at = attempt(s, t, a);
  DS_CHECK(!at.read_done);
  at.read_done = true;
  at.flows.clear();
  if (a == 0) state.read_finished[static_cast<std::size_t>(t)] = true;
  auto& tr = task(s, t);
  tr.read_done = cluster_.sim().now();
  rec(s).last_read_done = std::max(rec(s).last_read_done, tr.read_done);
  if (trace_ != nullptr) trace_phase(s, at, "fetch");

  const dag::Stage& spec = dag_.stage(s);
  const Seconds compute = spec.compute_per_task() *
                          state.mult[static_cast<std::size_t>(t)] /
                          cluster_.speed(at.node);
  cluster_.begin_compute(at.node);
  at.computing = true;

  // Fault injection, task domain: every attempt (primary or speculative)
  // independently rolls the dice and may abort partway through its compute.
  // A task whose attempts abort max_attempts times fails the job.
  if (opt_.task_failure_rate > 0 && rng_.chance(opt_.task_failure_rate)) {
    const Seconds abort_at = compute * rng_.uniform(0.1, 0.9);
    at.compute_event = cluster_.sim().schedule_after(
        abort_at, [this, s, t, a] { on_attempt_failed(s, t, a); });
    return;
  }
  at.compute_event = cluster_.sim().schedule_after(
      compute, [this, s, t, a] { on_compute_done(s, t, a); });
}

void JobRun::on_attempt_failed(dag::StageId s, int t, int a) {
  auto& state = st(s);
  auto& at = attempt(s, t, a);
  DS_CHECK(at.live && at.computing);
  at.compute_event = sim::kInvalidEvent;  // the abort event just fired
  m_task_aborts_.inc();
  const int aborts = ++state.aborts[static_cast<std::size_t>(t)];
  kill_attempt(s, t, a, /*node_lost=*/false);
  if (a == 1) state.spec_requested[static_cast<std::size_t>(t)] = false;
  if (aborts >= opt_.max_attempts) {
    fail_job("stage " + std::to_string(s) + " task " + std::to_string(t) +
             " aborted " + std::to_string(aborts) + " times (max_attempts)");
    return;
  }
  // Re-run unless a sibling attempt is still carrying the task.
  if (!state.task_done[static_cast<std::size_t>(t)] &&
      !attempt(s, t, 0).live && !attempt(s, t, 1).live &&
      !state.needs_requeue[static_cast<std::size_t>(t)]) {
    park_task(s, t);
    pump_requeues(s);
  }
}

void JobRun::on_compute_done(dag::StageId s, int t, int a) {
  auto& at = attempt(s, t, a);
  DS_CHECK(at.live && at.computing);
  at.computing = false;
  at.compute_event = sim::kInvalidEvent;
  auto& tr = task(s, t);
  tr.compute_done = cluster_.sim().now();
  rec(s).last_compute_done = std::max(rec(s).last_compute_done, tr.compute_done);
  cluster_.end_compute(at.node);
  if (trace_ != nullptr) trace_phase(s, at, "compute");
  const dag::Stage& spec = dag_.stage(s);
  const Bytes out =
      spec.output_per_task() * st(s).mult[static_cast<std::size_t>(t)];
  at.writing = true;
  at.disk_write = cluster_.disk(at.node).start_flow(
      {.src = 0, .dst = 0, .bytes = out,
       .on_complete = [this, s, t, a] { on_write_done(s, t, a); }});
}

void JobRun::on_write_done(dag::StageId s, int t, int a) {
  auto& state = st(s);
  auto& at = attempt(s, t, a);
  DS_CHECK(at.live);
  at.writing = false;
  state.task_done[static_cast<std::size_t>(t)] = true;

  auto& tr = task(s, t);
  tr.finish = cluster_.sim().now();
  tr.node = at.node;  // the winning attempt's node
  state.finished_durations.push_back(tr.finish - at.started);
  state.success_span[static_cast<std::size_t>(t)] = tr.finish - at.started;
  m_tasks_finished_.inc();
  m_task_seconds_.observe(tr.finish - at.started);
  if (trace_ != nullptr) {
    trace_phase(s, at, "write");
    release_lane(at.node, at.lane);
  }

  const dag::Stage& spec = dag_.stage(s);
  const Bytes out = spec.output_per_task() * state.mult[static_cast<std::size_t>(t)];
  state.output_at_node[static_cast<std::size_t>(at.node)] += out;
  --state.slots_held;
  cluster_.executors().release(at.node);
  at.live = false;

  // A losing sibling attempt is cancelled outright (its burn is wasted work).
  const int sibling = 1 - a;
  if (attempt(s, t, sibling).live)
    kill_attempt(s, t, sibling, /*node_lost=*/false);

  if (opt_.plan.pipelined_shuffle && out > 0) push_map_output(s, at.node, out);

  DS_CHECK(state.remaining_tasks > 0);
  if (--state.remaining_tasks == 0) {
    finish_stage(s);
  } else if (opt_.speculation) {
    maybe_speculate(s);
  }
}

void JobRun::kill_attempt(dag::StageId s, int t, int a, bool node_lost) {
  auto& state = st(s);
  auto& at = attempt(s, t, a);
  DS_CHECK(at.live);
  if (trace_ != nullptr) {
    trace_phase(s, at,
                at.writing ? "write (killed)"
                           : (at.computing ? "compute (killed)"
                                           : "fetch (killed)"));
    release_lane(at.node, at.lane);
  }
  for (const auto& f : at.flows)
    if (!f.done) cluster_.fabric().cancel(f.id);
  if (at.compute_event != sim::kInvalidEvent)
    cluster_.sim().cancel(at.compute_event);
  if (at.computing) cluster_.end_compute(at.node);
  if (at.writing) cluster_.disk(at.node).cancel(at.disk_write);
  rec(s).wasted_seconds += cluster_.sim().now() - at.started;
  --state.slots_held;
  // A crashed node's slots are forfeited by the pool wholesale; only kills
  // on live nodes hand their slot back.
  if (!node_lost) cluster_.executors().release(at.node);
  at = Attempt{};
}

void JobRun::maybe_speculate(dag::StageId s) {
  if (failed_) return;
  auto& state = st(s);
  const auto total = static_cast<std::size_t>(dag_.stage(s).num_tasks);
  if (state.finished_durations.size() * 2 < total) return;
  std::vector<double> sorted = state.finished_durations;
  std::sort(sorted.begin(), sorted.end());
  const double median = metrics::percentile(sorted, 50);
  const Seconds now = cluster_.sim().now();

  for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (state.task_done[ti]) continue;
    const Attempt& primary = attempt(s, t, 0);
    if (!primary.live) continue;                 // queued, parked or re-queued
    if (state.spec_requested[ti]) continue;      // copy queued or running
    if (now - primary.started <= kSpeculationThreshold * median) continue;
    state.spec_requested[ti] = true;
    ++speculative_attempts_;
    m_speculative_.inc();
    cluster_.executors().request(
        [this, s, t](sim::NodeId w) { launch_attempt(s, t, 1, w); }, -1,
        opt_.plan.priority_for(s));
  }
}

void JobRun::push_map_output(dag::StageId parent, sim::NodeId src, Bytes bytes) {
  for (dag::StageId c : dag_.children(parent)) {
    auto& cs = st(c);
    const dag::Stage& cspec = dag_.stage(c);
    for (int u = 0; u < cspec.num_tasks; ++u) {
      // This reduce task's partition of the freshly written map output.
      const Bytes share = bytes * cs.mult[static_cast<std::size_t>(u)] /
                          static_cast<double>(cspec.num_tasks);
      if (share <= sim::kFluidEps) continue;
      // If the reduce task already fetched, the pushed bytes are wasted —
      // never push behind a completed read.
      if (cs.read_finished[static_cast<std::size_t>(u)]) continue;
      const sim::NodeId dst = cs.planned_node[static_cast<std::size_t>(u)];
      ++cs.inflight_push[static_cast<std::size_t>(u)];
      cs.push_committed[push_key(u, src)] += share;
      if (cs.read_started[static_cast<std::size_t>(u)])
        ++attempt(c, u, 0).pending_flows;
      // Pushes carry the parent's group: they are stage `parent`'s output
      // stream, not a new contender on the fabric.
      cluster_.fabric().start_flow(
          {src, dst, share, parent, [this, c, u] {
             auto& state = st(c);
             --state.inflight_push[static_cast<std::size_t>(u)];
             if (state.read_started[static_cast<std::size_t>(u)] &&
                 !state.read_finished[static_cast<std::size_t>(u)]) {
               flow_arrived(c, u, 0);
             }
           }});
    }
  }
}

bool JobRun::parents_data_ready(dag::StageId s) const {
  for (dag::StageId p : dag_.parents(s)) {
    const auto& ps = st(p);
    if (ps.remaining_tasks != 0 || ps.lost_count > 0) return false;
  }
  return true;
}

void JobRun::park_task(dag::StageId s, int t) {
  auto& state = st(s);
  const auto ti = static_cast<std::size_t>(t);
  DS_CHECK(!state.needs_requeue[ti]);
  state.needs_requeue[ti] = true;
  state.launched[ti] = false;
  state.read_started[ti] = false;
  state.read_finished[ti] = false;
}

void JobRun::pump_requeues(dag::StageId s) {
  if (failed_) return;
  auto& state = st(s);
  if (!state.submitted) return;
  bool any_parked = false;
  for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
    if (state.needs_requeue[static_cast<std::size_t>(t)]) {
      any_parked = true;
      break;
    }
  }
  if (!any_parked) return;
  if (!parents_data_ready(s)) {
    // Inputs are missing upstream: leave the tasks parked and demand the
    // parent re-runs; the refinishing parent pumps this stage again.
    demand_parents(s);
    return;
  }
  for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (!state.needs_requeue[ti]) continue;
    state.needs_requeue[ti] = false;
    requeue_task(s, t);
  }
}

void JobRun::demand_parents(dag::StageId s) {
  if (failed_) return;
  const Seconds now = cluster_.sim().now();
  for (dag::StageId p : dag_.parents(s)) {
    auto& ps = st(p);
    if (ps.lost_count > 0) {
      // Reopen the finished parent: exactly the lost tasks re-run (Spark's
      // stage resubmission on fetch failure), bounded per stage.
      auto& r = rec(p);
      DS_CHECK(r.finish >= 0);
      r.finish = -1;
      ++stages_remaining_;
      ++r.resubmissions;
      m_resubmissions_.inc();
      if (trace_ != nullptr)
        trace_->instant("stage", "resubmit", now, obs::kJobPid, p);
      ps.reopened_at = now;
      int reopened_tasks = 0;
      for (int t = 0; t < dag_.stage(p).num_tasks; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        if (!ps.lost[ti]) continue;
        ps.lost[ti] = false;
        ps.task_done[ti] = false;
        ps.spec_requested[ti] = false;
        ++ps.remaining_tasks;
        ++r.tasks_rerun;
        ++reopened_tasks;
        park_task(p, t);
      }
      ps.lost_count = 0;
      flight_record(obs::FlightKind::kRecovery, p,
                    static_cast<double>(reopened_tasks),
                    static_cast<double>(r.resubmissions), "stage_resubmit");
      if (r.resubmissions > kMaxStageResubmissions) {
        fail_job("stage " + std::to_string(p) + " resubmitted " +
                 std::to_string(r.resubmissions) +
                 " times (max_stage_resubmissions)");
        return;
      }
    }
    if (ps.remaining_tasks > 0) pump_requeues(p);
  }
}

void JobRun::on_node_crashed(sim::NodeId w) {
  if (!started_ || result_.finished()) return;
  ++result_.node_crashes;
  m_node_crashes_.inc();
  if (trace_ != nullptr)
    trace_->instant("fault", "node_crash", cluster_.sim().now(), node_pid(w), 0);

  // Pass 1 — the node's storage dies with it: invalidate the shuffle output
  // of every completed task that wrote on w. Tasks of still-running stages
  // re-run immediately (the stage must finish anyway); tasks of finished
  // stages are only marked lost and re-run lazily, when (and if) a
  // downstream consumer demands the data. Zeroing output_at_node *before*
  // killing attempts keeps any re-read from fetching ghost bytes.
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    auto& state = st(s);
    if (!state.submitted) continue;
    if (dag_.stage(s).output_per_task() <= 0) continue;
    const bool was_finished = rec(s).finish >= 0;
    bool invalidated = false;
    for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (!state.task_done[ti] || task(s, t).node != w) continue;
      invalidated = true;
      rec(s).wasted_seconds += state.success_span[ti];
      if (was_finished) {
        state.lost[ti] = true;
        ++state.lost_count;
      } else {
        state.task_done[ti] = false;
        state.spec_requested[ti] = false;
        ++state.remaining_tasks;
        ++rec(s).tasks_rerun;
        park_task(s, t);
      }
    }
    if (invalidated)
      state.output_at_node[static_cast<std::size_t>(w)] = 0;
  }

  // Pass 2 — kill live attempts: anything running on w dies with its slot;
  // anything elsewhere still fetching from w takes a fetch failure. A task
  // left with no live attempt parks for re-queueing.
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    auto& state = st(s);
    if (!state.submitted) continue;
    for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      bool killed_any = false;
      for (int a = 0; a < 2; ++a) {
        auto& at = attempt(s, t, a);
        if (!at.live) continue;
        bool killed = false;
        if (at.node == w) {
          kill_attempt(s, t, a, /*node_lost=*/true);
          killed = true;
        } else if (!at.read_done) {
          bool fetching = false;
          for (const auto& f : at.flows)
            if (!f.done && f.src == w) fetching = true;
          if (fetching) {
            ++result_.fetch_failures;
            m_fetch_failures_.inc();
            if (trace_ != nullptr)
              trace_->instant("fault", "fetch_failure", cluster_.sim().now(),
                              obs::kJobPid, s, "task", t);
            kill_attempt(s, t, a, /*node_lost=*/false);
            killed = true;
          }
        }
        if (killed) {
          killed_any = true;
          if (a == 1) state.spec_requested[ti] = false;
        }
      }
      if (killed_any && !state.task_done[ti] && !attempt(s, t, 0).live &&
          !attempt(s, t, 1).live && !state.needs_requeue[ti]) {
        park_task(s, t);
      }
    }
  }

  // Pass 3 — put every stage with parked work back in motion (demanding
  // lost parent partitions recursively where inputs are gone).
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    if (failed_) return;
    pump_requeues(s);
  }

  // Crash trigger: the cluster the plan was computed for no longer exists
  // (a worker and its shuffle output are gone, stages may be resubmitting).
  // Let the replanner re-stagger what has not been submitted yet.
  consider_replan(dag::kNoStage, "crash");
}

void JobRun::consider_replan(dag::StageId trigger, const char* reason) {
  if (!opt_.replanner || failed_ || result_.finished()) return;
  if (result_.replans >= kMaxReplans) return;
  const Seconds now = cluster_.sim().now();
  // Cooldown anchors on *attempts*, not applications: a burst of drifting
  // finishes costs at most one planner invocation per window (the thrash
  // guard adaptive_test pins down).
  if (last_replan_attempt_ >= 0 &&
      now - last_replan_attempt_ < kReplanCooldown)
    return;

  const auto n = static_cast<std::size_t>(dag_.num_stages());
  ReplanRequest req;
  req.now = now;
  req.trigger_stage = trigger;
  req.reason = reason;
  req.submitted.resize(n);
  bool any_pending = false;
  for (std::size_t i = 0; i < n; ++i) {
    req.submitted[i] = st_[i].submitted;
    if (!st_[i].submitted) any_pending = true;
  }
  if (!any_pending) return;  // nothing left to reschedule
  req.live_workers = 0;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    const sim::NodeId node = cluster_.worker(w);
    if (opt_.faults == nullptr || opt_.faults->alive(node)) ++req.live_workers;
  }
  req.progress = &result_;
  req.plan = &opt_.plan;

  last_replan_attempt_ = now;
  ReplanDecision d = opt_.replanner(req);
  if (!d.apply || d.expected_gain < kMinExpectedGain) return;

  ++result_.replans;
  m_replans_.inc();
  if (trace_ != nullptr)
    trace_->instant("replan", reason, now, obs::kJobPid,
                    trigger == dag::kNoStage ? 0 : trigger);
  flight_record(obs::FlightKind::kReplan, trigger, d.expected_gain,
                static_cast<double>(result_.replans), reason);

  // Install the new delays for every pending stage. A stage already sitting
  // in its delay window has its submission event rescheduled to
  // ready + new_delay (never before now — elapsed waiting is sunk).
  if (opt_.plan.delay.size() < n) opt_.plan.delay.resize(n, 0.0);
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (req.submitted[i]) continue;
    const Seconds nd = i < d.delay.size() ? std::max(0.0, d.delay[i]) : 0.0;
    opt_.plan.delay[i] = nd;
    auto& state = st(s);
    if (state.submit_event != sim::kInvalidEvent) {
      cluster_.sim().cancel(state.submit_event);
      const Seconds target = std::max(now, rec(s).ready + nd);
      state.submit_event = cluster_.sim().schedule_after(
          target - now, [this, s] { submit_stage(s); });
    }
  }
}

void JobRun::fail_job(const std::string& reason) {
  if (failed_ || result_.complete()) return;
  failed_ = true;
  result_.failed = true;
  result_.failed_at = cluster_.sim().now();
  result_.failure_reason = reason;
  if (flight_ != nullptr) {
    flight_record(obs::FlightKind::kFail, dag::kNoStage, 0, 0,
                  flight_->intern(reason));
    // A terminal job failure is exactly what the audit trail exists for:
    // dump it while the evidence is still in the ring.
    flight_->on_anomaly(("job_failed: " + reason).c_str());
  }
  // Unwind every live attempt; their burn counts as wasted work. Queued slot
  // requests drain harmlessly (launch_attempt releases grants once failed_).
  for (dag::StageId s = 0; s < dag_.num_stages(); ++s) {
    for (int t = 0; t < dag_.stage(s).num_tasks; ++t) {
      for (int a = 0; a < 2; ++a) {
        if (attempt(s, t, a).live) kill_attempt(s, t, a, /*node_lost=*/false);
      }
    }
  }
  notify_finished();
}

void JobRun::notify_finished() {
  if (finish_notified_ || !result_.finished()) return;
  finish_notified_ = true;
  if (opt_.on_finished) opt_.on_finished(result_);
}

void JobRun::finish_stage(dag::StageId s) {
  auto& state = st(s);
  auto& r = rec(s);
  r.finish = cluster_.sim().now();
  m_stages_finished_.inc();
  flight_record(obs::FlightKind::kStageFinish, s, r.duration(),
                static_cast<double>(dag_.stage(s).num_tasks));
  if (trace_ != nullptr)
    trace_->complete("stage", stage_trace_names_[static_cast<std::size_t>(s)],
                     r.submitted, r.finish - r.submitted, obs::kJobPid, s);
  if (state.reopened_at >= 0) {
    r.recovery_seconds += r.finish - state.reopened_at;
    state.reopened_at = -1;
  }
  // Drift trigger: a first finish whose measured duration misses the plan's
  // prediction beyond the warning threshold requests a replan *before*
  // children readiness propagates, so stages becoming ready right now
  // already pick up the corrected delays.
  if (!state.finished_once && opt_.replanner) {
    const auto i = static_cast<std::size_t>(s);
    const Seconds predicted = i < opt_.predicted_durations.size()
                                  ? opt_.predicted_durations[i]
                                  : 0.0;
    if (predicted > 0) {
      const double rel = std::abs(r.duration() - predicted) / predicted;
      if (rel > kReplanTriggerRelError) consider_replan(s, "drift");
    }
  }
  if (!state.finished_once) {
    state.finished_once = true;
    for (dag::StageId c : dag_.children(s)) {
      auto& cs = st(c);
      DS_CHECK(cs.remaining_parents > 0);
      if (--cs.remaining_parents == 0) on_ready(c);
    }
  } else {
    // Re-finish after a reopening: children already consumed their
    // remaining_parents; wake any of their tasks parked on our lost data.
    for (dag::StageId c : dag_.children(s)) {
      if (st(c).submitted) pump_requeues(c);
    }
  }
  DS_CHECK(stages_remaining_ > 0);
  if (--stages_remaining_ == 0) {
    result_.jct = cluster_.sim().now();
    notify_finished();
  }
}

}  // namespace ds::engine
