#include "core/delay_calculator.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ds::core {

const char* to_string(PathOrder order) {
  switch (order) {
    case PathOrder::kDescending: return "descending";
    case PathOrder::kRandom: return "random";
    case PathOrder::kAscending: return "ascending";
  }
  return "?";
}

Status validate(const CalculatorOptions& options) {
  if (!(options.step > 0))
    return Status::error("CalculatorOptions: step (candidate grid width) "
                         "must be positive");
  if (!(options.slot > 0))
    return Status::error("CalculatorOptions: slot (evaluator slot width) "
                         "must be positive");
  if (options.coarse_candidates < 2)
    return Status::error("CalculatorOptions: coarse_candidates must be >= 2 "
                         "(need at least the grid ends)");
  if (options.sweeps < 1)
    return Status::error("CalculatorOptions: sweeps must be >= 1");
  if (options.model.quantile < 0 || options.model.quantile >= 1.0)
    return Status::error("CalculatorOptions: model.quantile must be in "
                         "[0, 1) — 0 plans against the mean, 0.9 against p90");
  return Status::ok();
}

DelayCalculator::DelayCalculator(const JobProfile& profile,
                                 CalculatorOptions options)
    : profile_(profile), opt_(options) {
  const Status st = validate(opt_);
  DS_CHECK_MSG(st.is_ok(), st.message());
}

DelaySchedule DelayCalculator::compute() const {
  const dag::JobDag& dag = *profile_.dag;
  const ScheduleEvaluator eval(profile_, opt_.slot, opt_.model);
  const PerfModel& model = eval.model();
  const auto n = static_cast<std::size_t>(dag.num_stages());

  // Observability: wall-clock phase spans on the planner track plus the
  // search-cost counters published once at the end (never per candidate —
  // the hot path stays contention-free). Disabled = all nullptrs/no-ops.
  obs::Tracer* const tr = obs::tracer(opt_.obs);
  const obs::WallSpan compute_span(tr, "planner", "compute", obs::kPlannerPid,
                                   0, "stages", static_cast<double>(n));
  auto publish = [&](const DelaySchedule& out) {
    obs::counter(opt_.obs, "planner.runs").inc();
    obs::counter(opt_.obs, "planner.evaluations").inc(out.evaluations);
    obs::counter(opt_.obs, "planner.memo_hits").inc(out.memo_hits);
    obs::gauge(opt_.obs, "planner.paths").set(static_cast<double>(out.paths.size()));
    // Fraction of candidate scores served by the ScoreMemo this run; the
    // evaluation counter excludes memo hits, so the denominator is the sum.
    const double looked_up =
        static_cast<double>(out.evaluations + out.memo_hits);
    obs::gauge(opt_.obs, "planner.memo_hit_rate")
        .set(looked_up > 0 ? static_cast<double>(out.memo_hits) / looked_up
                           : 0.0);
  };

  ThreadPool pool(opt_.resolved_threads());
  ScoreMemo memo;
  ScoreMemo* const memo_p = opt_.memoize ? &memo : nullptr;

  // One scratch arena per thread (the pool's and the caller's), reused for
  // every simulation this planner runs.
  auto score_of = [&](const std::vector<Seconds>& delay) {
    static thread_local EvalScratch tls;
    return eval.score(delay, tls, memo_p);
  };

  DelaySchedule out;
  out.delay.assign(n, 0.0);

  // The schedule's predicted timeline (and its makespan/JCT, which are
  // exactly what score() would report: Score is {parallel_end, jct}). The
  // per-stage breakdown is exported so drift analytics can compare each
  // model term against an executed run.
  auto finalize = [&](DelaySchedule& sched) {
    Evaluation ev = eval.evaluate(sched.delay);
    sched.predicted_makespan = ev.parallel_end;
    sched.predicted_jct = ev.jct;
    sched.predicted_stages = std::move(ev.stages);
    sched.evaluations = eval.evaluations();
    sched.memo_hits = memo.hits();
    publish(sched);
  };

  // Lines 1–3: execution paths, solo stage times ^t_k, initial path times.
  out.paths = dag::execution_paths(dag);
  if (out.paths.empty()) {
    finalize(out);
    return out;  // no parallel stages — nothing to delay
  }
  std::vector<Seconds> path_time(out.paths.size(), 0.0);
  for (std::size_t m = 0; m < out.paths.size(); ++m) {
    path_time[m] = dag::path_time(out.paths[m],
                                  [&](dag::StageId s) { return model.solo_time(s); });
  }

  // Line 4: order the paths.
  std::vector<std::size_t> order(out.paths.size());
  std::iota(order.begin(), order.end(), 0u);
  switch (opt_.order) {
    case PathOrder::kDescending:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return path_time[a] > path_time[b];
      });
      break;
    case PathOrder::kAscending:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return path_time[a] < path_time[b];
      });
      break;
    case PathOrder::kRandom: {
      Rng rng(opt_.seed);
      // Fisher–Yates with our deterministic generator.
      for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
      }
      break;
    }
  }

  // Scan the slotted grid [lo, hi] for stage k, all other delays fixed.
  // Candidates are scored across the pool into per-index slots; the argmin
  // reduction then walks the grid in ascending order with a strict
  // comparison, so the winner (ties → smallest x) is the one the sequential
  // scan would have kept, for any thread count.
  auto scan_candidates = [&](dag::StageId k, Seconds lo, Seconds hi,
                             Seconds step, std::vector<Seconds>& delay,
                             Seconds& best_x, Score& best, int restart) {
    std::vector<Seconds> xs;
    for (Seconds x = lo; x <= hi + 1e-9; x += step) xs.push_back(x);
    if (xs.empty()) return;
    const obs::WallSpan scan_span(tr, "planner", "scan", obs::kPlannerPid,
                                  restart, "stage", static_cast<double>(k));
    // Incremental scan: the simulation prefix before stage k's admission is
    // shared across the whole grid; only each candidate's suffix runs (and
    // those run on the pool). Scores come back in grid order.
    std::vector<Score> scores;
    eval.scan(delay, k, xs, scores, memo_p, &pool);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (scores[i].better_than(best)) {
        best = scores[i];
        best_x = xs[i];
      }
    }
  };

  // One greedy run of Alg. 1 (lines 5–21) plus coordinate-descent sweeps.
  // `pinned[k]` freezes a stage at zero delay. `delay` is this restart's
  // private state: restarts run concurrently.
  auto run_greedy = [&](std::vector<Seconds>& delay,
                        const std::vector<bool>& pinned, int restart) {
    const obs::WallSpan restart_span(tr, "planner", "restart", obs::kPlannerPid,
                                     restart);
    std::vector<bool> scheduled(n, false);
    Score t_max = score_of(delay);
    for (int sweep = 0; sweep < opt_.sweeps; ++sweep) {
      std::fill(scheduled.begin(), scheduled.end(), false);
      for (std::size_t m : order) {
        for (dag::StageId k : out.paths[m].stages) {
          if (scheduled[static_cast<std::size_t>(k)]) continue;  // lines 7–9
          scheduled[static_cast<std::size_t>(k)] = true;
          if (pinned[static_cast<std::size_t>(k)]) continue;

          const Seconds uk = std::max(t_max.makespan, opt_.step);  // line 10
          Seconds best_x = 0;
          // Re-baseline: x = 0 is always a candidate (a memo hit whenever
          // the stage already sat at zero).
          delay[static_cast<std::size_t>(k)] = 0;
          Score best = score_of(delay);

          const Seconds coarse = std::max(
              opt_.step, uk / static_cast<double>(opt_.coarse_candidates));
          scan_candidates(k, coarse, uk, coarse, delay, best_x, best, restart);
          // The refinement window re-visits best_x itself — a memo hit.
          const Seconds lo = std::max(0.0, best_x - coarse);
          const Seconds hi = std::min(uk, best_x + coarse);
          scan_candidates(k, lo, hi, opt_.step, delay, best_x, best, restart);

          delay[static_cast<std::size_t>(k)] = best_x;  // lines 16–18
          t_max = best;
        }
      }
    }
    return t_max;
  };

  // Multi-start: the greedy scan is prone to local optima (slack stages
  // often only pay off when delayed jointly), so run it from several
  // initialisations and keep the best-scoring schedule.
  //   A — Alg. 1 verbatim: all-zero start, every parallel stage scannable.
  //   B — long path pinned at zero ("preferably schedule the stages in the
  //       long-running execution path", §4.1), all-zero start.
  //   C — long path pinned; every other parallel stage starts pushed behind
  //       the critical head's solo fetch (joint stagger).
  //   D — long path pinned; slack paths pipelined one behind another
  //       (cumulative stagger of their head fetches).
  const std::vector<bool> no_pins(n, false);
  std::vector<bool> pin_longest(n, false);
  for (dag::StageId k : out.paths[order.front()].stages)
    pin_longest[static_cast<std::size_t>(k)] = true;
  const dag::StageId head = out.paths[order.front()].stages.front();
  const Seconds head_read = model.read_work(head) / model.read_rate_alone(head);

  auto init_joint = [&](std::vector<Seconds>& delay) {
    for (const auto& p : out.paths)
      for (dag::StageId k : p.stages)
        if (!pin_longest[static_cast<std::size_t>(k)])
          delay[static_cast<std::size_t>(k)] = head_read;
  };
  auto init_pipelined = [&](std::vector<Seconds>& delay) {
    Seconds offset = head_read;
    for (std::size_t oi = 1; oi < order.size(); ++oi) {
      bool advanced = false;
      for (dag::StageId k : out.paths[order[oi]].stages) {
        const auto i = static_cast<std::size_t>(k);
        if (pin_longest[i] || delay[i] > 0) continue;
        delay[i] = offset;
        if (!advanced) {
          offset += model.read_work(k) / model.read_rate_alone(k);
          advanced = true;
        }
      }
    }
  };

  // The restarts share nothing but the evaluator and the memo, so they run
  // concurrently too; the winner is still chosen by a sequential pass in
  // restart order.
  struct RestartResult {
    std::vector<Seconds> delay;
    Score score;
  };
  std::array<RestartResult, 4> results;
  pool.parallel_for(results.size(), [&](std::size_t r) {
    std::vector<Seconds> delay(n, 0.0);
    const std::vector<bool>* pins = r == 0 ? &no_pins : &pin_longest;
    if (r == 2) init_joint(delay);
    if (r == 3) init_pipelined(delay);
    const Score s = run_greedy(delay, *pins, static_cast<int>(r));
    results[r] = RestartResult{std::move(delay), s};
  });
  std::size_t best_r = 0;
  for (std::size_t r = 1; r < results.size(); ++r)
    if (results[r].score.better_than(results[best_r].score)) best_r = r;
  out.delay = std::move(results[best_r].delay);

  finalize(out);
  return out;
}

}  // namespace ds::core
