// Algorithm 1 — the DelayStage stage delay scheduling strategy.
//
// Organise the parallel stages into execution paths, visit paths in
// descending order of (solo) path time, and for each not-yet-scheduled stage
// scan candidate delays x̂_k ∈ [l_k, u_k] on a slotted grid, keeping the
// delay that minimises the makespan of the parallel-stage region as computed
// by the interference-aware ScheduleEvaluator.
//
// Delays here are *relative to stage readiness* (all parents complete),
// matching the prototype's sleep inside submitStage(). This makes
// constraints (5)–(7) hold by construction: x_k >= 0 is the grid's lower
// bound, and a stage physically cannot be submitted before its parents
// finish. l_k = 0 therefore corresponds to the paper's l_k = x_j + t_j, and
// u_k is the current makespan T_max exactly as in line 10.
#pragma once

#include <cstdint>

#include "core/evaluator.h"
#include "core/options.h"
#include "dag/paths.h"
#include "util/status.h"

namespace ds::core {

enum class PathOrder { kDescending, kRandom, kAscending };

// CommonOptions supplies:
//   threads — planner workers: candidate grids and the multi-start restarts
//     are evaluated concurrently; <= 0 = hardware concurrency. The result is
//     bit-identical for every thread count: candidates land in per-index
//     slots and every argmin reduction runs sequentially in grid order (ties
//     break towards the smallest x, exactly like the sequential scan).
//   seed — used by PathOrder::kRandom only.
//   obs — planner search counters (planner.evaluations, planner.memo_hits)
//     and wall-clock phase spans (compute/restart/scan).
struct CalculatorOptions : CommonOptions {
  PathOrder order = PathOrder::kDescending;
  // Candidate-delay grid width (the paper's "one second per slot").
  Seconds step = 1.0;
  // Evaluator slot width.
  Seconds slot = 1.0;
  // Bound the candidate count per stage: scan a coarse grid of at most
  // `coarse_candidates` points, then refine around the best with `step`.
  // Keeps the per-stage work constant, preserving Alg. 1's ~linear scaling
  // in |K| (Fig. 15). Set false for the paper's exhaustive slotted scan.
  bool coarse_to_fine = true;
  int coarse_candidates = 32;
  // Number of passes over the path list. Pass 1 is Alg. 1 verbatim; further
  // passes re-scan each stage with the others fixed (coordinate descent),
  // catching joint delays the single greedy pass cannot see.
  int sweeps = 2;
  // Cache delay-vector scores across the search. Alg. 1 re-baselines each
  // stage at x = 0 (an already-scored vector) and the fine-refinement pass
  // re-visits its own coarse best; the memo answers both without
  // re-simulating. Scores are pure in the delay vector, so this never
  // changes the result.
  bool memoize = true;
  // Risk posture of the evaluator's perf model (quantile target, speculation
  // truncation). Defaults reproduce the legacy mean estimates bit-exactly.
  ModelOptions model;
};

// Validates field combinations (positive grid widths, a sane candidate
// budget, a model quantile in range, …). The DelayCalculator constructor
// enforces this (throwing CheckError with the same message); CLIs call it
// up front to print a friendly `error: …` instead.
Status validate(const CalculatorOptions& options);

struct DelaySchedule {
  // x_k per stage (0 for sequential stages and undelayed parallel stages).
  std::vector<Seconds> delay;
  Seconds predicted_makespan = -1;  // parallel-region end under this X
  Seconds predicted_jct = -1;
  // Per-stage predicted timeline under `delay` (the evaluator's slotted
  // simulation of the chosen schedule, indexed by StageId). Each entry
  // carries the model's per-term breakdown — network fetch is
  // [submitted, read_done), compute is [read_done, compute_done), shuffle
  // write is [compute_done, finish) — which is what the model-drift
  // analytics (obs/analytics) compare against an executed run.
  std::vector<StageTimeline> predicted_stages;
  std::vector<dag::ExecutionPath> paths;  // the decomposition used
  // Search-cost counters: slotted simulations actually run, and candidate
  // scores answered from the memo instead.
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
};

class DelayCalculator {
 public:
  explicit DelayCalculator(const JobProfile& profile,
                           CalculatorOptions options = {});

  DelaySchedule compute() const;

 private:
  const JobProfile& profile_;
  CalculatorOptions opt_;
};

const char* to_string(PathOrder order);

}  // namespace ds::core
