// Synthetic trace generator calibrated to the Alibaba cluster trace v2018
// statistics the paper reports (§2.1, Fig. 2-3, §5.3):
//   * 68.6% of jobs contain parallel stages; parallel stages are ~79% of all
//     stages on average.
//   * stage counts: mostly small (90% of jobs < 15 stages), long tail up to
//     186 stages (log-normal body, clipped).
//   * stage runtimes span 10 s - 3000 s (log-uniform).
//   * the parallel-stage makespan dominates: ≈82% of JCT on average.
// The real trace is a 270 GB download we cannot ship; any batch_task CSV can
// be substituted via trace::parse_batch_task_file and flows through the same
// pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace ds::trace {

// Stage-count lognormal body (median exp(kStagesMu) ≈ 5 stages), clipped to
// [min_stages, max_stages] — 90% of jobs < 15 stages (Fig. 2).
inline constexpr double kStagesMu = 1.6;
inline constexpr double kStagesSigma = 0.85;
// Shortest stage runtime, the low end of the trace's 10 s - 3000 s span.
inline constexpr Seconds kMinStageTime = 10;

// Generation is a single deterministic pass, so there is no `threads` or
// `obs`; `seed` keeps the CommonOptions name and default.
struct SyntheticTraceOptions {
  std::uint64_t seed = 1;
  std::size_t num_jobs = 2000;
  // Job submissions are Poisson over this horizon (the trace spans 8 days).
  Seconds horizon = 8 * 24 * 3600.0;
  // Fraction of jobs that are pure chains (no parallel stages): 1 - 0.686.
  double chain_fraction = 0.314;
  // Clip of the stage-count body (kStagesMu, kStagesSigma).
  int min_stages = 2;
  int max_stages = 186;
  // Stage runtime: log-uniform over [kMinStageTime, max_stage_time] seconds.
  Seconds max_stage_time = 3000;
};

// Deterministic for a given opt.seed.
std::vector<TraceJob> synthetic_trace(const SyntheticTraceOptions& opt);

}  // namespace ds::trace
