// Job arrival processes for the scheduler service.
//
// Two sources, matching how the paper's §5.3 trace experiments are driven:
//   * Poisson — i.i.d. exponential inter-arrival gaps at a target rate, the
//     standard open-loop load generator ("arrival intensity" in the
//     `bench_paper sched` ablation is this rate).
//   * Trace-driven — inter-arrival gaps replayed from real submit
//     timestamps (e.g. the Alibaba batch_task table via
//     trace::parse_batch_task_file, or the calibrated synthetic trace),
//     preserving the burstiness a Poisson process smooths away.
//
// Both return absolute submit times starting at 0, deterministic for a
// given seed / trace. `rescale_to_rate` maps a trace's gaps onto a target
// mean rate so the same burst structure can be swept across intensities.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/units.h"

namespace ds::service {

// `rate` is jobs per second (> 0). First arrival at the first sampled gap.
std::vector<Seconds> poisson_arrivals(std::size_t n, double rate,
                                      std::uint64_t seed);

// Inter-arrival structure of `jobs`' submit_time fields (sorted, shifted to
// start at 0), cycled if n exceeds the trace length. Jobs with identical
// timestamps arrive back-to-back, exactly as recorded.
std::vector<Seconds> trace_arrivals(const std::vector<trace::TraceJob>& jobs,
                                    std::size_t n);

// Uniformly rescale arrival times so the mean inter-arrival gap is 1/rate.
// No-op for fewer than two arrivals or a degenerate (all-equal) trace.
void rescale_to_rate(std::vector<Seconds>& arrivals, double rate);

}  // namespace ds::service
