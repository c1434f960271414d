// ds::CommonOptions — the shared facade of the options structs that fan out.
//
// CalculatorOptions, ReplayOptions and SchedulerOptions *inherit*
// CommonOptions, so `opt.threads`, `opt.seed` and `opt.obs` are spelled and
// defaulted the same everywhere. The single-threaded engine's RunOptions
// (seed, obs) and the trace generator's SyntheticTraceOptions (seed) declare
// only the fields they read, with the same names and defaults. The base:
//   * normalizes 0/negative-means-hardware-concurrency in exactly one place
//     (resolved_threads());
//   * carries the observability sink (obs) that sim/, engine/, core/ and
//     trace/ publish metrics and trace spans into.
//
// Header-only on purpose: every layer includes it without taking a link
// dependency on ds_core.
#pragma once

#include <cstdint>
#include <thread>

namespace ds {

namespace obs {
struct Observability;
}

struct CommonOptions {
  // Worker threads for whatever fan-out the consumer runs (planner candidate
  // grids, replay per-job planning and engine runs, scheduler planning).
  // <= 0 = hardware concurrency.
  int threads = 1;
  // Deterministic seed: PathOrder::kRandom (calculator), per-job planning
  // (replay), cluster draws and per-job engine runs (scheduler).
  std::uint64_t seed = 1;
  // Observability sink (metrics + tracing); nullptr = disabled, zero
  // overhead. The sink must outlive the consumer. Purely passive: enabling
  // it never changes a simulation result bit.
  obs::Observability* obs = nullptr;

  // The one place 0-means-auto is resolved (mirrors ThreadPool's contract).
  int resolved_threads() const {
    if (threads > 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
};

}  // namespace ds
