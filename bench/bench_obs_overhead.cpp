// Observability overhead micro-benchmark: the same engine simulation timed
// with obs off (null sink — compiled in but disabled), metrics only (live
// registry handles, tracer disabled), flight (metrics + the always-on
// flight-recorder ring), telemetry (metrics + one registry snapshot per
// workload run, the streaming-sink steady state), and full (metrics + span
// tracing). Writes BENCH_obs.json for tools/check_bench.py, which enforces
// both an absolute throughput floor on the off mode and overhead ceilings
// (<3%) on the instrumented modes.
//
// Overheads are paired: each of kRounds rounds runs every workload under
// `off` and every instrumented mode back to back (one pair per workload and
// round), and a mode's overhead is the median over pairs of its thread-CPU
// time relative to the same pair's `off` run, so machine drift cancels
// inside each pair. The off-mode floor is wall clock (the fastest round's
// whole suite).
//
//   ./bench_obs_overhead [output.json]
#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/job_run.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "sched/strategy.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

// CPU seconds consumed by the calling thread (the whole engine run).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Mode {
  std::string name;
  double seconds_per_rep = 0;  // fastest round's wall time for the suite
  double runs_per_sec = 0;
  double overhead_pct = 0;  // median paired CPU-time overhead vs off
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ds;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  constexpr std::uint64_t kSeed = 42;
  constexpr int kRounds = 10;

  const auto suite = workloads::benchmark_suite();
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();

  // Pre-plan every workload once: the planner's cost is not what this bench
  // measures, and the plan for a given (dag, spec, seed) is deterministic.
  std::vector<engine::SubmissionPlan> plans;
  for (const auto& w : suite) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, kSeed);
    plans.push_back(sched::make_strategy("DelayStage")->plan(w.dag, cluster));
  }

  // One sink per instrumented mode, reused across rounds so the steady state
  // (warm rings, resolved cells, interned labels) is what gets timed.
  obs::TracerOptions full_topt;
  full_topt.enabled = true;
  obs::FlightRecorderOptions flight_fopt;
  flight_fopt.enabled = true;
  obs::Observability metrics_only;
  obs::Observability flight_obs(obs::TracerOptions{}, flight_fopt);
  obs::Observability telemetry_obs;
  obs::Observability full(full_topt);
  std::ostringstream telemetry_out;
  obs::TelemetrySink telemetry_sink(telemetry_out);
  std::vector<Mode> modes = {
      {"off"}, {"metrics"}, {"flight"}, {"telemetry"}, {"full"}};
  obs::Observability* sinks[] = {nullptr, &metrics_only, &flight_obs,
                                 &telemetry_obs, &full};
  obs::TelemetrySink* telem[] = {nullptr, nullptr, nullptr, &telemetry_sink,
                                 nullptr};

  auto run_job = [&](std::size_t i, obs::Observability* obs,
                     obs::TelemetrySink* sink) {
    sim::Simulator sim(obs);
    sim::Cluster cluster(sim, spec, kSeed, obs);
    engine::RunOptions opt;
    opt.plan = plans[i];
    opt.seed = kSeed;
    opt.obs = obs;
    opt.flight_job_id = i + 1;
    engine::JobRun run(cluster, suite[i].dag, opt);
    run.start();
    sim.run();
    DS_CHECK(run.finished() && !run.result().failed);
    if (sink != nullptr) sink->snapshot(*obs, sim.now());
    return run.result().jct;
  };

  // Each pair starts at a different mode (rotating by round and workload),
  // so every mode runs in every position equally often. The simulated JCTs
  // must not depend on the mode — observability is passive by contract.
  std::vector<double> best(modes.size(), 1e300);
  std::vector<std::vector<double>> paired(modes.size());
  std::vector<double> reference_jct(suite.size(), -1);
  for (int round = 0; round < kRounds; ++round) {
    telemetry_out.str("");  // discard last round's snapshots, keep buffer warm
    std::vector<double> wall(modes.size(), 0);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      std::vector<double> cpu(modes.size());
      for (std::size_t k = 0; k < modes.size(); ++k) {
        const std::size_t m = (round + i + k) % modes.size();
        const auto t0 = Clock::now();
        const double c0 = thread_cpu_s();
        const Seconds jct = run_job(i, sinks[m], telem[m]);
        cpu[m] = thread_cpu_s() - c0;
        wall[m] += std::chrono::duration<double>(Clock::now() - t0).count();
        if (reference_jct[i] < 0) reference_jct[i] = jct;
        DS_CHECK_MSG(jct == reference_jct[i],
                     "simulation result depends on obs mode");
      }
      for (std::size_t m = 1; m < modes.size(); ++m)
        paired[m].push_back(100.0 * (cpu[m] - cpu[0]) / cpu[0]);
    }
    for (std::size_t m = 0; m < modes.size(); ++m)
      best[m] = std::min(best[m], wall[m]);
  }
  for (std::size_t m = 0; m < modes.size(); ++m) {
    modes[m].seconds_per_rep = best[m];
    modes[m].runs_per_sec = static_cast<double>(suite.size()) / best[m];
    if (m > 0) modes[m].overhead_pct = median(paired[m]);
  }

  TablePrinter t({"mode", "ms/suite", "runs/s", "overhead %"});
  t.set_precision(2);
  for (const auto& m : modes)
    t.add_row({m.name, 1000.0 * m.seconds_per_rep, m.runs_per_sec,
               m.overhead_pct});
  t.print(std::cout);
  std::cout << "traced events: " << full.tracer.recorded() << " ("
            << full.tracer.dropped() << " dropped), flight records: "
            << flight_obs.flight.recorded() << " ("
            << flight_obs.flight.dropped() << " dropped), telemetry snapshots: "
            << telemetry_sink.snapshots() << "\n";

  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n  \"obs\": [\n";
  for (std::size_t m = 0; m < modes.size(); ++m) {
    json << "    {\"mode\": \"" << modes[m].name
         << "\", \"seconds_per_rep\": " << modes[m].seconds_per_rep
         << ", \"runs_per_sec\": " << modes[m].runs_per_sec
         << ", \"overhead_pct\": " << modes[m].overhead_pct << "}"
         << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
