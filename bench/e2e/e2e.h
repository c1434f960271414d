// Shared pieces of the ds_e2e driver: run options, the metric report, and
// the timing/statistics helpers every workload uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured time of the run
  bool traced = false;
  int threads = 1;      // min(2, nproc): the replay fan-out
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports: every metric, plus the output checks. `attempted`
// counts checked operations (plans, hits, jobs, whole-run identities);
// `failed` those whose output was wrong or that threw.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages

  void set(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  // `ops` operations checked at once; `bad` of them failed.
  void check(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad > 0 && failures.size() < 16) failures.push_back(what);
  }
  void check(bool ok, const std::string& what) { check(1, ok ? 0 : 1, what); }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// p in [0, 100], linear interpolation between order statistics.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}
inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// Set-up time: run `setup` at least 5 times and for at least 0.25 s, and
// report the median, so one slow first touch cannot move it.
template <typename F>
double median_setup_seconds(F&& setup) {
  std::vector<double> reps;
  const auto start = Clock::now();
  while (reps.size() < 5 || seconds_since(start) < 0.25) {
    const auto t0 = Clock::now();
    setup();
    reps.push_back(seconds_since(t0));
  }
  return median(reps);
}

// The workloads. Each fills `report` with every end-to-end metric, and with
// every per-layer metric when opt.traced, writing its spans into `spans`.
void run_plan(const Options& opt, Report& report, Spans& spans);
void run_plan_warm(const Options& opt, Report& report, Spans& spans);
void run_run(const Options& opt, Report& report, Spans& spans);
void run_sched(const Options& opt, Report& report, Spans& spans);
void run_replay(const Options& opt, Report& report, Spans& spans);

}  // namespace e2e
