#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace ds::trace {

namespace {

TraceStage make_stage(Rng& rng, const SyntheticTraceOptions& opt, int index) {
  TraceStage s;
  s.name = "stage" + std::to_string(index + 1);
  // Task counts follow a broad log body; exact values only matter for skew
  // and slot pressure at replay granularity.
  s.num_tasks = static_cast<int>(std::clamp(rng.lognormal(3.5, 0.9), 1.0, 2000.0));
  s.task_skew = rng.uniform(0.0, 0.4);
  const Seconds dur = std::exp(
      rng.uniform(std::log(kMinStageTime), std::log(opt.max_stage_time)));
  const double read_frac = rng.uniform(0.15, 0.45);
  const double write_frac = rng.uniform(0.03, 0.12);
  s.read_solo = dur * read_frac;
  s.write_solo = dur * write_frac;
  s.compute_solo = dur - s.read_solo - s.write_solo;
  return s;
}

}  // namespace

std::vector<TraceJob> synthetic_trace(const SyntheticTraceOptions& opt) {
  DS_CHECK(opt.num_jobs > 0);
  DS_CHECK(opt.min_stages >= 1 && opt.max_stages >= opt.min_stages);
  DS_CHECK(opt.max_stage_time >= kMinStageTime);
  DS_CHECK(opt.chain_fraction >= 0 && opt.chain_fraction <= 1);

  Rng rng(opt.seed);
  std::vector<TraceJob> jobs;
  jobs.reserve(opt.num_jobs);

  for (std::size_t i = 0; i < opt.num_jobs; ++i) {
    TraceJob job;
    job.name = "job-" + std::to_string(i);
    job.submit_time = rng.uniform(0.0, opt.horizon);

    int n = static_cast<int>(
        std::clamp(std::round(rng.lognormal(kStagesMu, kStagesSigma)),
                   static_cast<double>(opt.min_stages),
                   static_cast<double>(opt.max_stages)));
    const bool chain = rng.chance(opt.chain_fraction);
    // Chain jobs in the trace are short ETL pipelines; keeping them small
    // also keeps the global parallel-stage share at the reported ~79%.
    if (chain) n = std::min(n, static_cast<int>(rng.uniform_int(2, 4)));
    for (int s = 0; s < n; ++s) job.stages.push_back(make_stage(rng, opt, s));

    if (chain) {
      // Pure chain: no parallel stages at all.
      for (int s = 1; s < n; ++s) job.stages[static_cast<std::size_t>(s)].parents = {s - 1};
    } else {
      // Layered parallel body (widths >= 2 so most stages have a parallel
      // peer — the trace's ~79% parallel-stage share) followed, usually, by
      // a short sequential tail that funnels the body (Fig. 3's parallel
      // makespan share averages ~82%, not 100%).
      int tail = 0;
      if (n >= 4 && rng.chance(0.8))
        tail = static_cast<int>(rng.uniform_int(1, std::min(2, n - 3)));
      const int body = n - tail;

      std::vector<std::vector<int>> layers;
      int next = 0;
      while (next < body) {
        const int remaining = body - next;
        int width;
        if (remaining <= 3) {
          width = remaining;
        } else {
          width = std::min(remaining - 2,
                           static_cast<int>(rng.uniform_int(2, 5)));
        }
        width = std::max(width, 1);
        std::vector<int> layer;
        for (int k = 0; k < width; ++k) layer.push_back(next++);
        layers.push_back(std::move(layer));
      }
      for (std::size_t l = 1; l < layers.size(); ++l) {
        const auto& prev = layers[l - 1];
        for (int stage : layers[l]) {
          auto& parents = job.stages[static_cast<std::size_t>(stage)].parents;
          const auto pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(prev.size()) - 1));
          parents.push_back(prev[pick]);
          if (prev.size() > 1 && rng.chance(0.3))
            parents.push_back(prev[(pick + 1) % prev.size()]);
        }
      }
      // Sequential tail: the first tail stage funnels every childless body
      // stage (dangling sources included, or they would stay parallel with
      // the whole tail).
      if (tail > 0) {
        std::vector<bool> has_child(static_cast<std::size_t>(body), false);
        for (int s = 0; s < body; ++s)
          for (int p : job.stages[static_cast<std::size_t>(s)].parents)
            has_child[static_cast<std::size_t>(p)] = true;
        auto& funnel = job.stages[static_cast<std::size_t>(body)].parents;
        for (int s = 0; s < body; ++s)
          if (!has_child[static_cast<std::size_t>(s)]) funnel.push_back(s);
        for (int s = body + 1; s < n; ++s)
          job.stages[static_cast<std::size_t>(s)].parents = {s - 1};
      }
    }
    jobs.push_back(std::move(job));
  }

  std::sort(jobs.begin(), jobs.end(), [](const TraceJob& a, const TraceJob& b) {
    return a.submit_time < b.submit_time;
  });
  return jobs;
}

}  // namespace ds::trace
