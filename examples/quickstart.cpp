// Quickstart: define a DAG job, let DelayStage compute a stage delay
// schedule, and compare stock Spark scheduling against the delayed schedule
// on the simulated cluster.
//
//   ./quickstart
#include <iostream>

#include "core/delay_calculator.h"
#include "core/profile.h"
#include "core/stage_delayer.h"
#include "engine/job_run.h"
#include "sim/cluster.h"
#include "util/units.h"

int main() {
  using namespace ds;

  // 1. Describe a job the way DelayStage's profiler sees it: a DAG of
  //    stages with shuffle volumes and processing rates. Three parallel
  //    source stages funnel into a joiner and a sink.
  dag::JobDag job("quickstart");
  dag::Stage s;
  s.num_tasks = 30;
  s.task_skew = 0.2;

  s.name = "extract-a";
  s.input_bytes = 6_GB;
  s.process_rate = 2.5_MBps;
  s.output_bytes = 2_GB;
  const auto a = job.add_stage(s);

  s.name = "extract-b";
  s.input_bytes = 5_GB;
  const auto b = job.add_stage(s);

  s.name = "extract-c";
  s.num_tasks = 40;
  s.input_bytes = 10_GB;
  s.process_rate = 4.0_MBps;
  s.output_bytes = 4_GB;
  const auto c = job.add_stage(s);

  s.name = "join";
  s.num_tasks = 40;
  s.input_bytes = 6_GB;
  s.process_rate = 2.0_MBps;
  s.output_bytes = 1_GB;
  const auto join = job.add_stage(s);

  s.name = "report";
  s.num_tasks = 20;
  s.input_bytes = 3_GB;
  s.process_rate = 3.0_MBps;
  s.output_bytes = 0.1_GB;
  const auto report = job.add_stage(s);

  job.add_edge(c, join);
  job.add_edge(a, report);
  job.add_edge(b, report);
  job.add_edge(join, report);

  // 2. Profile it against the cluster and run Algorithm 1.
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile profile = core::JobProfile::from(job, spec);
  const core::DelaySchedule schedule =
      core::DelayCalculator(profile).compute();

  std::cout << "DelayStage schedule (metrics.properties):\n"
            << core::to_properties(schedule.delay)
            << "predicted makespan " << schedule.predicted_makespan
            << " s, predicted JCT " << schedule.predicted_jct << " s\n\n";

  // 3. Execute on the simulated 30-node cluster, stock vs delayed.
  auto run = [&](const std::vector<Seconds>& delay) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, /*seed=*/42);
    engine::RunOptions opt;
    opt.plan.delay = delay;
    opt.seed = 42;
    engine::JobRun r(cluster, job, opt);
    r.start();
    sim.run();
    return r.result().jct;
  };

  const double stock = run({});
  const double delayed = run(schedule.delay);
  std::cout << "stock Spark JCT: " << stock << " s\n"
            << "DelayStage JCT:  " << delayed << " s  ("
            << 100.0 * (stock - delayed) / stock << " % faster)\n";
  return 0;
}
