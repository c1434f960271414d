// Stage-scheduling strategies: each turns a job DAG + cluster spec into a
// SubmissionPlan for the execution engine. These are the systems compared in
// the paper's evaluation (§5.1 "Baselines", §5.3).
#pragma once

#include <memory>
#include <string>

#include "core/delay_calculator.h"
#include "dag/job.h"
#include "engine/job_run.h"
#include "engine/plan.h"
#include "sim/cluster.h"

namespace ds::sched {

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;
  // Plan from nominal cluster provisioning (spec-level knowledge).
  virtual engine::SubmissionPlan plan(const dag::JobDag& dag,
                                      const sim::ClusterSpec& spec) = 0;
  // Plan against a live cluster: strategies that profile (DelayStage's
  // netperf/iotop step, §4.2) use the measured per-node bandwidths. Default:
  // same as the nominal plan.
  virtual engine::SubmissionPlan plan(const dag::JobDag& dag,
                                      const sim::Cluster& cluster) {
    return plan(dag, cluster.spec());
  }
};

// The stock Spark scheduler: submit every stage the moment it has acquired
// all of its shuffle input (zero delays, no pipelining).
//
// Alibaba Fuxi (VLDB'14) as characterised in §5.3 balances task execution
// uniformly across workers but submits stages immediately. Our engine's
// default placement is already load-balanced, so Fuxi is this same plan
// under its own name — the trace experiments (Fig. 14, Table 4) report it
// as "Fuxi".
class StockSparkStrategy final : public Strategy {
 public:
  explicit StockSparkStrategy(const char* name = "Spark") : name_(name) {}
  std::string name() const override { return name_; }
  engine::SubmissionPlan plan(const dag::JobDag&, const sim::ClusterSpec&) override {
    return {};
  }

 private:
  const char* name_;
};

// AggShuffle (Liu et al., ICDCS'17): proactively transfers map output toward
// the reduce side as map tasks complete, pipelining the shuffle over the
// network. Network-only optimisation; stages are never delayed.
class AggShuffleStrategy final : public Strategy {
 public:
  std::string name() const override { return "AggShuffle"; }
  engine::SubmissionPlan plan(const dag::JobDag&, const sim::ClusterSpec&) override {
    engine::SubmissionPlan p;
    p.pipelined_shuffle = true;
    return p;
  }
};

// Graphene-style critical-path-first baseline: no delays, but stages with
// the longest remaining (downstream) path win contended executor slots
// first. Optimises stage *placement order*, not launch time — the axis of
// related work DelayStage is orthogonal to (§6).
class CriticalPathFirstStrategy final : public Strategy {
 public:
  std::string name() const override { return "CriticalPathFirst"; }
  engine::SubmissionPlan plan(const dag::JobDag& dag,
                              const sim::ClusterSpec& spec) override;
};

// DelayStage: run Algorithm 1 and apply the computed delays.
class DelayStageStrategy final : public Strategy {
 public:
  explicit DelayStageStrategy(core::CalculatorOptions options = {})
      : options_(options) {}

  std::string name() const override {
    switch (options_.order) {
      case core::PathOrder::kDescending: return "DelayStage";
      case core::PathOrder::kRandom: return "random DelayStage";
      case core::PathOrder::kAscending: return "ascending DelayStage";
    }
    return "DelayStage";
  }

  engine::SubmissionPlan plan(const dag::JobDag& dag,
                              const sim::ClusterSpec& spec) override;
  engine::SubmissionPlan plan(const dag::JobDag& dag,
                              const sim::Cluster& cluster) override;

  // Schedule computed by the most recent plan() call (for reporting).
  const core::DelaySchedule& last_schedule() const { return last_; }

 private:
  core::CalculatorOptions options_;
  core::DelaySchedule last_;
};

// Factory used by benches/examples to iterate over the paper's line-up.
std::unique_ptr<Strategy> make_strategy(const std::string& name);

// Co-optimize the planner's straggler model with the engine's speculation
// policy: when the run will speculate, the planner should predict with the
// same capped straggler factor the engine will actually realise (and with
// the matching threshold) rather than the uncapped extreme-value tail.
// Returns `options` with the model's speculation knobs aligned to `run`'s.
// Everything else (quantile target included) passes through unchanged.
core::CalculatorOptions co_optimized(core::CalculatorOptions options,
                                     const engine::RunOptions& run);

}  // namespace ds::sched
