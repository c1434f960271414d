// Failure-domain fault injection for the cluster simulator.
//
// A FaultPlan declares whole-node crashes (scheduled, or drawn from a
// per-worker Poisson hazard) and optional recovery. The FaultInjector turns
// the plan into simulator events and drives the mechanism layer:
//
//   crash    → node marked dead, its executor slots forfeited
//              (ExecutorPool::crash_node) and every subscriber notified so
//              engines can kill live attempts and invalidate the shuffle
//              output the node stored (Spark's dominant failure mode: a lost
//              node takes its map output with it, and downstream reads hit
//              *fetch failures* that force parent-stage re-execution).
//   recovery → node returns with all slots free and an empty disk — lost
//              shuffle output stays lost, exactly like a restarted executor.
//
// Everything is expanded deterministically from the plan and the seed at
// start(): the same (plan, seed) pair yields the same crash times on every
// run, which keeps whole-job results byte-identical (see faults_test).
// The injector's RNG stream is derived from the caller's seed XORed with a
// fixed salt (kFaultSeedSalt), so passing the one CommonOptions::seed to
// both an engine and its injector yields *decorrelated* streams — the fault
// schedule is a pure function of (plan, seed) alone, bit-reproducible
// across runs and shard counts, and never entangled with the engine's
// per-task skew draws that consume the unsalted seed.
//
// Job-level semantics (which attempts die, which parent tasks re-run, when a
// job gives up) live in engine::JobRun; this module only owns node liveness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/cluster.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/status.h"

namespace ds::sim {

// Salt XORed into the FaultInjector's RNG seed. Fixed forever: changing it
// changes every stochastic fault schedule.
inline constexpr std::uint64_t kFaultSeedSalt = 0xFA'17'5E'ED'0D'15'EA'5Eull;

// One scheduled whole-node failure. Only worker nodes may crash: storage
// (HDFS) nodes model a replicated, durable tier.
struct NodeCrash {
  NodeId node = -1;
  Seconds at = 0;
  // Downtime before the node rejoins with empty disks; < 0 = stays down.
  Seconds downtime = -1;
};

struct FaultPlan {
  // Scheduled crashes, applied verbatim.
  std::vector<NodeCrash> crashes;
  // Stochastic crashes: each worker fails as a Poisson process with this
  // hazard rate (crashes per node per second), drawn over [0, crash_horizon).
  double crash_rate = 0.0;
  Seconds crash_horizon = 0.0;
  // Mean of the exponential downtime for stochastic crashes; < 0 = crashed
  // nodes never come back.
  Seconds mean_downtime = -1.0;

  bool empty() const { return crashes.empty() && crash_rate <= 0; }
};

// Checks `plan` against `cluster`: crash targets are worker nodes, crash
// times are not negative, and a stochastic hazard has a positive horizon.
// FaultInjector enforces this (throwing CheckError with the same message);
// CLIs call it up front for a friendly `error: …`.
Status validate(const FaultPlan& plan, const Cluster& cluster);

class FaultInjector {
 public:
  using Handler = std::function<void(NodeId)>;
  using SubscriptionId = std::uint64_t;

  // `seed` fixes the stochastic crash draw (internally salted with
  // kFaultSeedSalt — callers pass the same CommonOptions::seed they give
  // the engine and still get an independent stream); the cluster must
  // outlive the injector. Validates the plan eagerly (see validate()).
  FaultInjector(Cluster& cluster, FaultPlan plan, std::uint64_t seed);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Expand the plan into simulator events. Call once, before (or while) the
  // simulation runs; events earlier than sim().now() are dropped.
  void start();

  Cluster& cluster() { return cluster_; }
  const FaultPlan& plan() const { return plan_; }

  bool alive(NodeId n) const { return alive_.at(static_cast<std::size_t>(n)); }
  int crashes_injected() const { return crashes_injected_; }
  int recoveries() const { return recoveries_; }

  // The concrete crash schedule start() expanded from (plan, seed) —
  // scheduled crashes plus the stochastic draws, sorted by (at, node).
  // Valid after start(); what faults_test asserts bit-reproducible.
  const std::vector<NodeCrash>& expanded_crashes() const {
    return expanded_;
  }

  // Subscribe to crash notifications. Handlers run *before* the executor
  // pool forfeits the node's slots, so an engine can unwind its attempts
  // (end_compute, cancel flows/claims) while the node's accounting still
  // exists. Subscribers must unsubscribe before they are destroyed.
  SubscriptionId subscribe(Handler on_crash);
  void unsubscribe(SubscriptionId id);

 private:
  struct Subscriber {
    SubscriptionId id;
    Handler on_crash;
  };

  void crash(NodeId n, Seconds downtime);
  void recover(NodeId n);

  Cluster& cluster_;
  FaultPlan plan_;
  Rng rng_;
  bool started_ = false;
  std::vector<NodeCrash> expanded_;
  std::vector<bool> alive_;
  std::vector<Subscriber> subscribers_;
  SubscriptionId next_sub_ = 1;
  int crashes_injected_ = 0;
  int recoveries_ = 0;
};

}  // namespace ds::sim
