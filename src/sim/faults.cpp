#include "sim/faults.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace ds::sim {

Status validate(const FaultPlan& plan, const Cluster& cluster) {
  for (const auto& c : plan.crashes) {
    if (!cluster.is_worker(c.node))
      return Status::error("FaultPlan: crash target " + std::to_string(c.node) +
                           " is not a worker node");
    if (!(c.at >= 0)) return Status::error("FaultPlan: negative crash time");
  }
  if (!(plan.crash_rate >= 0))
    return Status::error("FaultPlan: negative crash_rate");
  if (plan.crash_rate > 0 && !(plan.crash_horizon > 0))
    return Status::error(
        "FaultPlan: stochastic crashes need a positive crash_horizon");
  return Status::ok();
}

FaultInjector::FaultInjector(Cluster& cluster, FaultPlan plan,
                             std::uint64_t seed)
    : cluster_(cluster), plan_(std::move(plan)), rng_(seed ^ kFaultSeedSalt) {
  const Status st = validate(plan_, cluster_);
  DS_CHECK_MSG(st.is_ok(), st.message());
  alive_.assign(static_cast<std::size_t>(cluster_.total_nodes()), true);
}

void FaultInjector::start() {
  DS_CHECK_MSG(!started_, "FaultInjector::start() called twice");
  started_ = true;
  Simulator& sim = cluster_.sim();

  // Expand the stochastic hazard into concrete crash events so the whole
  // run is a pure function of (plan, seed). Per worker: exponential gaps
  // between failures, exponential downtimes, nothing drawn while down.
  std::vector<NodeCrash> all = plan_.crashes;
  if (plan_.crash_rate > 0) {
    for (int w = 0; w < cluster_.num_workers(); ++w) {
      Seconds t = rng_.exponential(plan_.crash_rate);
      while (t < plan_.crash_horizon) {
        NodeCrash c;
        c.node = cluster_.worker(w);
        c.at = t;
        if (plan_.mean_downtime >= 0) {
          c.downtime = rng_.exponential(1.0 / std::max(plan_.mean_downtime,
                                                       Seconds{1e-9}));
          all.push_back(c);
          t += c.downtime + rng_.exponential(plan_.crash_rate);
        } else {
          all.push_back(c);  // permanent: this worker is done
          break;
        }
      }
    }
  }
  // Stable event order regardless of plan/draw order.
  std::sort(all.begin(), all.end(), [](const NodeCrash& a, const NodeCrash& b) {
    return a.at != b.at ? a.at < b.at : a.node < b.node;
  });
  expanded_ = all;

  for (const auto& c : all) {
    if (c.at < sim.now()) continue;
    sim.schedule_at(c.at, [this, c] { crash(c.node, c.downtime); });
  }
}

void FaultInjector::crash(NodeId n, Seconds downtime) {
  if (!alive(n)) return;  // overlapping plans: already down
  alive_[static_cast<std::size_t>(n)] = false;
  ++crashes_injected_;
  // Engines first (they unwind attempts against live accounting), then the
  // pool forfeits the node's slots.
  for (const auto& s : subscribers_) {
    if (s.on_crash) s.on_crash(n);
  }
  cluster_.executors().crash_node(n);
  if (downtime >= 0) {
    cluster_.sim().schedule_after(downtime, [this, n] { recover(n); });
  }
}

void FaultInjector::recover(NodeId n) {
  if (alive(n)) return;
  alive_[static_cast<std::size_t>(n)] = true;
  ++recoveries_;
  cluster_.executors().restore_node(n);
}

FaultInjector::SubscriptionId FaultInjector::subscribe(Handler on_crash) {
  const SubscriptionId id = next_sub_++;
  subscribers_.push_back({id, std::move(on_crash)});
  return id;
}

void FaultInjector::unsubscribe(SubscriptionId id) {
  for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
    if (it->id == id) {
      subscribers_.erase(it);
      return;
    }
  }
}

}  // namespace ds::sim
