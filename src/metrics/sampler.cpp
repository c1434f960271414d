#include "metrics/sampler.h"

#include <utility>

#include "util/check.h"
#include "util/units.h"

namespace ds::metrics {

UtilizationSampler::UtilizationSampler(sim::Cluster& cluster)
    : cluster_(cluster) {
  cpu_.resize(static_cast<std::size_t>(cluster.num_workers()));
  net_.resize(static_cast<std::size_t>(cluster.num_workers()));
}

UtilizationSampler::~UtilizationSampler() { stop(); }

void UtilizationSampler::start() {
  DS_CHECK_MSG(pending_ == sim::kInvalidEvent, "sampler already running");
  sample();
}

void UtilizationSampler::stop() {
  if (pending_ != sim::kInvalidEvent) {
    cluster_.sim().cancel(pending_);
    pending_ = sim::kInvalidEvent;
  }
}

std::size_t UtilizationSampler::track(std::function<double()> probe) {
  probes_.push_back(std::move(probe));
  tracked_.emplace_back();
  return tracked_.size() - 1;
}

const TimeSeries& UtilizationSampler::tracked(std::size_t index) const {
  return tracked_.at(index);
}

const TimeSeries& UtilizationSampler::cpu_util(sim::NodeId worker) const {
  return cpu_.at(static_cast<std::size_t>(worker));
}

const TimeSeries& UtilizationSampler::net_rx_mbps(sim::NodeId worker) const {
  return net_.at(static_cast<std::size_t>(worker));
}

void UtilizationSampler::sample() {
  const Seconds now = cluster_.sim().now();
  const auto& pool = cluster_.executors();
  cluster_.fabric().node_rx_rates(rx_);
  double cpu_sum = 0;
  double net_sum = 0;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    // CPU utilization = tasks actively processing data / executors, not slot
    // occupancy: a task fetching shuffle input holds its slot but leaves the
    // CPU idle (paper Fig. 5).
    const double util =
        100.0 * static_cast<double>(cluster_.computing(w)) /
        static_cast<double>(pool.slots(w));
    const double rx = to_MBps(rx_[static_cast<std::size_t>(w)]);
    cpu_[static_cast<std::size_t>(w)].push(now, util);
    net_[static_cast<std::size_t>(w)].push(now, rx);
    cpu_sum += util;
    net_sum += rx;
  }
  const auto nw = static_cast<double>(cluster_.num_workers());
  cluster_cpu_.push(now, cpu_sum / nw);
  cluster_net_.push(now, net_sum / nw);
  for (std::size_t i = 0; i < probes_.size(); ++i)
    tracked_[i].push(now, probes_[i]());
  pending_ = cluster_.sim().schedule_after(kPeriod, [this] {
    pending_ = sim::kInvalidEvent;
    sample();
  });
}

}  // namespace ds::metrics
