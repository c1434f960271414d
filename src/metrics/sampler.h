// Periodic resource-utilization sampler, the simulator's equivalent of the
// paper's per-node monitoring (sar/netperf style). Every simulated second it
// records, per worker: CPU utilization (busy executors / slots, %) and NIC
// receive throughput (MB/s), plus cluster-wide averages for Fig. 4(a). Any
// other per-tick quantity — Fig. 13's executors held per stage — rides the
// same tick through track().
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "metrics/timeseries.h"
#include "sim/cluster.h"

namespace ds::metrics {

class UtilizationSampler {
 public:
  static constexpr Seconds kPeriod = 1.0;

  explicit UtilizationSampler(sim::Cluster& cluster);
  ~UtilizationSampler();
  UtilizationSampler(const UtilizationSampler&) = delete;
  UtilizationSampler& operator=(const UtilizationSampler&) = delete;

  // Begin sampling at the current sim time. stop() must be called before the
  // simulation can drain (the sampler keeps rescheduling itself).
  void start();
  void stop();

  // Record `probe()` into its own series at every tick; returns the series
  // index for tracked(). The probe must outlive the sampling.
  std::size_t track(std::function<double()> probe);
  const TimeSeries& tracked(std::size_t index) const;

  const TimeSeries& cpu_util(sim::NodeId worker) const;     // percent
  const TimeSeries& net_rx_mbps(sim::NodeId worker) const;  // MB/s
  const TimeSeries& cluster_cpu_util() const { return cluster_cpu_; }
  const TimeSeries& cluster_net_rx() const { return cluster_net_; }

 private:
  void sample();

  sim::Cluster& cluster_;
  sim::EventId pending_ = sim::kInvalidEvent;
  std::vector<BytesPerSec> rx_;  // per-tick scratch: every node's rx rate
  std::vector<TimeSeries> cpu_;
  std::vector<TimeSeries> net_;
  TimeSeries cluster_cpu_;
  TimeSeries cluster_net_;
  std::vector<std::function<double()>> probes_;
  std::vector<TimeSeries> tracked_;
};

}  // namespace ds::metrics
