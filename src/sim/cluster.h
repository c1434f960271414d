// Cluster assembly: a spec (matching the paper's experimental setups) plus a
// live Cluster binding the network fabric, per-node disks and the executor
// pool to one simulator.
//
// Node numbering: worker nodes are [0, num_workers); dedicated storage
// (HDFS) nodes follow at [num_workers, num_workers + num_storage_nodes).
// Storage nodes have NICs and disks but no executors — they only serve the
// initial input reads, like the paper's "3 dedicated instances" for HDFS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/executor_pool.h"
#include "sim/fair_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace ds::sim {

struct ClusterSpec {
  int num_workers = 30;
  int executors_per_worker = 2;
  // Worker/storage NIC bandwidth drawn uniformly per node from this range
  // (the m4.large "100–480 Mbps" of §5.1; §5.3 uses 100 Mbps–2 Gbps).
  BytesPerSec nic_bw_min = 0;
  BytesPerSec nic_bw_max = 0;
  BytesPerSec disk_bw = 0;
  BytesPerSec loopback_bw = 0;
  int num_storage_nodes = 3;
  // Cross-stage contention penalty β (see NetworkFabric): ports interleaving
  // g distinct stages' flows serve C / (1 + β·(g − 1)). Calibrated so the
  // stock scheduler's synchronized fetch phases lose throughput the way the
  // paper's EC2 measurements show; 0 = ideal work-conserving fabric.
  double congestion_penalty = 0.0;
  // Geo-distributed deployment (§6 future work): nodes are spread round-
  // robin over `num_sites` sites; cross-site flows share a per-site-pair
  // WAN link of `wan_bw`.
  int num_sites = 1;
  BytesPerSec wan_bw = 0;
  // Per-worker compute speed factor drawn uniformly from this range
  // (1.0/1.0 = homogeneous). Slow machines create the machine-level
  // stragglers that speculative execution (RunOptions::speculation) fixes.
  double node_speed_min = 1.0;
  double node_speed_max = 1.0;

  int total_nodes() const { return num_workers + num_storage_nodes; }
  int total_executors() const { return num_workers * executors_per_worker; }

  // §5.1: 30× m4.large, 2 executors each, NIC 100–480 Mbps, SSD, 3 HDFS nodes.
  static ClusterSpec paper_prototype();
  // §2.1 motivation: the three-node cluster used for the ALS Fig. 5 trace.
  static ClusterSpec three_node();
  // §5.3 trace simulation: 4000 machines, B in [100 Mbps, 2 Gbps],
  // D = 80 MB/s, executors = cores.
  static ClusterSpec paper_simulation();
  // Two-datacenter variant of the prototype cluster (§6's geo-distributed
  // extension): same nodes, split across sites joined by a thin WAN pipe.
  static ClusterSpec geo_two_sites();

  // The presets a CLI flag or plan request may name: "prototype" or
  // "three_node". Any other name is an error and leaves *out untouched.
  static Status by_name(const std::string& name, ClusterSpec* out);
};

class Cluster {
 public:
  // `seed` fixes the per-node NIC bandwidth draw. `obs` (optional) is the
  // observability sink the fabric and executor pool publish into; it must
  // outlive the cluster and is passive (never changes simulation results).
  Cluster(Simulator& sim, const ClusterSpec& spec, std::uint64_t seed,
          obs::Observability* obs = nullptr);

  Simulator& sim() { return sim_; }
  const ClusterSpec& spec() const { return spec_; }

  int num_workers() const { return spec_.num_workers; }
  int num_storage_nodes() const { return spec_.num_storage_nodes; }
  int total_nodes() const { return spec_.total_nodes(); }
  NodeId worker(int i) const;
  NodeId storage_node(int i) const;
  bool is_worker(NodeId n) const { return n >= 0 && n < spec_.num_workers; }
  // Site of a node under the round-robin geo layout (0 when single-site).
  int site_of(NodeId n) const {
    return spec_.num_sites > 1 ? n % spec_.num_sites : 0;
  }
  // Compute speed factor of a worker (task compute time divides by this).
  double speed(NodeId n) const;

  NetworkFabric& fabric() { return *fabric_; }
  const NetworkFabric& fabric() const { return *fabric_; }
  ExecutorPool& executors() { return *executors_; }
  const ExecutorPool& executors() const { return *executors_; }
  FairQueue& disk(NodeId n) { return *disks_.at(static_cast<std::size_t>(n)); }

  BytesPerSec nic_bw(NodeId n) const { return fabric_->nic_bw(n); }

  // CPU accounting. An executor slot being *held* is not the same as the CPU
  // being *used*: Spark tasks occupy their executor while shuffle-reading and
  // shuffle-writing with the CPU nearly idle (the effect Fig. 5 shows). The
  // engine brackets actual data processing with begin/end_compute; the
  // utilization sampler reads computing().
  void begin_compute(NodeId n);
  void end_compute(NodeId n);
  int computing(NodeId n) const;

 private:
  Simulator& sim_;
  ClusterSpec spec_;
  std::unique_ptr<NetworkFabric> fabric_;
  std::unique_ptr<ExecutorPool> executors_;
  std::vector<std::unique_ptr<FairQueue>> disks_;
  std::vector<int> computing_;
  std::vector<double> speeds_;
};

}  // namespace ds::sim
