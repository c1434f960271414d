// Job profile: the model parameters DelayStage's calculator consumes.
//
// In the paper's prototype these come from profiling a 10% sample of the job
// on one executor (iSpot-style) plus netperf/iotop measurements of the
// cluster (§4.2). Here the same quantities are extracted from the volumetric
// workload description and the cluster spec — i.e., the calculator sees only
// what a real profiler would give it, never the engine's internals.
#pragma once

#include <algorithm>

#include "dag/job.h"
#include "sim/cluster.h"

namespace ds::core {

struct ClusterProfile {
  int num_workers = 0;
  int executors_per_worker = 0;      // ε_w
  BytesPerSec nic_bw = 0;            // B: measured average NIC bandwidth
  BytesPerSec disk_bw = 0;           // D
  int num_storage_nodes = 0;         // HDFS nodes serving source-stage input
  // Measured aggregate egress of the storage tier; 0 means "estimate as
  // num_storage_nodes × nic_bw" (nominal provisioning).
  BytesPerSec storage_net_bw = 0;
  // Cross-stage contention penalty β (measured, like B, by profiling
  // concurrent transfers): g stages interleaving on a port see aggregate
  // capacity C / (1 + β·ln g).
  double congestion_penalty = 0.0;

  int total_executors() const { return num_workers * executors_per_worker; }
};

struct JobProfile {
  const dag::JobDag* dag = nullptr;  // not owned; must outlive the profile
  ClusterProfile cluster;
  // Multiplicative correction on every stage's compute time (Eq. 1's
  // processing term). 1.0 = the profiled process rates are trusted as-is;
  // online calibration (core/calibration.h) raises it when observed compute
  // phases run consistently longer than predicted. Multiplying by exactly
  // 1.0 is a bit-exact identity, so an uncalibrated profile plans exactly
  // as before.
  double compute_time_scale = 1.0;

  // "Profile" a job against a cluster spec: the NIC figure is the mean of
  // the provisioned range (what repeated netperf probes would average to).
  static JobProfile from(const dag::JobDag& dag, const sim::ClusterSpec& spec) {
    JobProfile p;
    p.dag = &dag;
    p.cluster.num_workers = spec.num_workers;
    p.cluster.executors_per_worker = spec.executors_per_worker;
    p.cluster.nic_bw = 0.5 * (spec.nic_bw_min + spec.nic_bw_max);
    p.cluster.disk_bw = spec.disk_bw;
    p.cluster.num_storage_nodes = spec.num_storage_nodes;
    p.cluster.congestion_penalty = spec.congestion_penalty;
    return p;
  }

  // Profile against a *live* cluster: use the bandwidths netperf would
  // actually measure (the per-node draws) instead of nominal provisioning.
  static JobProfile from_measured(const dag::JobDag& dag,
                                  const sim::Cluster& cluster) {
    JobProfile p = from(dag, cluster.spec());
    BytesPerSec worker_sum = 0;
    for (int w = 0; w < cluster.num_workers(); ++w)
      worker_sum += cluster.nic_bw(cluster.worker(w));
    p.cluster.nic_bw = worker_sum / cluster.num_workers();
    // HDFS stripes blocks in proportion to node capacity, so the tier's
    // effective service is the measured egress sum (the max_i(s_i/B_i) term
    // of Eq. 1 balances out across proportional stripes).
    BytesPerSec storage_sum = 0;
    for (int i = 0; i < cluster.num_storage_nodes(); ++i)
      storage_sum += cluster.nic_bw(cluster.storage_node(i));
    p.cluster.storage_net_bw = storage_sum;
    return p;
  }
};

}  // namespace ds::core
