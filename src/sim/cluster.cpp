#include "sim/cluster.h"

#include "util/check.h"
#include "util/rng.h"

namespace ds::sim {

using namespace ds;  // unit literals

ClusterSpec ClusterSpec::paper_prototype() {
  ClusterSpec s;
  s.num_workers = 30;
  s.executors_per_worker = 2;
  s.nic_bw_min = 100_Mbps;
  s.nic_bw_max = 480_Mbps;
  s.disk_bw = 100_MBps;  // m4.large SSD-backed storage
  s.loopback_bw = 1000_MBps;
  s.num_storage_nodes = 3;
  s.congestion_penalty = 1.2;
  return s;
}

ClusterSpec ClusterSpec::three_node() {
  ClusterSpec s = paper_prototype();
  s.num_workers = 3;
  s.num_storage_nodes = 1;
  return s;
}

ClusterSpec ClusterSpec::paper_simulation() {
  ClusterSpec s;
  s.num_workers = 4000;
  s.executors_per_worker = 96;  // trace v2018 machines have 96 cores
  s.nic_bw_min = 100_Mbps;
  s.nic_bw_max = 2_Gbps;
  s.disk_bw = 80_MBps;
  s.loopback_bw = 2000_MBps;
  s.num_storage_nodes = 0;
  s.congestion_penalty = 1.2;
  return s;
}

ClusterSpec ClusterSpec::geo_two_sites() {
  ClusterSpec s = paper_prototype();
  s.num_sites = 2;
  s.wan_bw = 500_Mbps;
  return s;
}

Status ClusterSpec::by_name(const std::string& name, ClusterSpec* out) {
  if (name == "prototype") {
    *out = paper_prototype();
  } else if (name == "three_node") {
    *out = three_node();
  } else {
    return Status::error("unknown cluster '" + name +
                         "' (want prototype or three_node)");
  }
  return Status::ok();
}

Cluster::Cluster(Simulator& sim, const ClusterSpec& spec, std::uint64_t seed,
                 obs::Observability* obs)
    : sim_(sim), spec_(spec) {
  DS_CHECK(spec.num_workers > 0);
  DS_CHECK(spec.executors_per_worker > 0);
  DS_CHECK(spec.nic_bw_min > 0 && spec.nic_bw_max >= spec.nic_bw_min);
  DS_CHECK(spec.disk_bw > 0);
  DS_CHECK(spec.loopback_bw > 0);
  DS_CHECK(spec.num_storage_nodes >= 0);
  DS_CHECK(spec.num_sites >= 1);

  Rng rng(seed);
  std::vector<BytesPerSec> nic(static_cast<std::size_t>(spec.total_nodes()));
  for (auto& bw : nic) bw = rng.uniform(spec.nic_bw_min, spec.nic_bw_max);
  std::vector<int> site_of;
  if (spec.num_sites > 1) {
    site_of.resize(static_cast<std::size_t>(spec.total_nodes()));
    for (int i = 0; i < spec.total_nodes(); ++i)
      site_of[static_cast<std::size_t>(i)] = i % spec.num_sites;
  }
  fabric_ = std::make_unique<NetworkFabric>(sim, std::move(nic), spec.loopback_bw,
                                            spec.congestion_penalty,
                                            std::move(site_of), spec.wan_bw, obs);

  std::vector<int> slots(static_cast<std::size_t>(spec.num_workers),
                         spec.executors_per_worker);
  executors_ = std::make_unique<ExecutorPool>(sim, std::move(slots), obs);

  disks_.reserve(static_cast<std::size_t>(spec.total_nodes()));
  for (int i = 0; i < spec.total_nodes(); ++i) {
    disks_.push_back(std::make_unique<FairQueue>(sim, spec.disk_bw));
  }
  computing_.assign(static_cast<std::size_t>(spec.num_workers), 0);

  DS_CHECK(spec.node_speed_min > 0 && spec.node_speed_max >= spec.node_speed_min);
  speeds_.resize(static_cast<std::size_t>(spec.num_workers));
  for (auto& sp : speeds_) sp = rng.uniform(spec.node_speed_min, spec.node_speed_max);
}

double Cluster::speed(NodeId n) const {
  DS_CHECK_MSG(is_worker(n), "speed() on non-worker " << n);
  return speeds_[static_cast<std::size_t>(n)];
}

void Cluster::begin_compute(NodeId n) {
  DS_CHECK_MSG(is_worker(n), "begin_compute on non-worker " << n);
  auto& c = computing_[static_cast<std::size_t>(n)];
  DS_CHECK_MSG(c < spec_.executors_per_worker,
               "more computing tasks than executors on node " << n);
  ++c;
}

void Cluster::end_compute(NodeId n) {
  DS_CHECK_MSG(is_worker(n), "end_compute on non-worker " << n);
  auto& c = computing_[static_cast<std::size_t>(n)];
  DS_CHECK_MSG(c > 0, "end_compute with no computing tasks on node " << n);
  --c;
}

int Cluster::computing(NodeId n) const {
  DS_CHECK_MSG(is_worker(n), "computing() on non-worker " << n);
  return computing_[static_cast<std::size_t>(n)];
}

NodeId Cluster::worker(int i) const {
  DS_CHECK_MSG(i >= 0 && i < spec_.num_workers, "worker index " << i);
  return i;
}

NodeId Cluster::storage_node(int i) const {
  DS_CHECK_MSG(i >= 0 && i < spec_.num_storage_nodes, "storage index " << i);
  return spec_.num_workers + i;
}

}  // namespace ds::sim
