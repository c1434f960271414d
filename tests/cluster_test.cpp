#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/cluster.h"
#include "util/check.h"
#include "util/units.h"

namespace ds::sim {
namespace {

using namespace ds;  // literals

TEST(ClusterSpec, PaperPrototypeMatchesSection51) {
  const auto s = ClusterSpec::paper_prototype();
  EXPECT_EQ(s.num_workers, 30);
  EXPECT_EQ(s.executors_per_worker, 2);
  EXPECT_EQ(s.total_executors(), 60);
  EXPECT_EQ(s.num_storage_nodes, 3);
  EXPECT_DOUBLE_EQ(s.nic_bw_min, 100_Mbps);
  EXPECT_DOUBLE_EQ(s.nic_bw_max, 480_Mbps);
}

TEST(ClusterSpec, PaperSimulationMatchesSection53) {
  const auto s = ClusterSpec::paper_simulation();
  EXPECT_EQ(s.num_workers, 4000);
  EXPECT_DOUBLE_EQ(s.nic_bw_min, 100_Mbps);
  EXPECT_DOUBLE_EQ(s.nic_bw_max, 2.0_Gbps);
  EXPECT_DOUBLE_EQ(s.disk_bw, 80_MBps);
}

TEST(Cluster, NodeNumberingWorkersThenStorage) {
  Simulator sim;
  Cluster c(sim, ClusterSpec::three_node(), /*seed=*/1);
  EXPECT_EQ(c.num_workers(), 3);
  EXPECT_EQ(c.num_storage_nodes(), 1);
  EXPECT_EQ(c.worker(0), 0);
  EXPECT_EQ(c.worker(2), 2);
  EXPECT_EQ(c.storage_node(0), 3);
  EXPECT_TRUE(c.is_worker(2));
  EXPECT_FALSE(c.is_worker(3));
  EXPECT_THROW(c.worker(3), CheckError);
  EXPECT_THROW(c.storage_node(1), CheckError);
}

TEST(Cluster, NicBandwidthDrawnWithinSpecRange) {
  Simulator sim;
  const auto spec = ClusterSpec::paper_prototype();
  Cluster c(sim, spec, 42);
  for (int n = 0; n < c.total_nodes(); ++n) {
    EXPECT_GE(c.nic_bw(n), spec.nic_bw_min);
    EXPECT_LE(c.nic_bw(n), spec.nic_bw_max);
  }
}

TEST(Cluster, NicDrawIsSeedDeterministic) {
  Simulator s1, s2, s3;
  Cluster a(s1, ClusterSpec::paper_prototype(), 7);
  Cluster b(s2, ClusterSpec::paper_prototype(), 7);
  Cluster c(s3, ClusterSpec::paper_prototype(), 8);
  bool any_diff = false;
  for (int n = 0; n < a.total_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(a.nic_bw(n), b.nic_bw(n));
    any_diff |= (a.nic_bw(n) != c.nic_bw(n));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Cluster, ExecutorPoolSizedForWorkersOnly) {
  Simulator sim;
  Cluster c(sim, ClusterSpec::paper_prototype(), 1);
  EXPECT_EQ(c.executors().num_nodes(), 30);
  EXPECT_EQ(c.executors().total_slots(), 60);
}

TEST(Cluster, ComputeAccountingBracketsAndBounds) {
  Simulator sim;
  Cluster c(sim, ClusterSpec::three_node(), 1);
  EXPECT_EQ(c.computing(0), 0);
  c.begin_compute(0);
  c.begin_compute(0);
  EXPECT_EQ(c.computing(0), 2);
  EXPECT_THROW(c.begin_compute(0), CheckError);  // only 2 executors
  c.end_compute(0);
  c.end_compute(0);
  EXPECT_THROW(c.end_compute(0), CheckError);
  EXPECT_THROW(c.begin_compute(c.storage_node(0)), CheckError);
}

TEST(Cluster, DisksExistForAllNodesIncludingStorage) {
  Simulator sim;
  Cluster c(sim, ClusterSpec::paper_prototype(), 1);
  for (const NodeId n : {c.worker(0), c.storage_node(2)}) {
    EXPECT_EQ(c.disk(n).num_nodes(), 1);
    EXPECT_DOUBLE_EQ(c.disk(n).nic_bw(0), c.spec().disk_bw);
  }
  EXPECT_THROW(c.disk(c.total_nodes()), std::out_of_range);
}

// Each node's disk is a fair queue: Cluster::disk(n) is a one-node fabric
// whose shuffle writes are loopback flows, so w concurrent writers get D / w
// each (Eq. 1). The FairQueue cases check that discipline on the disk; the
// three-node cluster's disks are slowed to 100 B/s so shares come out round.
class FairQueue : public ::testing::Test {
 protected:
  static ClusterSpec spec(BytesPerSec disk_bw = 100.0) {
    ClusterSpec s = ClusterSpec::three_node();
    s.disk_bw = disk_bw;
    return s;
  }

  // Writes `bytes` to node n's disk; *done_at gets the completion time.
  FlowId write(NodeId n, Bytes bytes, double* done_at) {
    return cluster.disk(n).start_flow(
        {.src = 0, .dst = 0, .bytes = bytes,
         .on_complete = [this, done_at] { *done_at = sim.now(); }});
  }

  Simulator sim;
  Cluster cluster{sim, spec(), 1};
};

TEST_F(FairQueue, SingleClaimTakesVolumeOverCapacity) {
  double a = -1, other = -1;
  write(0, 1000.0, &a);
  write(1, 1000.0, &other);
  sim.run();
  EXPECT_NEAR(a, 10.0, 1e-6);
  // Node 1's disk is its own: 1000 B alone at 100 B/s as well.
  EXPECT_NEAR(other, 10.0, 1e-6);
}

TEST_F(FairQueue, TwoClaimsShareEqually) {
  double a = -1, b = -1;
  write(0, 1000.0, &a);
  write(0, 1000.0, &b);
  sim.run();
  EXPECT_NEAR(a, 20.0, 1e-6);
  EXPECT_NEAR(b, 20.0, 1e-6);
}

TEST_F(FairQueue, StaggeredArrivalsSplitBandwidthFromArrival) {
  double a = -1, b = -1;
  write(0, 1000.0, &a);
  sim.schedule_at(5.0, [&] { write(0, 500.0, &b); });
  sim.run();
  // A: 500 B alone by t=5, then 50 B/s -> t=15. B: 500 B at 50 B/s -> t=15.
  EXPECT_NEAR(a, 15.0, 1e-6);
  EXPECT_NEAR(b, 15.0, 1e-6);
}

TEST_F(FairQueue, UnequalVolumesFinishAtDifferentTimes) {
  double small = -1, large = -1;
  write(0, 1000.0, &large);
  write(0, 200.0, &small);
  sim.run();
  // Shared 50/50 until small done at t=4 (200/50); large then has 800 left
  // at full rate: 4 + 800/100 = 12.
  EXPECT_NEAR(small, 4.0, 1e-6);
  EXPECT_NEAR(large, 12.0, 1e-6);
}

TEST_F(FairQueue, ZeroVolumeCompletesImmediately) {
  double at = -1;
  write(0, 0.0, &at);
  sim.run();
  EXPECT_EQ(at, 0.0);
}

TEST_F(FairQueue, CancelDropsClaimAndRestoresBandwidth) {
  double a = -1, b = -1;
  write(0, 1000.0, &a);
  const FlowId bid = write(0, 1000.0, &b);
  sim.schedule_at(4.0, [&] { cluster.disk(0).cancel(bid); });
  sim.run();
  EXPECT_EQ(b, -1);  // a cancelled write never completes
  // A: 4 s at 50 B/s = 200, then 800 at 100 B/s -> t=12.
  EXPECT_NEAR(a, 12.0, 1e-6);
  EXPECT_EQ(cluster.disk(0).active_flows(), 0u);
}

TEST_F(FairQueue, CompletionCallbackMaySubmitMore) {
  double first = -1, second = -1;
  cluster.disk(0).start_flow(
      {.src = 0, .dst = 0, .bytes = 500.0, .on_complete = [&] {
         first = sim.now();
         write(0, 500.0, &second);
       }});
  sim.run();
  EXPECT_NEAR(first, 5.0, 1e-6);
  EXPECT_NEAR(second, 10.0, 1e-6);
}

TEST_F(FairQueue, ServicedAccounting) {
  double a = -1, b = -1;
  write(0, 300.0, &a);
  write(0, 700.0, &b);
  sim.run();
  cluster.disk(0).sync();
  EXPECT_NEAR(cluster.disk(0).total_delivered(), 1000.0, 1e-3);
  EXPECT_EQ(cluster.disk(0).active_flows(), 0u);
  EXPECT_EQ(cluster.disk(1).total_delivered(), 0.0);
}

TEST_F(FairQueue, RejectsInvalidArguments) {
  Simulator other;
  EXPECT_THROW(Cluster(other, spec(0.0), 1), CheckError);
  double at = -1;
  EXPECT_THROW(write(0, -1.0, &at), CheckError);
}

TEST_F(FairQueue, DrainBelowClockResolutionFailsInsteadOfHanging) {
  // Past 2^24 s half an ulp of the clock exceeds a nanosecond: a 1.5 ns
  // drain could never move the clock, so filing its completion (at the
  // flush that follows the write) is a CheckError.
  Simulator fast_sim;
  Cluster fast(fast_sim, spec(1e9), 1);
  fast_sim.run_until(16777216.0 + 1.0);
  double at = -1;
  fast.disk(0).start_flow({.src = 0, .dst = 0, .bytes = 1.5,
                           .on_complete = [&] { at = fast_sim.now(); }});
  EXPECT_THROW(fast_sim.run(), CheckError);
  EXPECT_EQ(at, -1);
}

}  // namespace
}  // namespace ds::sim
