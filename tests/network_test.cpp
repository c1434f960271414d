#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "obs/obs.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace ds::sim {
namespace {

using Ports = std::vector<FlowPorts>;

TEST(MaxMin, SingleFlowGetsBottleneckCapacity) {
  const auto r = max_min_allocate(Ports{{0, 1, -1}}, {100.0, 40.0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0], 40.0, 1e-9);
}

TEST(MaxMin, EqualShareOnSharedPort) {
  const auto r = max_min_allocate(Ports{{0, -1, -1}, {0, -1, -1}, {0, -1, -1}}, {90.0});
  for (double v : r) EXPECT_NEAR(v, 30.0, 1e-9);
}

TEST(MaxMin, WaterFillingReallocatesLeftoverCapacity) {
  // f0 crosses both ports; f1 only port 1 (large). f0 bottlenecked at port 0,
  // f1 then soaks up the rest of port 1.
  const auto r = max_min_allocate(Ports{{0, 1, -1}, {1, -1, -1}}, {10.0, 100.0});
  EXPECT_NEAR(r[0], 10.0, 1e-9);
  EXPECT_NEAR(r[1], 90.0, 1e-9);
}

TEST(MaxMin, ClassicThreeFlowExample) {
  // Two unit-capacity links; f0 uses both, f1 link A, f2 link B.
  // Max-min: everyone 0.5.
  const auto r = max_min_allocate(Ports{{0, 1, -1}, {0, -1, -1}, {1, -1, -1}}, {1.0, 1.0});
  for (double v : r) EXPECT_NEAR(v, 0.5, 1e-9);
}

TEST(MaxMin, AllocationsRespectAllPortCapacities) {
  // Randomized-ish fixed scenario: verify feasibility and efficiency.
  const Ports fp{{0, 3, -1}, {0, 4, -1}, {1, 3, -1}, {2, 4, -1}, {1, -1, -1}, {2, 3, -1}};
  const std::vector<double> caps{50, 80, 60, 45, 70};
  const auto r = max_min_allocate(fp, caps);
  std::vector<double> used(caps.size(), 0.0);
  for (std::size_t f = 0; f < fp.size(); ++f) {
    EXPECT_GE(r[f], 0.0);
    for (int p : fp[f])
      if (p >= 0) used[static_cast<std::size_t>(p)] += r[f];
  }
  for (std::size_t p = 0; p < caps.size(); ++p)
    EXPECT_LE(used[p], caps[p] + 1e-6);
  // Pareto efficiency: every flow crosses at least one saturated port.
  for (std::size_t f = 0; f < fp.size(); ++f) {
    bool bottlenecked = false;
    for (int p : fp[f])
      if (p >= 0 && used[static_cast<std::size_t>(p)] >= caps[static_cast<std::size_t>(p)] - 1e-6)
        bottlenecked = true;
    EXPECT_TRUE(bottlenecked) << "flow " << f << " could be increased";
  }
}

TEST(Fabric, SingleFlowDurationMatchesBandwidth) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 50.0}, 1000.0);
  double done = -1;
  net.start_flow({.src = 0, .dst = 1, .bytes = 500.0, .on_complete = [&] { done = sim.now(); }});
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);  // bottleneck = dst 50 B/s
}

TEST(Fabric, IncastSharesDestinationIngress) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0, 100.0, 90.0}, 1000.0);
  std::vector<double> done(3, -1);
  for (int s = 0; s < 3; ++s)
    net.start_flow({.src = s, .dst = 3, .bytes = 300.0, .on_complete = [&, s] { done[static_cast<std::size_t>(s)] = sim.now(); }});
  sim.run();
  for (double d : done) EXPECT_NEAR(d, 10.0, 1e-6);  // 90/3 = 30 B/s each
}

TEST(Fabric, ShuffleFanInReallocatesOncePerInstant) {
  // The incast above is one reducer's fan-in: three flows started at one
  // instant take one water-filling pass over 3 flows (not 3 passes over
  // 1 + 2 + 3), and their simultaneous completion leaves no flow to
  // allocate.
  obs::Observability obs;
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0, 100.0, 90.0}, 1000.0, 0.0, {}, 0, &obs);
  for (int s = 0; s < 3; ++s) net.start_flow({.src = s, .dst = 3, .bytes = 300.0});
  sim.run();
  EXPECT_EQ(obs.metrics.counter("net.reallocations").value(), 1u);
  EXPECT_EQ(obs.metrics.counter("net.realloc_flows").value(), 3u);
  EXPECT_EQ(obs.metrics.counter("net.flows_completed").value(), 3u);
}

TEST(Fabric, CompletionKeepsItsPlaceInTheTieOrder) {
  // A flow due at t = 1 was started before an unrelated event was scheduled
  // for t = 1, so the flow completes first — its completion event ties as
  // if filed at start_flow, not at the later flush.
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0, 100.0, 100.0}, 1000.0);
  std::vector<char> order;
  net.start_flow({.src = 0, .dst = 1, .bytes = 100.0, .on_complete = [&] { order.push_back('f'); }});
  sim.schedule_at(1.0, [&] { order.push_back('e'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'f', 'e'}));

  // A second start_flow at the same instant re-files the completion behind
  // the event, exactly as an eager reallocation would have.
  Simulator sim2;
  NetworkFabric net2(sim2, {100.0, 100.0, 100.0, 100.0}, 1000.0);
  order.clear();
  net2.start_flow({.src = 0, .dst = 1, .bytes = 100.0, .on_complete = [&] { order.push_back('f'); }});
  sim2.schedule_at(1.0, [&] { order.push_back('e'); });
  net2.start_flow({.src = 2, .dst = 3, .bytes = 1e6});
  sim2.run_until(1.0);
  EXPECT_EQ(order, (std::vector<char>{'e', 'f'}));
}

TEST(Fabric, DestroyedWhileDirtyLeavesTheFlushList) {
  Simulator sim;
  {
    NetworkFabric net(sim, {100.0, 100.0}, 1000.0);
    net.start_flow({.src = 0, .dst = 1, .bytes = 100.0});
  }
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Fabric, LoopbackFlowsBypassNic) {
  Simulator sim;
  NetworkFabric net(sim, {10.0, 10.0}, 1000.0);
  double local = -1, remote = -1;
  net.start_flow({.src = 0, .dst = 0, .bytes = 1000.0, .on_complete = [&] { local = sim.now(); }});
  net.start_flow({.src = 0, .dst = 1, .bytes = 100.0, .on_complete = [&] { remote = sim.now(); }});
  sim.run();
  EXPECT_NEAR(local, 1.0, 1e-6);    // 1000 B at 1000 B/s loopback
  EXPECT_NEAR(remote, 10.0, 1e-6);  // NIC unaffected by loopback traffic
}

TEST(Fabric, CompletionFreesBandwidthForRemainingFlows) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0, 100.0}, 1000.0);
  // Two flows into node 2: share 50 each. First carries 250 B (done t=5),
  // second 750 B: 250 at t=5 then 500 at 100 B/s -> t=10.
  double a = -1, b = -1;
  net.start_flow({.src = 0, .dst = 2, .bytes = 250.0, .on_complete = [&] { a = sim.now(); }});
  net.start_flow({.src = 1, .dst = 2, .bytes = 750.0, .on_complete = [&] { b = sim.now(); }});
  sim.run();
  EXPECT_NEAR(a, 5.0, 1e-6);
  EXPECT_NEAR(b, 10.0, 1e-6);
}

TEST(Fabric, RatesVisibleForMetrics) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 60.0}, 1000.0);
  net.start_flow({.src = 0, .dst = 1, .bytes = 1e6});
  // Read before the simulator runs: the read flushes the pending pass.
  std::vector<BytesPerSec> rx;
  net.node_rx_rates(rx);
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_NEAR(rx[1], 60.0, 1e-9);
  sim.run_until(1.0);
  net.node_rx_rates(rx);
  EXPECT_NEAR(rx[0], 0.0, 1e-9);
  EXPECT_NEAR(rx[1], 60.0, 1e-9);
  EXPECT_EQ(net.active_flows(), 1u);
}

TEST(Fabric, DeliveredBytesConserved) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0, 100.0}, 1000.0);
  const double volumes[] = {123.0, 4567.0, 89.0, 1000.0};
  double total = 0;
  int i = 0;
  for (double v : volumes) {
    net.start_flow({.src = i % 3, .dst = (i + 1) % 3, .bytes = v});
    total += v;
    ++i;
  }
  sim.run();
  net.sync();
  EXPECT_NEAR(net.total_delivered(), total, 1e-3);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Fabric, CancelStopsFlowWithoutCallback) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0}, 1000.0);
  bool fired = false;
  const FlowId id = net.start_flow({.src = 0, .dst = 1, .bytes = 1e6, .on_complete = [&] { fired = true; }});
  sim.schedule_at(2.0, [&] { net.cancel(id); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Fabric, ChainedFlowsFromCompletionCallback) {
  Simulator sim;
  NetworkFabric net(sim, {100.0, 100.0}, 1000.0);
  double second = -1;
  net.start_flow({.src = 0, .dst = 1, .bytes = 500.0, .on_complete = [&] {
                    net.start_flow({.src = 1, .dst = 0, .bytes = 500.0,
                                    .on_complete = [&] { second = sim.now(); }});
                  }});
  sim.run();
  EXPECT_NEAR(second, 10.0, 1e-6);
}

TEST(Fabric, RejectsBadFlows) {
  Simulator sim;
  NetworkFabric net(sim, {100.0}, 1000.0);
  EXPECT_THROW(net.start_flow({.src = 0, .dst = 5, .bytes = 1.0}), CheckError);
  EXPECT_THROW(net.start_flow({.src = -1, .dst = 0, .bytes = 1.0}), CheckError);
  EXPECT_THROW(net.start_flow({.src = 0, .dst = 0, .bytes = -1.0}), CheckError);
  EXPECT_THROW(NetworkFabric(sim, {0.0}, 1000.0), CheckError);
  EXPECT_THROW(NetworkFabric(sim, {100.0}, 0.0), CheckError);
}

TEST(Fabric, DrainBelowClockResolutionFailsInsteadOfHanging) {
  // Past 2^24 s half an ulp of the clock exceeds a nanosecond: a 1.5 ns
  // drain could never move the clock, so filing its completion (at the
  // flush that follows start_flow) is a CheckError.
  Simulator sim;
  NetworkFabric net(sim, {1e9, 1e9}, 1e9);
  sim.run_until(16777216.0 + 1.0);
  net.start_flow({.src = 0, .dst = 1, .bytes = 1.5});
  EXPECT_THROW(sim.run(), CheckError);
}

}  // namespace
}  // namespace ds::sim
