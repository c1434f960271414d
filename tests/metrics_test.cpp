#include <gtest/gtest.h>

#include <vector>

#include "metrics/cdf.h"
#include "metrics/sampler.h"
#include "metrics/stats.h"
#include "metrics/timeseries.h"
#include "sim/cluster.h"
#include "util/check.h"

namespace ds::metrics {
namespace {

TEST(Stats, SummarizeBasics) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SummarizeEmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{3.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_NEAR(percentile(xs, 90), 37.0, 1e-9);
}

TEST(Cdf, PercentileAndFractionAreInverse) {
  Cdf c;
  for (int i = 1; i <= 100; ++i) c.add(static_cast<double>(i));
  EXPECT_NEAR(c.percentile(50), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(c.fraction_below(50.0), 50.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(1000.0), 100.0);
  EXPECT_DOUBLE_EQ(c.mean(), 50.5);
}

TEST(Cdf, PointsAreMonotone) {
  Cdf c;
  for (int i = 0; i < 57; ++i) c.add(static_cast<double>((i * 37) % 101));
  const auto pts = c.points(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().cum_percent, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().cum_percent, 100.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].value, pts[i - 1].value);
    EXPECT_GT(pts[i].cum_percent, pts[i - 1].cum_percent);
  }
}

TEST(Cdf, EmptyQueriesThrow) {
  Cdf c;
  EXPECT_THROW(c.percentile(50), CheckError);
  EXPECT_THROW(c.mean(), CheckError);
}

TEST(TimeSeries, AppendsAndSummarizes) {
  TimeSeries ts;
  ts.push(0, 10);
  ts.push(1, 20);
  ts.push(2, 30);
  EXPECT_DOUBLE_EQ(ts.summarize().mean, 20.0);
  EXPECT_DOUBLE_EQ(ts.summarize(1.0, 2.0).mean, 25.0);
  EXPECT_THROW(ts.push(1.0, 0), CheckError);  // out of order
}

TEST(TimeSeries, RebucketAverages) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.push(i, static_cast<double>(i));
  const TimeSeries b = ts.rebucket(5.0);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.value(0), 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(b.value(1), 7.0);  // mean of 5..9
  EXPECT_DOUBLE_EQ(b.time(0), 2.5);
}

TEST(TimeSeries, RebucketFillsEmptyBucketsWithZero) {
  TimeSeries ts;
  ts.push(0.5, 4.0);
  ts.push(10.5, 8.0);
  const TimeSeries b = ts.rebucket(1.0);
  ASSERT_EQ(b.size(), 11u);
  EXPECT_DOUBLE_EQ(b.value(0), 4.0);
  EXPECT_DOUBLE_EQ(b.value(5), 0.0);
  EXPECT_DOUBLE_EQ(b.value(10), 8.0);
}

TEST(Sampler, RecordsCpuAndNetworkUtilization) {
  sim::Simulator simulator;
  sim::ClusterSpec spec = sim::ClusterSpec::three_node();
  sim::Cluster cluster(simulator, spec, 5);
  UtilizationSampler sampler(cluster);
  sampler.start();

  // Both executors of worker 0 actively compute between t=0 and t=5.
  cluster.begin_compute(0);
  cluster.begin_compute(0);
  simulator.schedule_at(5.0, [&] {
    cluster.end_compute(0);
    cluster.end_compute(0);
  });
  // A long flow into worker 1.
  cluster.fabric().start_flow({.src = cluster.storage_node(0), .dst = 1, .bytes = 1e12});
  simulator.schedule_at(10.0, [&] {
    sampler.stop();
  });
  simulator.run_until(10.5);

  const TimeSeries& cpu0 = sampler.cpu_util(0);
  ASSERT_GE(cpu0.size(), 10u);
  // t=1..4: both slots busy -> 100%.
  EXPECT_DOUBLE_EQ(cpu0.value(2), 100.0);
  // After release: 0%.
  EXPECT_DOUBLE_EQ(cpu0.value(8), 0.0);
  // Worker 1 receives at its NIC rate (or the storage node's egress).
  const TimeSeries& net1 = sampler.net_rx_mbps(1);
  const double expect_rate =
      std::min(cluster.nic_bw(1), cluster.nic_bw(cluster.storage_node(0))) / 1e6;
  EXPECT_NEAR(net1.value(3), expect_rate, 1e-6);
  // Cluster averages exist and are bounded.
  EXPECT_LE(sampler.cluster_cpu_util().summarize().max, 100.0);
}

TEST(Sampler, StopHaltsSampling) {
  sim::Simulator simulator;
  sim::Cluster cluster(simulator, sim::ClusterSpec::three_node(), 5);
  UtilizationSampler sampler(cluster);
  sampler.start();
  simulator.schedule_at(3.0, [&] { sampler.stop(); });
  simulator.run();  // must terminate (sampler no longer self-schedules)
  EXPECT_LE(sampler.cpu_util(0).size(), 5u);
}

}  // namespace
}  // namespace ds::metrics
