#include <gtest/gtest.h>

#include "sim/fair_queue.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace ds::sim {
namespace {

TEST(FairQueue, SingleClaimTakesVolumeOverCapacity) {
  Simulator sim;
  FairQueue q(sim, 100.0);  // 100 B/s
  double done_at = -1;
  q.submit(1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);
}

TEST(FairQueue, TwoClaimsShareEqually) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double a = -1, b = -1;
  q.submit(1000.0, [&] { a = sim.now(); });
  q.submit(1000.0, [&] { b = sim.now(); });
  sim.run();
  EXPECT_NEAR(a, 20.0, 1e-6);
  EXPECT_NEAR(b, 20.0, 1e-6);
}

TEST(FairQueue, StaggeredArrivalsSplitBandwidthFromArrival) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double a = -1, b = -1;
  q.submit(1000.0, [&] { a = sim.now(); });
  sim.schedule_at(5.0, [&] { q.submit(500.0, [&] { b = sim.now(); }); });
  sim.run();
  // A: 500 B alone by t=5, then 50 B/s -> t=15. B: 500 B at 50 B/s -> t=15.
  EXPECT_NEAR(a, 15.0, 1e-6);
  EXPECT_NEAR(b, 15.0, 1e-6);
}

TEST(FairQueue, UnequalVolumesFinishAtDifferentTimes) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double small = -1, large = -1;
  q.submit(200.0, [&] { small = sim.now(); });
  q.submit(1000.0, [&] { large = sim.now(); });
  sim.run();
  // Shared 50/50 until small done at t=4 (200/50); large then has 800 left
  // at full rate: 4 + 800/100 = 12.
  EXPECT_NEAR(small, 4.0, 1e-6);
  EXPECT_NEAR(large, 12.0, 1e-6);
}

TEST(FairQueue, ZeroVolumeCompletesImmediately) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double at = -1;
  q.submit(0.0, [&] { at = sim.now(); });
  sim.run();
  EXPECT_NEAR(at, 0.0, 1e-9);
}

TEST(FairQueue, CancelDropsClaimAndRestoresBandwidth) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double a = -1;
  bool b_fired = false;
  q.submit(1000.0, [&] { a = sim.now(); });
  const ClaimId bid = q.submit(1000.0, [&] { b_fired = true; });
  sim.schedule_at(4.0, [&] { q.cancel(bid); });
  sim.run();
  EXPECT_FALSE(b_fired);
  // A: 4s at 50 B/s = 200, then 800 at 100 B/s -> t=12.
  EXPECT_NEAR(a, 12.0, 1e-6);
}

TEST(FairQueue, CompletionCallbackMaySubmitMore) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  double second_done = -1;
  q.submit(500.0, [&] { q.submit(500.0, [&] { second_done = sim.now(); }); });
  sim.run();
  EXPECT_NEAR(second_done, 10.0, 1e-6);
}

TEST(FairQueue, ServicedAccounting) {
  Simulator sim;
  FairQueue q(sim, 100.0);
  q.submit(300.0, nullptr);
  q.submit(700.0, nullptr);
  sim.run();
  q.sync();
  EXPECT_NEAR(q.total_serviced(), 1000.0, 1e-3);
  EXPECT_EQ(q.active(), 0u);
}

TEST(FairQueue, ShareReflectsActiveClaims) {
  Simulator sim;
  FairQueue q(sim, 90.0);
  q.submit(1e6, nullptr);
  q.submit(1e6, nullptr);
  q.submit(1e6, nullptr);
  EXPECT_NEAR(q.share(), 30.0, 1e-9);
  EXPECT_EQ(q.active(), 3u);
  EXPECT_NEAR(q.current_rate(), 90.0, 1e-9);
}

TEST(FairQueue, RejectsInvalidArguments) {
  Simulator sim;
  EXPECT_THROW(FairQueue(sim, 0.0), CheckError);
  FairQueue q(sim, 1.0);
  EXPECT_THROW(q.submit(-1.0, nullptr), CheckError);
}

TEST(FairQueue, DrainBelowClockResolutionFailsInsteadOfHanging) {
  // Past 2^24 s half an ulp of the clock exceeds a nanosecond: a 1.5 ns
  // drain could never move the clock, so submitting it is a CheckError.
  Simulator sim;
  FairQueue q(sim, 1e9);
  sim.run_until(16777216.0 + 1.0);
  EXPECT_THROW(q.submit(1.5, nullptr), CheckError);
}

}  // namespace
}  // namespace ds::sim
