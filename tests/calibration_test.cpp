// Online model recalibration and the quantile-aware perf model:
// workload signatures, EWMA correction factors, the bit-exact identity
// contracts, and the validated-options error paths.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "core/perf_model.h"
#include "core/profile.h"
#include "engine/job_run.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/status.h"
#include "util/units.h"

namespace ds::core {
namespace {

using namespace ds;  // literals

dag::Stage mk(const std::string& name, int tasks, Bytes in, BytesPerSec rate,
              Bytes out, double skew = 0.2) {
  dag::Stage s;
  s.name = name;
  s.num_tasks = tasks;
  s.input_bytes = in;
  s.process_rate = rate;
  s.output_bytes = out;
  s.task_skew = skew;
  return s;
}

dag::JobDag diamond() {
  dag::JobDag j("diamond");
  j.add_stage(mk("a", 8, 2_GB, 4_MBps, 1_GB));
  j.add_stage(mk("b", 8, 1_GB, 2_MBps, 500_MB));
  j.add_stage(mk("c", 8, 1.5_GB, 3_MBps, 200_MB));
  j.add_edge(0, 1);
  j.add_edge(0, 2);
  return j;
}

// ---------- workload signatures ----------

TEST(WorkloadSignature, StableAcrossInstancesSensitiveToShape) {
  const dag::JobDag a = diamond();
  const dag::JobDag b = diamond();  // distinct instance, same workload
  EXPECT_EQ(workload_signature(a), workload_signature(b));

  dag::JobDag c = diamond();
  c.mutable_stage(1).input_bytes += 1;  // one byte of volume difference
  EXPECT_NE(workload_signature(a), workload_signature(c));

  dag::JobDag d("diamond");  // same stages, one edge fewer
  d.add_stage(mk("a", 8, 2_GB, 4_MBps, 1_GB));
  d.add_stage(mk("b", 8, 1_GB, 2_MBps, 500_MB));
  d.add_stage(mk("c", 8, 1.5_GB, 3_MBps, 200_MB));
  d.add_edge(0, 1);
  EXPECT_NE(workload_signature(a), workload_signature(d));
}

// ---------- EWMA calibration ----------

TEST(ModelCalibrator, ConvergesTowardTheObservedRatio) {
  ModelCalibrator cal;
  const std::uint64_t sig = 42;
  PhaseObservation obs;
  obs.predicted_network = 10;
  obs.actual_network = 20;  // network ran 2× the prediction
  obs.predicted_compute = 10;
  obs.actual_compute = 10;  // compute was spot-on
  obs.predicted_write = 10;
  obs.actual_write = 5;  // write ran at half
  for (int i = 0; i < 20; ++i) cal.observe(sig, obs);
  const CalibrationFactors f = cal.factors(sig);
  EXPECT_EQ(f.observations, 20);
  EXPECT_NEAR(f.network, 2.0, 1e-3);
  EXPECT_NEAR(f.compute, 1.0, 1e-9);
  EXPECT_NEAR(f.write, 0.5, 1e-3);
}

TEST(ModelCalibrator, FirstObservationMovesByAlpha) {
  ModelCalibrator cal;
  PhaseObservation obs;
  obs.predicted_compute = 10;
  obs.actual_compute = 20;
  cal.observe(7, obs);
  // f ← 0.6·1.0 + 0.4·2.0 = 1.4; the unobserved terms keep their factor.
  const CalibrationFactors f = cal.factors(7);
  EXPECT_DOUBLE_EQ(f.compute, 0.6 * 1.0 + 0.4 * 2.0);
  EXPECT_DOUBLE_EQ(f.network, 1.0);
  EXPECT_DOUBLE_EQ(f.write, 1.0);
}

TEST(ModelCalibrator, ClampBoundsWildRuns) {
  ModelCalibrator cal;
  PhaseObservation obs;
  obs.predicted_compute = 1e-6;
  obs.actual_compute = 1e6;  // a 1e12× "ratio" — must clamp, not poison
  cal.observe(1, obs);
  EXPECT_DOUBLE_EQ(cal.factors(1).compute, 0.6 * 1.0 + 0.4 * 5.0);
  obs.actual_compute = 1e-18;
  cal.observe(2, obs);
  EXPECT_DOUBLE_EQ(cal.factors(2).compute, 0.6 * 1.0 + 0.4 * 0.2);
}

TEST(ModelCalibrator, UnusableAndUnknownAreIdentity) {
  ModelCalibrator cal;
  EXPECT_TRUE(cal.factors(123).is_identity());  // never observed
  cal.observe(123, PhaseObservation{});         // no predicted spans
  EXPECT_TRUE(cal.factors(123).is_identity());
  EXPECT_EQ(cal.workloads(), 0u);
}

// ---------- calibrated profiles ----------

TEST(CalibratedProfile, IdentityFactorsAreABitExactNoop) {
  const dag::JobDag dag = diamond();
  const JobProfile base =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  const JobProfile p = calibrated_profile(base, CalibrationFactors{});
  EXPECT_EQ(p.cluster.nic_bw, base.cluster.nic_bw);
  EXPECT_EQ(p.cluster.storage_net_bw, base.cluster.storage_net_bw);
  EXPECT_EQ(p.cluster.disk_bw, base.cluster.disk_bw);
  EXPECT_EQ(p.compute_time_scale, base.compute_time_scale);
  EXPECT_EQ(p.dag, base.dag);
}

TEST(CalibratedProfile, FactorsCorrectEachTerm) {
  const dag::JobDag dag = diamond();
  const JobProfile base =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  CalibrationFactors f;
  f.network = 2.0;  // fetches ran 2× as long ⇒ half the usable bandwidth
  f.compute = 1.5;
  f.write = 0.5;
  const JobProfile p = calibrated_profile(base, f);
  EXPECT_DOUBLE_EQ(p.cluster.nic_bw, base.cluster.nic_bw / 2.0);
  EXPECT_DOUBLE_EQ(p.compute_time_scale, 1.5);
  EXPECT_DOUBLE_EQ(p.cluster.disk_bw, base.cluster.disk_bw * 2.0);
  // The corrected model predicts a slower job than the trusted profile.
  const PerfModel trusted(base), corrected(p);
  EXPECT_GT(corrected.solo_time(0), trusted.solo_time(0));
}

// ---------- quantile-aware model ----------

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.9), 1.281552, 1e-4);
  // Monotone through the tail-branch boundaries.
  double prev = -1e30;
  for (double p = 0.001; p < 1.0; p += 0.001) {
    const double z = inverse_normal_cdf(p);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

TEST(QuantileModel, ZeroQuantileIsTheLegacyModelBitExact) {
  const dag::JobDag dag = diamond();
  const JobProfile profile =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  const PerfModel legacy(profile);
  ModelOptions m;
  m.quantile = 0.0;
  const PerfModel same(profile, m);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    EXPECT_EQ(same.straggler_factor(s), legacy.straggler_factor(s));
    EXPECT_EQ(same.solo_time(s), legacy.solo_time(s));
  }
  EXPECT_TRUE(m.is_identity());
}

TEST(QuantileModel, HigherQuantilesBudgetMoreStragglerTime) {
  const dag::JobDag dag = diamond();
  const JobProfile profile =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  ModelOptions p50, p90, p99;
  p50.quantile = 0.5;
  p90.quantile = 0.9;
  p99.quantile = 0.99;
  const PerfModel m50(profile, p50), m90(profile, p90), m99(profile, p99);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    EXPECT_LE(m50.straggler_factor(s), m90.straggler_factor(s));
    EXPECT_LE(m90.straggler_factor(s), m99.straggler_factor(s));
    EXPECT_LT(m99.straggler_factor(s), 1e3);  // finite, sane
  }
}

TEST(QuantileModel, SpeculationCapsTheInflation) {
  const dag::JobDag dag = diamond();
  const JobProfile profile =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  ModelOptions spec;
  spec.quantile = 0.999;  // deep tail, would inflate far past the cap
  spec.speculation = true;
  const PerfModel m(profile, spec);
  for (dag::StageId s = 0; s < dag.num_stages(); ++s)
    EXPECT_LE(m.straggler_factor(s), engine::kSpeculationThreshold + 1.0);
  EXPECT_FALSE(spec.is_identity());
}

// ---------- validated options (the Status error path) ----------

TEST(Validate, CalculatorOptionsProblemsAreExplained) {
  EXPECT_TRUE(validate(CalculatorOptions{}).is_ok());
  CalculatorOptions o;
  o.model.quantile = 1.0;
  const Status bad_q = validate(o);
  ASSERT_FALSE(bad_q.is_ok());
  EXPECT_NE(bad_q.message().find("quantile"), std::string::npos);

  o = {};
  o.step = 0;
  EXPECT_FALSE(validate(o).is_ok());
  o = {};
  o.slot = -1;
  EXPECT_FALSE(validate(o).is_ok());
  o = {};
  o.coarse_candidates = 1;
  EXPECT_FALSE(validate(o).is_ok());

  // The calculator constructor enforces the same contract by throwing.
  const dag::JobDag dag = diamond();
  const JobProfile profile =
      JobProfile::from(dag, sim::ClusterSpec::three_node());
  CalculatorOptions bad;
  bad.model.quantile = 2.0;
  EXPECT_THROW(DelayCalculator(profile, bad), CheckError);
}

TEST(Validate, StatusCarriesTheFirstProblem) {
  const Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_TRUE(ok.message().empty());
  const Status err = Status::error("boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_FALSE(static_cast<bool>(err));
  EXPECT_EQ(err.message(), "boom");
}

}  // namespace
}  // namespace ds::core
