// Plan-as-a-service: calibration store persistence (CRC-checked records,
// atomic save, corrupt-tail recovery), the sharded PlanCache (LRU order,
// stale epochs, drift invalidation), the NDJSON daemon — and a multi-thread
// hammer pinning the bit-exact warm == cold contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "core/profile.h"
#include "dag/serialize.h"
#include "service/daemon.h"
#include "sim/cluster.h"
#include "store/plan_cache.h"
#include "store/plan_service.h"
#include "util/json.h"
#include "util/units.h"

namespace ds::store {
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

// A diamond whose volumes scale with `variant`, so each variant hashes to a
// distinct workload signature.
dag::JobDag diamond(int variant = 0) {
  const double v = 1.0 + 0.25 * variant;
  dag::JobDag j("diamond");
  j.add_stage(mk("a", 8, Bytes(v * 2_GB), 4_MBps, 1_GB));
  j.add_stage(mk("b", 8, Bytes(v * 1_GB), 2_MBps, 500_MB));
  j.add_stage(mk("c", 8, Bytes(v * 1.5_GB), 3_MBps, 200_MB));
  j.add_edge(0, 1);
  j.add_edge(0, 2);
  return j;
}

void expect_same_plan(const core::DelaySchedule& a,
                      const core::DelaySchedule& b) {
  ASSERT_EQ(a.delay.size(), b.delay.size());
  for (std::size_t i = 0; i < a.delay.size(); ++i)
    EXPECT_EQ(a.delay[i], b.delay[i]) << "delay of stage " << i;
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan);
  EXPECT_EQ(a.predicted_jct, b.predicted_jct);
  ASSERT_EQ(a.predicted_stages.size(), b.predicted_stages.size());
  for (std::size_t i = 0; i < a.predicted_stages.size(); ++i) {
    EXPECT_EQ(a.predicted_stages[i].ready, b.predicted_stages[i].ready);
    EXPECT_EQ(a.predicted_stages[i].submitted, b.predicted_stages[i].submitted);
    EXPECT_EQ(a.predicted_stages[i].read_done, b.predicted_stages[i].read_done);
    EXPECT_EQ(a.predicted_stages[i].compute_done,
              b.predicted_stages[i].compute_done);
    EXPECT_EQ(a.predicted_stages[i].finish, b.predicted_stages[i].finish);
  }
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "plan_service_test_" + name;
}

// A 2× network observation: with the default EWMA alpha 0.4 the network
// factor jumps 1.0 → 1.4 on the first fold — past any reasonable drift
// threshold.
core::PhaseObservation big_network_obs() {
  core::PhaseObservation obs;
  obs.predicted_network = 10;
  obs.actual_network = 20;
  obs.predicted_compute = 10;
  obs.actual_compute = 10;
  obs.predicted_write = 10;
  obs.actual_write = 10;
  return obs;
}

// ---------- cold-start bit-exactness ----------

TEST(PlanService, ColdPlanBitIdenticalToDirectCalculator) {
  const dag::JobDag job = diamond();
  const auto spec = sim::ClusterSpec::three_node();
  const core::JobProfile profile = core::JobProfile::from(job, spec);
  const core::DelaySchedule direct =
      core::DelayCalculator(profile, core::CalculatorOptions{}).compute();

  PlanServiceOptions opt;
  opt.store_path = temp_path("absent_store.bin");  // never created
  PlanService service(opt);
  EXPECT_TRUE(service.load_info().missing);

  const PlanService::Planned planned = service.plan(job, profile);
  EXPECT_FALSE(planned.cache_hit);
  EXPECT_EQ(planned.epoch, 0u);
  expect_same_plan(*planned.plan, direct);
}

TEST(PlanService, WarmHitReturnsTheColdPlanObject) {
  const dag::JobDag job = diamond();
  const core::JobProfile profile =
      core::JobProfile::from(job, sim::ClusterSpec::three_node());
  PlanService service;

  const PlanService::Planned cold = service.plan(job, profile);
  const PlanService::Planned warm = service.plan(job, profile);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // Same shared object, so bit-identical by construction.
  EXPECT_EQ(cold.plan.get(), warm.plan.get());
  EXPECT_EQ(service.cache().hits(), 1u);
  EXPECT_EQ(service.cache().misses(), 1u);
}

TEST(PlanService, HammerManyThreadsAllPlansBitIdenticalToCold) {
  constexpr int kJobs = 4;
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;

  std::vector<dag::JobDag> jobs;
  for (int v = 0; v < kJobs; ++v) jobs.push_back(diamond(v));
  const auto spec = sim::ClusterSpec::three_node();
  std::vector<core::JobProfile> profiles;
  std::vector<core::DelaySchedule> reference;
  for (const auto& j : jobs) {
    profiles.push_back(core::JobProfile::from(j, spec));
    reference.push_back(
        core::DelayCalculator(profiles.back(), core::CalculatorOptions{})
            .compute());
  }

  PlanService service;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const int v = (t + i) % kJobs;
        const PlanService::Planned p = service.plan(jobs[v], profiles[v]);
        if (p.plan->delay != reference[v].delay ||
            p.plan->predicted_makespan != reference[v].predicted_makespan)
          ++mismatches[t];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  // Every request after the per-job cold plan must have been servable from
  // cache; concurrent first-misses may each compute, but never more than one
  // miss per (job, thread-race) — bound it loosely and require real reuse.
  EXPECT_GE(service.cache().hits(),
            static_cast<std::uint64_t>(kThreads * kIterations - kJobs * kThreads));
  EXPECT_EQ(service.cache().size(), static_cast<std::size_t>(kJobs));
}

// ---------- PlanCache mechanics ----------

PlanKey key_of(std::uint64_t sig) {
  PlanKey k;
  k.signature = sig;
  return k;
}

std::shared_ptr<const core::DelaySchedule> dummy_plan(double makespan) {
  core::DelaySchedule s;
  s.predicted_makespan = makespan;
  return std::make_shared<const core::DelaySchedule>(std::move(s));
}

TEST(PlanCache, EvictsTheLeastRecentlyUsedEntry) {
  PlanCache cache(PlanCache::Options{1, 2});
  cache.insert(key_of(1), 0, dummy_plan(1));
  cache.insert(key_of(2), 0, dummy_plan(2));
  ASSERT_NE(cache.find(key_of(1), 0), nullptr);  // touch 1 → 2 is now LRU
  cache.insert(key_of(3), 0, dummy_plan(3));     // evicts 2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(key_of(2), 0), nullptr);
  ASSERT_NE(cache.find(key_of(1), 0), nullptr);
  ASSERT_NE(cache.find(key_of(3), 0), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, StaleEpochEntriesAreDroppedAndCounted) {
  PlanCache cache(PlanCache::Options{});
  cache.insert(key_of(7), 0, dummy_plan(1));
  EXPECT_EQ(cache.find(key_of(7), 1), nullptr);  // newer epoch → stale
  EXPECT_EQ(cache.stale(), 1u);
  // The stale entry was erased, not just skipped.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key_of(7), 0), nullptr);
}

TEST(PlanCache, InvalidateSignatureDropsAllItsBuckets) {
  PlanCache cache(PlanCache::Options{4, 8});
  PlanKey a = key_of(1);
  PlanKey b = key_of(1);
  b.bucket.workers = 99;  // same workload, different cluster bucket
  cache.insert(a, 0, dummy_plan(1));
  cache.insert(b, 0, dummy_plan(2));
  cache.insert(key_of(2), 0, dummy_plan(3));
  EXPECT_EQ(cache.invalidate_signature(1), 2u);
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(key_of(2), 0), nullptr);
}

TEST(PlanCache, OptionsDigestSeparatesPlannerConfigs) {
  core::CalculatorOptions a;
  core::CalculatorOptions b;
  EXPECT_EQ(options_digest(a), options_digest(b));
  b.model.quantile = 0.9;
  EXPECT_NE(options_digest(a), options_digest(b));
  // The seed only matters under random path order.
  core::CalculatorOptions c;
  c.seed = 7;
  EXPECT_EQ(options_digest(a), options_digest(c));
}

TEST(PlanCache, BucketQuantizesBandwidthsIntoClasses) {
  core::ClusterProfile a;
  a.num_workers = 3;
  a.executors_per_worker = 2;
  a.nic_bw = 134217728;  // 2^27: dead center of a quarter-octave class
  core::ClusterProfile b = a;
  b.nic_bw = 1.02 * a.nic_bw;  // +2%: stays inside the class
  core::ClusterProfile c = a;
  c.nic_bw = 2 * a.nic_bw;  // an octave up: exactly 4 classes away
  EXPECT_EQ(bucket_of(a), bucket_of(b));
  EXPECT_NE(bucket_of(a), bucket_of(c));
  EXPECT_EQ(bandwidth_class(c.nic_bw), bandwidth_class(a.nic_bw) + 4);
  EXPECT_EQ(bandwidth_class(0), -1);
}

// ---------- drift-driven invalidation ----------

TEST(PlanService, DriftBumpsEpochAndInvalidatesCachedPlans) {
  const dag::JobDag job = diamond();
  const core::JobProfile profile =
      core::JobProfile::from(job, sim::ClusterSpec::three_node());
  PlanService service;

  const PlanService::Planned cold = service.plan(job, profile);
  ASSERT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.epoch, 0u);

  service.observe(cold.signature, big_network_obs());
  EXPECT_EQ(service.profiles().epoch(cold.signature), 1u);
  EXPECT_EQ(service.cache().invalidations(), 1u);

  const PlanService::Planned next = service.plan(job, profile);
  EXPECT_FALSE(next.cache_hit);  // the drifted plan was dropped
  EXPECT_EQ(next.epoch, 1u);
  // The recalibrated model sees a 1.4× slower network, so the new plan must
  // not be the old object.
  EXPECT_NE(next.plan.get(), cold.plan.get());
}

// ---------- calibration store persistence ----------

using core::ModelCalibrator;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CalibrationStore, SaveLoadRoundTripIsBitExact) {
  const std::string path = temp_path("roundtrip.bin");
  std::remove(path.c_str());

  ModelCalibrator a;
  core::PhaseObservation obs = big_network_obs();
  a.observe(11, obs);
  a.observe(22, obs);
  a.observe(22, obs);
  obs.actual_write = 3;
  a.observe(33, obs);
  ASSERT_TRUE(a.save(path).is_ok());

  ModelCalibrator b;
  ModelCalibrator::LoadInfo info;
  ASSERT_TRUE(b.load(path, &info).is_ok());
  EXPECT_FALSE(info.missing);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(info.records, 3u);
  EXPECT_EQ(b.workloads(), 3u);

  for (const std::uint64_t sig : {11ull, 22ull, 33ull}) {
    const core::CalibrationFactors fa = a.factors(sig);
    const core::CalibrationFactors fb = b.factors(sig);
    EXPECT_EQ(fa.network, fb.network);
    EXPECT_EQ(fa.compute, fb.compute);
    EXPECT_EQ(fa.write, fb.write);
    EXPECT_EQ(fa.observations, fb.observations);
    EXPECT_EQ(a.epoch(sig), b.epoch(sig));
  }
  std::remove(path.c_str());
}

TEST(CalibrationStore, MissingFileIsACleanColdStart) {
  ModelCalibrator s;
  ModelCalibrator::LoadInfo info;
  ASSERT_TRUE(s.load(temp_path("never_written.bin"), &info).is_ok());
  EXPECT_TRUE(info.missing);
  EXPECT_EQ(s.workloads(), 0u);
  EXPECT_TRUE(s.factors(123).is_identity());
}

TEST(CalibrationStore, BadMagicIsAStatusErrorNotACrash) {
  const std::string path = temp_path("not_a_store.bin");
  write_file(path, "this is not a profile store");
  ModelCalibrator s;
  const Status st = s.load(path);
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("bad magic"), std::string::npos);
  EXPECT_EQ(s.workloads(), 0u);

  // The service built on that path warns and runs cold — still plans.
  const dag::JobDag job = diamond();
  const core::JobProfile profile =
      core::JobProfile::from(job, sim::ClusterSpec::three_node());
  const core::DelaySchedule direct =
      core::DelayCalculator(profile, core::CalculatorOptions{}).compute();
  // ...and never saves over the file it could not read: save() is an
  // error naming the path, and the file's bytes are unchanged.
  auto expect_cold_service = [&] {
    const std::string before = read_file(path);
    PlanServiceOptions opt;
    opt.store_path = path;
    PlanService service(opt);
    EXPECT_TRUE(service.load_info().missing);
    EXPECT_EQ(service.profiles().workloads(), 0u);
    expect_same_plan(*service.plan(job, profile).plan, direct);
    const Status saved = service.save();
    EXPECT_FALSE(saved.is_ok());
    EXPECT_NE(saved.message().find(path), std::string::npos) << saved.message();
    EXPECT_EQ(read_file(path), before);
  };
  expect_cold_service();

  // A version 1 store is refused by name, and the service again plans
  // cold.
  std::string v1 = "DSPS";
  const std::uint32_t version = 1;
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  write_file(path, v1);
  const Status old = s.load(path);
  EXPECT_FALSE(old.is_ok());
  EXPECT_NE(old.message().find("format version 1"), std::string::npos)
      << old.message();
  expect_cold_service();
  std::remove(path.c_str());
}

TEST(CalibrationStore, CorruptTailKeepsTheValidPrefix) {
  const std::string path = temp_path("corrupt_tail.bin");
  ModelCalibrator a;
  a.observe(11, big_network_obs());
  a.observe(22, big_network_obs());
  a.observe(33, big_network_obs());
  ASSERT_TRUE(a.save(path).is_ok());
  const std::string bytes = read_file(path);
  // An 8-byte header, then per record an 8-byte length+CRC prefix and a
  // 9-word payload.
  constexpr std::size_t kHeader = 8;
  constexpr std::size_t kRecord = 8 + 9 * 8;
  ASSERT_EQ(bytes.size(), kHeader + 3 * kRecord);

  // Cut the file at every offset: a partial header is an error; otherwise
  // exactly the whole records before the cut load, and a partial record is
  // reported as a truncated tail.
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    write_file(path, bytes.substr(0, k));
    ModelCalibrator b;
    ModelCalibrator::LoadInfo info;
    const Status st = b.load(path, &info);
    if (k < kHeader) {
      EXPECT_FALSE(st.is_ok()) << "cut at " << k;
      continue;
    }
    ASSERT_TRUE(st.is_ok()) << "cut at " << k << ": " << st.message();
    const std::size_t whole = (k - kHeader) / kRecord;
    const bool partial = (k - kHeader) % kRecord != 0;
    EXPECT_EQ(info.records, whole) << "cut at " << k;
    EXPECT_EQ(b.workloads(), whole) << "cut at " << k;
    EXPECT_EQ(info.truncated, partial) << "cut at " << k;
    EXPECT_EQ(info.discarded, partial ? 1u : 0u) << "cut at " << k;
  }

  // Flip a payload byte of the last record: the CRC rejects it.
  std::string flipped = bytes;
  flipped[flipped.size() - 20] ^= 0x5a;
  write_file(path, flipped);
  ModelCalibrator c;
  ModelCalibrator::LoadInfo info;
  ASSERT_TRUE(c.load(path, &info).is_ok());
  EXPECT_TRUE(info.truncated);
  EXPECT_EQ(info.records, 2u);
  EXPECT_EQ(info.discarded, 1u);
  std::remove(path.c_str());
}

TEST(CalibrationStore, PlanServicePersistsCalibrationAcrossProcesses) {
  const std::string path = temp_path("service_store.bin");
  std::remove(path.c_str());
  const dag::JobDag job = diamond();
  const core::JobProfile profile =
      core::JobProfile::from(job, sim::ClusterSpec::three_node());

  core::CalibrationFactors saved;
  {
    PlanServiceOptions opt;
    opt.store_path = path;
    PlanService first(opt);
    const auto planned = first.plan(job, profile);
    first.observe(planned.signature, big_network_obs());
    saved = first.profiles().factors(planned.signature);
    ASSERT_TRUE(first.save().is_ok());
  }
  {
    PlanServiceOptions opt;
    opt.store_path = path;
    PlanService second(opt);  // a "new process" restoring the store
    EXPECT_FALSE(second.load_info().missing);
    const core::CalibrationFactors restored =
        second.profiles().factors(core::workload_signature(job));
    EXPECT_EQ(restored.network, saved.network);
    EXPECT_EQ(restored.compute, saved.compute);
    EXPECT_EQ(restored.write, saved.write);
    EXPECT_EQ(restored.observations, saved.observations);
    EXPECT_EQ(second.profiles().epoch(core::workload_signature(job)), 1u);
  }
  std::remove(path.c_str());
}

// ---------- the NDJSON daemon ----------

using service::DaemonOptions;
using service::DaemonStats;
using service::PlanDaemon;

std::string plan_request(int id, const dag::JobDag& job) {
  std::ostringstream os;
  os << "{\"id\": " << id << ", \"spec\": ";
  json::write_string(os, dag::save_job_spec_text(job));
  os << ", \"cluster\": \"three_node\"}";
  return os.str();
}

TEST(PlanDaemon, ServesHitsAfterTheColdMiss) {
  PlanDaemon daemon(DaemonOptions{});
  const dag::JobDag job = diamond();
  bool err = true;
  const std::string first = daemon.handle_line(plan_request(1, job), &err);
  EXPECT_FALSE(err);
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
  const std::string second = daemon.handle_line(plan_request(2, job), &err);
  EXPECT_FALSE(err);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(second.find("\"id\": 2"), std::string::npos);
  // The embedded plan JSON must be byte-identical between hit and miss.
  const auto plan_of = [](const std::string& s) {
    return s.substr(s.find("\"plan\":"));
  };
  EXPECT_EQ(plan_of(first), plan_of(second));
}

TEST(PlanDaemon, PlansBuiltInWorkloads) {
  const DaemonOptions dopt;
  PlanDaemon daemon(dopt);
  bool err = true;
  const std::string r = daemon.handle_line(
      R"({"id": 1, "workload": "als", "cluster": "three_node"})", &err);
  EXPECT_FALSE(err) << r;
  EXPECT_NE(r.find("\"id\": 1"), std::string::npos);
  EXPECT_NE(r.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(r.find("\"plan\": {"), std::string::npos);
}

TEST(PlanDaemon, MalformedLinesGetErrorResponsesNotCrashes) {
  PlanDaemon daemon(DaemonOptions{});
  bool err = false;
  EXPECT_NE(daemon.handle_line("{oops", &err).find("\"error\""),
            std::string::npos);
  EXPECT_TRUE(err);
  EXPECT_NE(daemon.handle_line("{\"id\": 1}", &err).find("\"error\""),
            std::string::npos);
  EXPECT_TRUE(err);
  EXPECT_NE(
      daemon.handle_line("{\"id\": 1, \"spec\": \"job\"}", &err).find("error"),
      std::string::npos);
  EXPECT_TRUE(err);
  EXPECT_NE(daemon.handle_line("{\"cmd\": \"nope\"}", &err).find("error"),
            std::string::npos);
  EXPECT_TRUE(err);
  // A misspelled preset is an error, not a silent plan for the prototype.
  std::string typo = plan_request(3, diamond());
  typo.replace(typo.find("three_node"), 10, "3node");
  EXPECT_NE(daemon.handle_line(typo, &err).find("\"error\""),
            std::string::npos);
  EXPECT_TRUE(err);
  // Integer fields must be integers that fit in an int, and the cluster
  // overrides must be in range: none of these may plan.
  for (const std::string fields :
       {R"("v": 1.5)", R"("v": 1e300)", R"("workers": 4294967297)",
        R"("executors": 2.9)", R"("storage_nodes": 1.5)"}) {
    const std::string r = daemon.handle_line(
        R"({"id": 4, "workload": "lda", "scale": 0.5, )" + fields + "}", &err);
    EXPECT_NE(r.find("must be an integer"), std::string::npos) << r;
    EXPECT_TRUE(err) << fields;
  }
  for (const std::string fields :
       {R"("storage_nodes": -3)", R"("congestion": -1)"}) {
    const std::string r = daemon.handle_line(
        R"({"id": 5, "workload": "cosine_similarity", "scale": 0.5, )" +
            fields + "}",
        &err);
    EXPECT_NE(r.find("must be >= 0"), std::string::npos) << r;
    EXPECT_TRUE(err) << fields;
  }
}

TEST(PlanDaemon, NonFiniteRequestsGetErrorResponsesNotStalls) {
  // An infinite volume (spec text) or one that overflows to infinity
  // (scale 1e300) must not stall the daemon: both get error responses and
  // the next request still plans.
  PlanDaemon daemon(DaemonOptions{});
  std::istringstream in(
      "{\"id\": 1, \"spec\": \"job,x\\nstage,s,30,inf,2.5,2,0\"}\n"
      "{\"id\": 2, \"workload\": \"lda\", \"scale\": 1e300}\n" +
      plan_request(3, diamond()) + "\n");
  std::ostringstream out;
  const DaemonStats stats = daemon.serve(in, out);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.plans, 1u);

  std::istringstream lines(out.str());
  std::string line;
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"id\": " + std::to_string(id)), std::string::npos)
        << line;
    EXPECT_EQ(line.find("\"error\"") != std::string::npos, id < 3) << line;
  }
}

TEST(PlanDaemon, ServeKeepsResponseOrderAcrossABatch) {
  DaemonOptions dopt;
  dopt.threads = 4;
  dopt.batch = 8;
  PlanDaemon daemon(dopt);
  std::ostringstream requests;
  for (int i = 0; i < 6; ++i)
    requests << plan_request(i, diamond(i % 3)) << "\n";
  requests << "{\"cmd\": \"stats\", \"id\": 6}\n";
  std::istringstream in(requests.str());
  std::ostringstream out;
  const DaemonStats stats = daemon.serve(in, out);
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.errors, 0u);

  std::istringstream lines(out.str());
  std::string line;
  int expected = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"id\": " + std::to_string(expected)),
              std::string::npos)
        << line;
    ++expected;
  }
  EXPECT_EQ(expected, 7);
}

}  // namespace
}  // namespace ds::store
