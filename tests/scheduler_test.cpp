// The online multi-job scheduler service (service/scheduler.h and friends):
//
//  * the whole service is bit-identical for any SchedulerOptions::threads
//    (all decisions happen inside sequential simulator events; the planner
//    is thread-invariant by contract);
//  * the ClusterLedger can never over-commit — by unit contract and while
//    the scheduler is live under load;
//  * admission stays fair under priority inversion: a big job that cannot
//    backfill blocks further backfill once it ages one delay-budget
//    quantum, so small-job streams cannot starve it;
//  * drain() after a burst terminates with every job terminal;
//  * arrival processes and the NDJSON v1 submission protocol are
//    deterministic and version-checked.
#include "service/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "dag/serialize.h"
#include "service/arrivals.h"
#include "service/ledger.h"
#include "service/ndjson.h"
#include "service/policy.h"
#include "trace/synthetic.h"
#include "util/check.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

// A job whose widest stage wants `tasks` slots; `gb` scales the volumes so
// bigger jobs also run longer.
dag::JobDag wide_job(const std::string& name, int tasks, double gb) {
  std::ostringstream spec;
  spec << "job," << name << "\n"
       << "stage,work," << tasks << ',' << gb << ",4.0," << gb / 4 << ",0.1\n";
  return dag::load_job_spec_text(spec.str());
}

SchedulerOptions small_cluster_options() {
  SchedulerOptions opt;
  opt.cluster = sim::ClusterSpec::paper_prototype();
  opt.cluster.num_workers = 6;  // 12 slots: contention without long runtimes
  opt.seed = 7;
  return opt;
}

// Fingerprint every per-job field that downstream consumers read. Exact
// double equality is intentional: the service promises bit-identical
// results, not merely close ones.
struct JobPrint {
  Seconds admitted, finish, wait, jct, planned_delay;
  int grant_slots;
  bool operator==(const JobPrint&) const = default;
};

std::vector<JobPrint> run_fleet(int threads) {
  SchedulerOptions opt = small_cluster_options();
  opt.threads = threads;
  Scheduler sched(opt);
  const auto suite = workloads::benchmark_suite(0.25);
  const auto arrivals = service::poisson_arrivals(8, 0.01, opt.seed);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    sched.submit_at(arrivals[i], suite[i % suite.size()].dag,
                    static_cast<int>(i % 2));
  sched.drain();
  std::vector<JobPrint> out;
  for (service::JobId id = 1; id <= arrivals.size(); ++id) {
    const JobStatus& s = sched.poll(id);
    EXPECT_EQ(s.state, JobState::kFinished) << "job " << id;
    out.push_back({s.admitted, s.finish, s.wait, s.jct, s.planned_delay,
                   s.grant.slots});
  }
  return out;
}

TEST(Scheduler, BitIdenticalAcrossThreadCounts) {
  const std::vector<JobPrint> one = run_fleet(1);
  for (int threads : {2, 8}) {
    const std::vector<JobPrint> many = run_fleet(threads);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i)
      EXPECT_EQ(many[i], one[i]) << "job " << i + 1 << " diverged at "
                                 << threads << " threads";
  }
}

TEST(Scheduler, DrainAfterBurstTerminatesWithAllJobsFinished) {
  SchedulerOptions opt = small_cluster_options();
  Scheduler sched(opt);
  const auto suite = workloads::benchmark_suite(0.2);
  // A burst: everything arrives at t = 0, far more demand than the cluster.
  for (int i = 0; i < 12; ++i)
    sched.submit(suite[static_cast<std::size_t>(i) % suite.size()].dag);
  sched.drain();
  const FleetStats fs = sched.fleet();
  EXPECT_EQ(fs.submitted, 12u);
  EXPECT_EQ(fs.finished, 12u);
  EXPECT_EQ(fs.failed, 0u);
  EXPECT_EQ(fs.queued, 0u);
  EXPECT_EQ(fs.running, 0u);
  EXPECT_GT(fs.makespan, 0.0);
  EXPECT_GT(fs.mean_wait, 0.0);  // the burst must actually have queued
  EXPECT_EQ(sched.ledger().active_jobs(), 0u);
  EXPECT_EQ(sched.ledger().committed_slots(), 0);
}

TEST(Scheduler, LedgerNeverOvercommitsWhileLive) {
  SchedulerOptions opt = small_cluster_options();
  Scheduler sched(opt);
  const auto suite = workloads::benchmark_suite(0.2);
  for (int i = 0; i < 10; ++i)
    sched.submit_at(5.0 * i, suite[static_cast<std::size_t>(i) % suite.size()].dag);
  // Step simulated time and audit the ledger invariant throughout the run.
  const auto& ledger = sched.ledger();
  for (Seconds t = 10; sched.fleet().finished < 10; t += 10) {
    sched.run_until(t);
    EXPECT_LE(ledger.committed_slots(), ledger.total_slots());
    EXPECT_LE(ledger.committed_bandwidth(),
              ledger.total_bandwidth() + 1e-6);
    EXPECT_GE(ledger.free_slots(), 0);
    ASSERT_LT(t, 1e7) << "run did not converge";
  }
  EXPECT_LE(sched.fleet().peak_slot_occupancy, 1.0);
  EXPECT_GT(sched.fleet().peak_slot_occupancy, 0.0);
}

TEST(Scheduler, AgedBigJobBlocksBackfillUnderPriorityInversion) {
  SchedulerOptions opt = small_cluster_options();
  opt.max_share = 1.0;        // the big job wants the whole cluster
  opt.delay_budget = 60.0;    // ages to "urgent" quickly
  Scheduler sched(opt);
  const int total = sched.ledger().total_slots();

  // One small job holds slots from t = 0; the big (whole-cluster,
  // high-priority-class number = worse) job arrives at t = 1 and cannot
  // fit; a steady stream of small, *better*-priority jobs keeps arriving.
  // Without aging + backfill blocking, the small stream would hold the
  // cluster indefinitely; with them, the big job must run before the
  // stream's tail.
  const dag::JobDag small = wide_job("small", total / 3, 1.5);
  const dag::JobDag big = wide_job("big", total, 6.0);
  sched.submit_at(0.0, small, /*priority=*/0);
  const service::JobId big_id = sched.submit_at(1.0, big, /*priority=*/2);
  std::vector<service::JobId> stream;
  for (int i = 0; i < 14; ++i)
    stream.push_back(sched.submit_at(2.0 + 20.0 * i, small, /*priority=*/0));
  sched.drain();

  const JobStatus& bs = sched.poll(big_id);
  EXPECT_EQ(bs.state, JobState::kFinished);
  // Fairness: the big job was not pushed to the very end — some of the
  // later, nominally better-priority small jobs were admitted after it.
  Seconds last_small_admitted = 0;
  for (service::JobId id : stream)
    last_small_admitted = std::max(last_small_admitted,
                                   sched.poll(id).admitted);
  EXPECT_LT(bs.admitted, last_small_admitted)
      << "big job starved behind the small-job stream";
  // And aging really did the work: it waited at least one budget quantum
  // (it could not fit immediately) but far less than the whole stream.
  EXPECT_GE(bs.wait, opt.delay_budget - 1.0);
}

TEST(Scheduler, PriorityClassesOrderAdmissionAheadOfArrival) {
  SchedulerOptions opt = small_cluster_options();
  opt.max_share = 1.0;
  opt.delay_budget = 0;  // no aging: strict class order
  Scheduler sched(opt);
  const int total = sched.ledger().total_slots();
  // Occupy the whole cluster, then queue a worse-class job *before* a
  // better-class one. The better class must be admitted first.
  sched.submit_at(0.0, wide_job("occupier", total, 4.0), 0);
  const auto low = sched.submit_at(1.0, wide_job("low", total / 2, 1.0), 5);
  const auto high = sched.submit_at(2.0, wide_job("high", total / 2, 1.0), 1);
  sched.drain();
  EXPECT_LE(sched.poll(high).admitted, sched.poll(low).admitted);
  EXPECT_LT(sched.poll(high).wait, sched.poll(low).wait + 1e-9);
}

TEST(Scheduler, SjfAdmitsShortJobFirst) {
  SchedulerOptions opt = small_cluster_options();
  opt.policy = service::OrderPolicy::kSjf;
  opt.max_share = 1.0;
  opt.delay_budget = 0;
  Scheduler sched(opt);
  const int total = sched.ledger().total_slots();
  sched.submit_at(0.0, wide_job("occupier", total, 4.0));
  // The long job arrives first; SJF must still admit the short one earlier.
  // Both want 2/3 of the cluster, so only one fits at a time.
  const auto longer =
      sched.submit_at(1.0, wide_job("long", 2 * total / 3, 8.0));
  const auto shorter =
      sched.submit_at(2.0, wide_job("short", 2 * total / 3, 1.0));
  sched.drain();
  EXPECT_LT(sched.poll(shorter).admitted, sched.poll(longer).admitted);
}

TEST(Scheduler, QueueLongJobsLoseTheirPlannedDelays) {
  // Delay rebalancing: wait >= budget scales planned delays to zero.
  SchedulerOptions opt = small_cluster_options();
  opt.max_share = 1.0;
  opt.delay_budget = 30.0;
  Scheduler sched(opt);
  const int total = sched.ledger().total_slots();
  sched.submit_at(0.0, wide_job("occupier", total, 6.0));
  const auto queued =
      sched.submit_at(1.0, workloads::triangle_count(0.25), 0);
  sched.drain();
  const JobStatus& qs = sched.poll(queued);
  ASSERT_EQ(qs.state, JobState::kFinished);
  EXPECT_GT(qs.wait, opt.delay_budget);  // occupier ran well past the budget
  EXPECT_EQ(qs.planned_delay, 0.0);
}

TEST(ClusterLedger, FitsCommitReleaseAndPeaks) {
  service::ClusterLedger ledger(10, 100.0);
  service::ClusterLedger::Grant a{6, 60.0};
  service::ClusterLedger::Grant b{4, 40.0};
  service::ClusterLedger::Grant too_big{5, 10.0};
  EXPECT_TRUE(ledger.fits(a));
  ledger.commit(1, a);
  EXPECT_EQ(ledger.committed_slots(), 6);
  EXPECT_EQ(ledger.free_slots(), 4);
  EXPECT_FALSE(ledger.fits(too_big));
  EXPECT_TRUE(ledger.fits(b));
  ledger.commit(2, b);
  EXPECT_EQ(ledger.free_slots(), 0);
  EXPECT_DOUBLE_EQ(ledger.slot_occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.bandwidth_occupancy(), 1.0);
  EXPECT_EQ(ledger.active_jobs(), 2u);
  ASSERT_NE(ledger.grant(1), nullptr);
  EXPECT_EQ(ledger.grant(1)->slots, 6);
  ledger.release(1);
  EXPECT_EQ(ledger.free_slots(), 6);
  ledger.release(2);
  EXPECT_EQ(ledger.committed_slots(), 0);
  EXPECT_DOUBLE_EQ(ledger.committed_bandwidth(), 0.0);
  // Peaks remember the high-water mark after everything drained.
  EXPECT_EQ(ledger.peak_slots(), 10);
  EXPECT_DOUBLE_EQ(ledger.peak_bandwidth(), 100.0);
}

TEST(ClusterLedger, OvercommitAndDoubleGrantAreBugs) {
  service::ClusterLedger ledger(4, 50.0);
  ledger.commit(1, {3, 30.0});
  EXPECT_THROW(ledger.commit(2, {2, 10.0}), CheckError);   // slots over
  EXPECT_THROW(ledger.commit(3, {1, 30.0}), CheckError);   // bandwidth over
  EXPECT_THROW(ledger.commit(1, {1, 1.0}), CheckError);    // double grant
  EXPECT_THROW(ledger.release(99), CheckError);            // unknown id
}

TEST(Arrivals, PoissonDeterministicAndRateMatched) {
  const auto a = service::poisson_arrivals(500, 0.5, 21);
  const auto b = service::poisson_arrivals(500, 0.5, 21);
  EXPECT_EQ(a, b);
  const auto c = service::poisson_arrivals(500, 0.5, 22);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Mean inter-arrival gap ~ 1/rate = 2 s.
  EXPECT_NEAR(a.back() / 500.0, 2.0, 0.4);
}

TEST(Arrivals, TraceGapsPreservedAndRescalable) {
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 50;
  topt.seed = 4;
  const auto jobs = trace::synthetic_trace(topt);
  auto arrivals = service::trace_arrivals(jobs, jobs.size());
  ASSERT_EQ(arrivals.size(), jobs.size());
  EXPECT_DOUBLE_EQ(arrivals.front(), 0.0);
  // Same gap structure as the trace (which is sorted by submit time).
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_NEAR(arrivals[i] - arrivals[i - 1],
                jobs[i].submit_time - jobs[i - 1].submit_time, 1e-9);
  }
  // Cycling past the end keeps producing nondecreasing times.
  const auto doubled = service::trace_arrivals(jobs, 2 * jobs.size());
  EXPECT_TRUE(std::is_sorted(doubled.begin(), doubled.end()));
  // Rescaling pins the mean gap at 1/rate while keeping the shape.
  service::rescale_to_rate(arrivals, 0.25);
  const double mean_gap =
      arrivals.back() / static_cast<double>(arrivals.size() - 1);
  EXPECT_NEAR(mean_gap, 4.0, 1e-9);
}

TEST(SchedNdjson, ParsesWorkloadAndSpecRequests) {
  service::Request r;
  ASSERT_TRUE(service::parse_request(
                  R"({"v": 1, "workload": "lda", "scale": 0.5,)"
                  R"( "arrival": 12.5, "priority": 3, "future_field": true})",
                  &r)
                  .is_ok());
  EXPECT_EQ(r.dag.name(), "LDA");
  EXPECT_DOUBLE_EQ(r.arrival, 12.5);
  EXPECT_EQ(r.priority, 3);

  ASSERT_TRUE(service::parse_request(
                  R"({"spec": "job,inline\nstage,s,4,1.0,2.0,0.5,0.1\n"})",
                  &r)
                  .is_ok());
  EXPECT_EQ(r.dag.name(), "inline");
  EXPECT_EQ(r.dag.num_stages(), 1);
  EXPECT_DOUBLE_EQ(r.arrival, -1);  // absent = caller decides
}

TEST(SchedNdjson, RejectsBadVersionAndMalformedRequests) {
  service::Request r;
  const Status v2 = service::parse_request(
      R"({"v": 2, "workload": "lda"})", &r);
  EXPECT_FALSE(v2.is_ok());
  EXPECT_NE(v2.message().find("unsupported protocol version"),
            std::string::npos);
  EXPECT_FALSE(service::parse_request("not json", &r).is_ok());
  EXPECT_FALSE(service::parse_request("[1, 2]", &r).is_ok());
  EXPECT_FALSE(service::parse_request(R"({"v": 1})", &r).is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "lda", "spec": "x"})", &r)
                   .is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "nope"})", &r)
                   .is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "lda", "scale": -1})", &r)
                   .is_ok());
}

TEST(SchedNdjson, RejectsOutOfRangeNumbers) {
  // 2^32 + 1 must not wrap to priority 1, and a non-finite volume is an
  // error status for either DAG source.
  service::Request r;
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "lda", "priority": 4294967297})", &r)
                   .is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "lda", "priority": -4294967297})", &r)
                   .is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"workload": "lda", "scale": 1e300})", &r)
                   .is_ok());
  EXPECT_FALSE(service::parse_request(
                   R"({"spec": "stage,s,4,1e400,2.0,0.5,0.1"})", &r)
                   .is_ok());
  ASSERT_TRUE(service::parse_request(
                  R"({"workload": "lda", "priority": -2147483648})", &r)
                  .is_ok());
  EXPECT_EQ(r.priority, -2147483647 - 1);
  // "arrival" is a number below the 2^24 s clock horizon; past it a drain
  // could not move the clock.
  for (const std::string arrival : {"1.7e7", "1e300", R"("soon")"}) {
    const Status st = service::parse_request(
        R"({"workload": "lda", "arrival": )" + arrival + "}", &r);
    EXPECT_FALSE(st.is_ok()) << arrival;
    EXPECT_NE(st.message().find("\"arrival\""), std::string::npos)
        << st.message();
  }
  ASSERT_TRUE(service::parse_request(
                  R"({"workload": "lda", "arrival": 1.6e7})", &r)
                  .is_ok());
  EXPECT_EQ(r.arrival, 1.6e7);
  // Integer fields take integers only: a fraction, a string or a value no
  // int holds is an error that names the field.
  for (const std::string fields :
       {R"("priority": 2.5)", R"("priority": "high")", R"("v": 1.5)",
        R"("v": 1e300)", R"("v": "1")"}) {
    const Status st = service::parse_request(
        R"({"workload": "lda", )" + fields + "}", &r);
    EXPECT_FALSE(st.is_ok()) << fields;
    const std::string field = fields.substr(0, fields.find(':'));
    EXPECT_NE(st.message().find(field + " must be an integer"),
              std::string::npos)
        << st.message();
  }
}

TEST(SchedNdjson, ParsesStatsAndSaveCommands) {
  service::Request r;
  ASSERT_TRUE(service::parse_request(R"({"cmd": "save"})", &r).is_ok());
  EXPECT_EQ(r.kind, service::Request::Kind::kSave);
  ASSERT_TRUE(service::parse_request(R"({"v": 1, "cmd": "stats"})", &r).is_ok());
  EXPECT_EQ(r.kind, service::Request::Kind::kStats);
  const Status bad = service::parse_request(R"({"id": 4, "cmd": "nope"})", &r);
  EXPECT_FALSE(bad.is_ok());
  // The parsed object survives the error, so serve can echo the id.
  ASSERT_NE(r.object.find("id"), nullptr);
  EXPECT_EQ(r.object.find("id")->num_or(0), 4);
}

TEST(SchedNdjson, ResponseLinesCarryVersionAndNewline) {
  JobStatus s;
  s.id = 3;
  s.name = "j";
  s.state = JobState::kFinished;
  std::ostringstream os;
  service::write_job_status(os, s);
  const std::string line = os.str();
  EXPECT_EQ(line.find(R"({"v": 1, "id": 3)"), 0u);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(Policy, ParseAndScores) {
  service::OrderPolicy p;
  ASSERT_TRUE(service::parse_order_policy("fifo", &p).is_ok());
  EXPECT_EQ(p, service::OrderPolicy::kFifo);
  ASSERT_TRUE(service::parse_order_policy("sjf", &p).is_ok());
  EXPECT_EQ(p, service::OrderPolicy::kSjf);
  ASSERT_TRUE(service::parse_order_policy("hard-first", &p).is_ok());
  EXPECT_EQ(p, service::OrderPolicy::kHardFirst);
  EXPECT_FALSE(service::parse_order_policy("lifo", &p).is_ok());

  // FIFO is score-blind; SJF prefers the shorter job; HardFirst the longer
  // critical path.
  EXPECT_EQ(service::policy_score(service::OrderPolicy::kFifo, 10, 99),
            service::policy_score(service::OrderPolicy::kFifo, 99, 10));
  EXPECT_LT(service::policy_score(service::OrderPolicy::kSjf, 10, 0),
            service::policy_score(service::OrderPolicy::kSjf, 99, 0));
  EXPECT_LT(service::policy_score(service::OrderPolicy::kHardFirst, 0, 99),
            service::policy_score(service::OrderPolicy::kHardFirst, 0, 10));
}

TEST(SchedulerOptions, ValidateRejectsBadFields) {
  SchedulerOptions opt;
  EXPECT_TRUE(validate(opt).is_ok());
  opt.max_share = 0;
  EXPECT_FALSE(validate(opt).is_ok());
  opt = {};
  opt.max_share = 1.5;
  EXPECT_FALSE(validate(opt).is_ok());
  opt = {};
  opt.min_slots_per_job = 0;
  EXPECT_FALSE(validate(opt).is_ok());
  opt = {};
  opt.interference = -0.1;
  EXPECT_FALSE(validate(opt).is_ok());
  opt = {};
  opt.cluster.num_workers = 0;
  EXPECT_FALSE(validate(opt).is_ok());
}

}  // namespace
}  // namespace ds
