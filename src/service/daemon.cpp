#include "service/daemon.h"

#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/obs.h"
#include "service/ndjson.h"
#include "util/check.h"

namespace ds::service {

namespace {

// The schedule as the JSON object a plan response embeds: delays, predicted
// timeline, makespan/JCT and search counters. 17 significant digits
// round-trip every double exactly.
void plan_to_json(const core::DelaySchedule& plan, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"version\": 1, \"delays\": [";
  for (std::size_t k = 0; k < plan.delay.size(); ++k)
    out << (k ? ", " : "") << plan.delay[k];
  out << "], \"stages\": [";
  for (std::size_t k = 0; k < plan.predicted_stages.size(); ++k) {
    const core::StageTimeline& t = plan.predicted_stages[k];
    out << (k ? ", " : "") << "{\"ready\": " << t.ready
        << ", \"submitted\": " << t.submitted
        << ", \"read_done\": " << t.read_done
        << ", \"compute_done\": " << t.compute_done
        << ", \"finish\": " << t.finish << "}";
  }
  out << "], \"predicted_makespan_s\": " << plan.predicted_makespan
      << ", \"predicted_jct_s\": " << plan.predicted_jct
      << ", \"evaluations\": " << plan.evaluations
      << ", \"memo_hits\": " << plan.memo_hits << "}";
}

}  // namespace

PlanDaemon::PlanDaemon(DaemonOptions options, obs::Observability* obs)
    : opt_(options),
      obs_(obs),
      service_(options.service, obs),
      pool_(options.threads),
      requests_metric_(obs::counter(obs, "daemon.requests")),
      errors_metric_(obs::counter(obs, "daemon.errors")),
      flight_(obs::flight(obs)),
      epoch_(std::chrono::steady_clock::now()) {
  if (opt_.batch == 0) opt_.batch = 1;
  DS_CHECK_MSG(opt_.telemetry == nullptr || obs_ != nullptr,
               "daemon telemetry requires an Observability sink");
  DS_CHECK_MSG(opt_.telemetry == nullptr || opt_.telemetry_period > 0,
               "telemetry_period must be positive");
}

double PlanDaemon::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::string PlanDaemon::handle_line(const std::string& line, bool* is_error) {
  if (is_error != nullptr) *is_error = true;  // cleared on the success paths
  Request req;
  const Status parsed = parse_request(line, &req);
  const json::Value* id = req.object.find("id");
  if (!parsed.is_ok()) return error_response(id, parsed.message());

  if (req.kind == Request::Kind::kSave) {
    const Status st = service_.save();
    if (!st.is_ok()) return error_response(id, st.message());
    std::ostringstream os;
    open_response(os, id);
    os << ", \"ok\": true, \"workloads\": " << service_.profiles().workloads()
       << "}";
    if (is_error != nullptr) *is_error = false;
    return os.str();
  }
  if (req.kind == Request::Kind::kStats) {
    // stats_ is only written in serve()'s serial accounting loop after each
    // batch, so a stats request sees counters through the *previous* batch
    // (a stats line batched with plan requests does not count them yet).
    const store::PlanCache& c = service_.cache();
    std::ostringstream os;
    open_response(os, id);
    os << ", \"cache\": {\"size\": " << service_.cache().size()
       << ", \"hits\": " << c.hits() << ", \"misses\": " << c.misses()
       << ", \"evictions\": " << c.evictions() << ", \"stale\": " << c.stale()
       << ", \"invalidations\": " << c.invalidations()
       << "}, \"workloads\": " << service_.profiles().workloads()
       << ", \"daemon\": {\"requests\": " << stats_.requests
       << ", \"plans\": " << stats_.plans
       << ", \"errors\": " << stats_.errors << ", \"uptime_s\": ";
    std::ostringstream up;
    up.precision(6);
    up << uptime_s();
    os << up.str() << "}}";
    if (is_error != nullptr) *is_error = false;
    return os.str();
  }

  try {
    const dag::JobDag& job = req.dag;
    sim::ClusterSpec spec = opt_.cluster;
    if (const json::Value* c = req.object.find("cluster"); c != nullptr) {
      if (const Status st = sim::ClusterSpec::by_name(c->str_or(""), &spec);
          !st.is_ok())
        return error_response(id, st.message());
    }
    Status st = read_int(req.object, "workers", &spec.num_workers);
    if (st.is_ok())
      st = read_int(req.object, "executors", &spec.executors_per_worker);
    if (st.is_ok())
      st = read_int(req.object, "storage_nodes", &spec.num_storage_nodes);
    if (!st.is_ok()) return error_response(id, st.message());
    if (const json::Value* v = req.object.find("congestion"); v != nullptr)
      spec.congestion_penalty = v->num_or(spec.congestion_penalty);
    if (spec.num_workers <= 0 || spec.executors_per_worker <= 0)
      return error_response(id, "cluster must have workers and executors");
    if (spec.num_storage_nodes < 0)
      return error_response(id, "\"storage_nodes\" must be >= 0");
    if (!(spec.congestion_penalty >= 0))
      return error_response(id, "\"congestion\" must be >= 0");

    core::CalculatorOptions copt = service_.options().calculator;
    if (const json::Value* v = req.object.find("quantile"); v != nullptr)
      copt.model.quantile = v->num_or(copt.model.quantile);
    if (const Status st = core::validate(copt); !st.is_ok())
      return error_response(id, st.message());

    const core::JobProfile profile = core::JobProfile::from(job, spec);
    const store::PlanService::Planned planned =
        service_.plan(job, profile, copt);

    if (flight_ != nullptr) {
      // Audit every served plan (wall time base; record() is thread-safe, so
      // concurrent batch workers interleave by completion order).
      obs::FlightRecord r;
      r.t = uptime_s();
      r.kind = obs::FlightKind::kPlan;
      r.label = flight_->intern(job.name());
      double total_delay = 0;
      for (const Seconds d : planned.plan->delay) total_delay += d;
      r.value = total_delay;
      r.cache = planned.cache_hit ? 1 : 0;
      flight_->record(r);
    }

    std::ostringstream os;
    open_response(os, id);
    os << ", \"cache\": \"" << (planned.cache_hit ? "hit" : "miss")
       << "\", \"signature\": \"" << planned.signature
       << "\", \"epoch\": " << planned.epoch << ", \"plan\": ";
    plan_to_json(*planned.plan, os);
    os << "}";
    if (is_error != nullptr) *is_error = false;
    return os.str();
  } catch (const std::exception& e) {
    // A failed DS_CHECK inside the planner throws CheckError; a bad request
    // must come back as an error response.
    return error_response(id, e.what());
  }
}

DaemonStats PlanDaemon::serve(std::istream& in, std::ostream& out) {
  std::vector<std::string> lines;
  std::vector<std::string> responses;
  lines.reserve(opt_.batch);
  bool eof = false;
  while (!eof) {
    lines.clear();
    std::string line;
    while (lines.size() < opt_.batch) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (line.empty()) continue;
      lines.push_back(line);
    }
    if (lines.empty()) continue;

    responses.assign(lines.size(), std::string());
    std::vector<char> failed(lines.size(), 0);
    pool_.parallel_for(lines.size(), [&](std::size_t i) {
      bool err = false;
      responses[i] = handle_line(lines[i], &err);
      failed[i] = err ? 1 : 0;
    });
    for (std::size_t i = 0; i < responses.size(); ++i) {
      out << responses[i] << "\n";
      stats_.requests += 1;
      requests_metric_.inc();
      if (failed[i] != 0) {
        stats_.errors += 1;
        errors_metric_.inc();
      } else {
        stats_.plans += 1;
      }
    }
    out.flush();

    // Wall-cadence telemetry: at most one snapshot per period, checked
    // between dispatch rounds (a blocked stdin does not tick).
    if (opt_.telemetry != nullptr) {
      const double now = uptime_s();
      if (last_telemetry_ < 0 || now - last_telemetry_ >= opt_.telemetry_period) {
        opt_.telemetry->snapshot(*obs_, now);
        last_telemetry_ = now;
      }
    }
  }
  if (opt_.telemetry != nullptr) opt_.telemetry->snapshot(*obs_, uptime_s());
  return stats_;
}

}  // namespace ds::service
