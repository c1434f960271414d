#include "store/daemon.h"

#include <exception>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/plan_serialize.h"
#include "dag/serialize.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/json.h"

namespace ds::store {

namespace {

// Echo a request id into a response. Only scalar ids round-trip (the
// protocol never needs structured ids); anything else is echoed as null.
void write_id(std::ostream& os, const json::Value* id) {
  if (id == nullptr) {
    os << "null";
    return;
  }
  switch (id->type()) {
    case json::Value::Type::kString:
      json::write_string(os, id->str_or(""));
      return;
    case json::Value::Type::kNumber: {
      std::ostringstream tmp;
      tmp.precision(17);
      tmp << id->num_or(0);
      os << tmp.str();
      return;
    }
    case json::Value::Type::kBool:
      os << (id->bool_or(false) ? "true" : "false");
      return;
    default:
      os << "null";
      return;
  }
}

// Every response line leads with the protocol version (see the NDJSON
// protocol notes in core/plan_serialize.h).
void open_response(std::ostream& os, const json::Value* id) {
  os << "{\"v\": " << core::kNdjsonProtocolVersion << ", \"id\": ";
  write_id(os, id);
}

std::string error_response(const json::Value* id, const std::string& message) {
  std::ostringstream os;
  open_response(os, id);
  os << ", \"error\": ";
  json::write_string(os, message);
  os << "}";
  return os.str();
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
  json::Value req;
  if (const Status st = json::parse(line, &req); !st.is_ok())
    return error_response(nullptr, st.message());
  if (!req.is_object())
    return error_response(nullptr, "request must be a JSON object");
  const json::Value* id = req.find("id");
  if (const Status st = core::check_ndjson_version(req); !st.is_ok())
    return error_response(id, st.message());

  if (const json::Value* cmd = req.find("cmd"); cmd != nullptr) {
    const std::string name = cmd->str_or("");
    if (name == "save") {
      const Status st = service_.save();
      std::ostringstream os;
      open_response(os, id);
      if (st.is_ok()) {
        os << ", \"ok\": true, \"workloads\": "
           << service_.profiles().workloads() << "}";
        if (is_error != nullptr) *is_error = false;
        return os.str();
      }
      return error_response(id, st.message());
    }
    if (name == "stats") {
      // stats_ is only written in serve()'s serial accounting loop after each
      // batch, so a stats request sees counters through the *previous* batch
      // (a stats line batched with plan requests does not count them yet).
      const PlanCache& c = service_.cache();
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
    return error_response(id, "unknown cmd \"" + name + "\"");
  }

  const json::Value* spec_field = req.find("spec");
  if (spec_field == nullptr || !spec_field->is_string())
    return error_response(id, "request needs a \"spec\" string (job-spec text)");

  try {
    const dag::JobDag job = dag::load_job_spec_text(spec_field->str_or(""));

    sim::ClusterSpec spec = opt_.cluster;
    if (const json::Value* c = req.find("cluster"); c != nullptr) {
      if (const Status st = sim::ClusterSpec::by_name(c->str_or(""), &spec);
          !st.is_ok())
        return error_response(id, st.message());
    }
    if (const json::Value* v = req.find("workers"); v != nullptr)
      spec.num_workers = static_cast<int>(v->int_or(spec.num_workers));
    if (const json::Value* v = req.find("executors"); v != nullptr)
      spec.executors_per_worker =
          static_cast<int>(v->int_or(spec.executors_per_worker));
    if (const json::Value* v = req.find("storage_nodes"); v != nullptr)
      spec.num_storage_nodes =
          static_cast<int>(v->int_or(spec.num_storage_nodes));
    if (const json::Value* v = req.find("congestion"); v != nullptr)
      spec.congestion_penalty = v->num_or(spec.congestion_penalty);
    if (spec.num_workers <= 0 || spec.executors_per_worker <= 0)
      return error_response(id, "cluster must have workers and executors");

    core::CalculatorOptions copt = service_.options().calculator;
    if (const json::Value* v = req.find("quantile"); v != nullptr)
      copt.model.quantile = v->num_or(copt.model.quantile);
    if (const Status st = core::validate(copt); !st.is_ok())
      return error_response(id, st.message());

    const core::JobProfile profile = core::JobProfile::from(job, spec);
    const PlanService::Planned planned = service_.plan(job, profile, copt);

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
    core::plan_to_json(*planned.plan, os);
    os << "}";
    if (is_error != nullptr) *is_error = false;
    return os.str();
  } catch (const std::exception& e) {
    // load_job_spec_text throws CheckError with a line number on malformed
    // specs; a bad request must come back as an error response.
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

}  // namespace ds::store
