#include "service/ndjson.h"

#include <cmath>
#include <exception>
#include <limits>
#include <ostream>
#include <sstream>

#include "dag/serialize.h"
#include "sim/time.h"
#include "util/json.h"
#include "workloads/workloads.h"

namespace ds::service {

namespace {

Status build_workload(const std::string& name, double scale,
                      dag::JobDag* out) {
  if (name == "als") {
    *out = workloads::als(scale);
  } else if (name == "connected_components") {
    *out = workloads::connected_components(scale);
  } else if (name == "cosine_similarity") {
    *out = workloads::cosine_similarity(scale);
  } else if (name == "lda") {
    *out = workloads::lda(scale);
  } else if (name == "triangle_count") {
    *out = workloads::triangle_count(scale);
  } else {
    return Status::error(
        "unknown workload \"" + name +
        "\" (expected als, connected_components, cosine_similarity, lda or "
        "triangle_count)");
  }
  return Status::ok();
}

// "v" absent = version 1; not an int or unsupported = error.
Status check_version(const json::Value& request) {
  int version = kNdjsonProtocolVersion;
  if (const Status st = read_int(request, "v", &version); !st.is_ok())
    return st;
  if (version != kNdjsonProtocolVersion) {
    std::ostringstream os;
    os << "unsupported protocol version " << version << " (this server speaks v"
       << kNdjsonProtocolVersion << ")";
    return Status::error(os.str());
  }
  return Status::ok();
}

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

}  // namespace

Status read_int(const json::Value& object, std::string_view name, int* out) {
  const json::Value* v = object.find(name);
  if (v == nullptr) return Status::ok();
  const double x = v->num_or(0);
  if (!v->is_number() ||
      !(x >= std::numeric_limits<int>::min() &&
        x <= std::numeric_limits<int>::max()) ||
      std::trunc(x) != x)
    return Status::error(
        std::string(1, '"').append(name).append(
            "\" must be an integer that fits in an int"));
  *out = static_cast<int>(x);
  return Status::ok();
}

Status parse_request(const std::string& line, Request* req) {
  *req = Request();
  if (const Status st = json::parse(line, &req->object); !st.is_ok())
    return st;
  const json::Value& o = req->object;
  if (!o.is_object()) return Status::error("request must be a JSON object");
  if (const Status st = check_version(o); !st.is_ok()) return st;

  if (const json::Value* cmd = o.find("cmd"); cmd != nullptr) {
    const std::string name = cmd->str_or("");
    if (name == "stats") {
      req->kind = Request::Kind::kStats;
    } else if (name == "save") {
      req->kind = Request::Kind::kSave;
    } else {
      return Status::error("unknown cmd \"" + name +
                           "\" (expected stats or save)");
    }
    return Status::ok();
  }
  const json::Value* workload = o.find("workload");
  const json::Value* spec = o.find("spec");
  if ((workload != nullptr) == (spec != nullptr) ||
      (spec != nullptr && !spec->is_string()))
    return Status::error(
        "request needs exactly one of \"workload\" or \"spec\"");
  // A DAG that fails its own checks (a non-finite volume from a huge
  // "scale" or from the spec text) is an error response, not a crash.
  try {
    if (workload != nullptr) {
      double scale = 1.0;
      if (const json::Value* v = o.find("scale"); v != nullptr)
        scale = v->num_or(scale);
      if (scale <= 0) return Status::error("\"scale\" must be positive");
      if (const Status st =
              build_workload(workload->str_or(""), scale, &req->dag);
          !st.is_ok())
        return st;
    } else {
      req->dag = dag::load_job_spec_text(spec->str_or(""));
    }
  } catch (const std::exception& e) {
    return Status::error(e.what());
  }
  if (const json::Value* v = o.find("arrival"); v != nullptr) {
    // Negative keeps its meaning (back to back); a later time must be one
    // the simulated clock can still resolve drains at.
    const double x = v->num_or(0);
    if (!v->is_number() || !(x < sim::kClockHorizon))
      return Status::error(
          "\"arrival\" must be a number of seconds below 2^24 (16777216)");
    req->arrival = x;
  }
  return read_int(o, "priority", &req->priority);
}

void open_response(std::ostream& os, const json::Value* id) {
  os << "{\"v\": " << kNdjsonProtocolVersion << ", \"id\": ";
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

void write_job_status(std::ostream& os, const JobStatus& status,
                      const json::Value* request_id) {
  os.precision(12);
  os << "{\"v\": " << kNdjsonProtocolVersion << ", \"id\": " << status.id;
  if (request_id != nullptr) {
    os << ", \"request_id\": ";
    write_id(os, request_id);
  }
  os << ", \"name\": ";
  json::write_string(os, status.name);
  os << ", \"state\": \"" << to_string(status.state)
     << "\", \"priority\": " << status.priority
     << ", \"arrival\": " << status.arrival << ", \"wait\": " << status.wait
     << ", \"jct\": " << status.jct << ", \"slowdown\": " << status.slowdown
     << ", \"planned_delay\": " << status.planned_delay << ", \"cache\": \""
     << (status.plan_cache_hit ? "hit" : "miss") << "\"}\n";
}

}  // namespace ds::service
