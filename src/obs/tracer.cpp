#include "obs/tracer.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace ds::obs {

Tracer::Tracer(TracerOptions opt)
    : opt_(opt),
      epoch_(std::chrono::steady_clock::now()),
      events_(opt.enabled ? opt.ring_capacity : 0) {
  DS_CHECK_MSG(opt_.ring_capacity >= 2, "tracer ring too small");
}

double Tracer::wall_now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::complete(const char* cat, const char* name, double ts_s,
                      double dur_s, std::int32_t pid, std::int32_t tid,
                      const char* arg_name, double arg_value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'X';
  ev.ts_us = ts_s * 1e6;
  ev.dur_us = dur_s * 1e6;
  ev.pid = pid;
  ev.tid = tid;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  events_.push(ev);
}

void Tracer::instant(const char* cat, const char* name, double ts_s,
                     std::int32_t pid, std::int32_t tid, const char* arg_name,
                     double arg_value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.ts_us = ts_s * 1e6;
  ev.pid = pid;
  ev.tid = tid;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  events_.push(ev);
}

void Tracer::counter(const char* cat, const char* name, double ts_s,
                     std::int32_t pid, double value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'C';
  ev.ts_us = ts_s * 1e6;
  ev.pid = pid;
  ev.tid = 0;
  ev.arg_value = value;
  events_.push(ev);
}

void Tracer::set_process_name(std::int32_t pid, const std::string& name) {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(Meta{pid, 0, false, name});
}

void Tracer::set_thread_name(std::int32_t pid, std::int32_t tid,
                             const std::string& name) {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(Meta{pid, tid, true, name});
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out = events_.snapshot();
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  const std::uint64_t dropped_events = dropped();
  std::vector<Meta> meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    meta = meta_;
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& m : meta) {
    os << (first ? "\n" : ",\n")
       << R"({"ph":"M","name":")" << (m.thread ? "thread_name" : "process_name")
       << R"(","pid":)" << m.pid << R"(,"tid":)" << m.tid
       << R"(,"args":{"name":)";
    json::write_string(os, m.name);
    os << "}}";
    first = false;
  }
  for (const auto& ev : events) {
    os << (first ? "\n" : ",\n") << R"({"ph":")" << ev.phase << R"(","name":)";
    json::write_string(os, ev.name);
    os << R"(,"cat":)";
    json::write_string(os, ev.cat[0] != '\0' ? ev.cat : "trace");
    os << R"(,"ts":)" << json::number(ev.ts_us, 10);
    if (ev.phase == 'X') os << R"(,"dur":)" << json::number(ev.dur_us, 10);
    if (ev.phase == 'i') os << R"(,"s":"t")";
    os << R"(,"pid":)" << ev.pid << R"(,"tid":)" << ev.tid;
    if (ev.phase == 'C') {
      os << R"(,"args":{"value":)" << json::number(ev.arg_value, 10) << "}";
    } else if (ev.arg_name != nullptr) {
      os << R"(,"args":{)";
      json::write_string(os, ev.arg_name);
      os << ':' << json::number(ev.arg_value, 10) << '}';
    }
    os << '}';
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":"
     << dropped_events << "}}\n";
}

}  // namespace ds::obs
