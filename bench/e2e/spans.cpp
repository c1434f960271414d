#include "spans.h"

#include <cstdio>
#include <map>
#include <ostream>
#include <string_view>

namespace e2e {

Spans::Scope::Scope(Spans* spans, const char* name, std::uint64_t request)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  index_ = spans_->spans_.size();
  const std::int64_t parent =
      spans_->open_.empty() ? -1 : static_cast<std::int64_t>(spans_->open_.back());
  spans_->spans_.push_back({name, request, parent, spans_->now_ns(), -1});
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].end_ns = spans_->now_ns();
  spans_->open_.pop_back();
}

std::vector<double> Spans::child_ns() const {
  std::vector<double> out(spans_.size(), 0.0);
  for (const Record& r : spans_)
    if (r.parent >= 0)
      out[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
  return out;
}

std::vector<Spans::SelfTime> Spans::self_times() const {
  const std::vector<double> children = child_ns();
  std::vector<SelfTime> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    auto [it, fresh] = index.emplace(r.name, out.size());
    if (fresh) out.push_back({r.name, 0, 0, 0});
    SelfTime& s = out[it->second];
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    ++s.count;
    s.total_ms += dur / 1e6;
    s.self_ms += (dur - children[i]) / 1e6;
  }
  return out;
}

double Spans::unattributed_pct() const {
  const std::vector<double> children = child_ns();
  double root = 0;
  double self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    root += dur;
    self += dur - children[i];
  }
  return root > 0 ? 100.0 * self / root : 0.0;
}

std::vector<double> Spans::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Record& r : spans_)
    if (std::string_view(r.name) == name)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
  return out;
}

void Spans::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::string_view name(r.name);
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"request\": %llu, \"parent\": %lld}}",
                  r.name, layer.c_str(), static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.request),
                  static_cast<long long>(r.parent));
    os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void Spans::write_self_time_table(std::ostream& os) const {
  double root_ms = 0;
  for (const Record& r : spans_)
    if (r.parent < 0) root_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  char buf[200];
  std::snprintf(buf, sizeof buf, "%-22s %10s %12s %12s %8s\n", "span", "count",
                "total ms", "self ms", "self %");
  os << buf;
  for (const SelfTime& s : self_times()) {
    std::snprintf(buf, sizeof buf, "%-22s %10llu %12.3f %12.3f %8.2f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms,
                  root_ms > 0 ? 100.0 * s.self_ms / root_ms : 0.0);
    os << buf;
  }
}

}  // namespace e2e
