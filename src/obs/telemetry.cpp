#include "obs/telemetry.h"

#include <ostream>

#include "obs/obs.h"
#include "util/json.h"

namespace ds::obs {

TelemetrySink::TelemetrySink(std::ostream& os, TelemetryOptions opt)
    : os_(os), opt_(std::move(opt)) {}

bool TelemetrySink::keep(const std::string& name) const {
  for (const std::string& p : opt_.exclude_prefixes)
    if (name.compare(0, p.size(), p) == 0) return false;
  return true;
}

void TelemetrySink::snapshot(Observability& obs, double t) {
  obs.refresh_derived();
  const MetricsSnapshot snap = obs.metrics.snapshot();
  os_ << "{\"v\": 1, \"seq\": " << seq_++ << ", \"t\": " << json::number(t, 12)
      << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!keep(name)) continue;
    os_ << (first ? "" : ", ");
    json::write_string(os_, name);
    os_ << ": " << value;
    first = false;
  }
  os_ << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!keep(name)) continue;
    os_ << (first ? "" : ", ");
    json::write_string(os_, name);
    os_ << ": " << json::number(value, 12);
    first = false;
  }
  os_ << "}, \"histograms\": {";
  first = true;
  for (const HistogramStat& h : snap.histograms) {
    if (!keep(h.name)) continue;
    os_ << (first ? "" : ", ");
    json::write_string(os_, h.name);
    os_ << ": {\"count\": " << h.count
        << ", \"sum\": " << json::number(h.sum, 12)
        << ", \"mean\": " << json::number(h.mean, 12)
        << ", \"p50\": " << json::number(h.p50, 12)
        << ", \"p90\": " << json::number(h.p90, 12)
        << ", \"p99\": " << json::number(h.p99, 12) << '}';
    first = false;
  }
  os_ << "}}\n";
  os_.flush();
}

}  // namespace ds::obs
