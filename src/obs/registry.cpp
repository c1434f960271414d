#include "obs/registry.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace ds::obs {

namespace {

// Snapshot of a histogram cell, taken once per query so the derived numbers
// (percentile, fraction_below) are internally consistent.
struct HistSnapshot {
  const std::vector<double>* bounds = nullptr;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  explicit HistSnapshot(const detail::HistogramCell& c) : bounds(&c.bounds) {
    counts.reserve(c.counts.size());
    for (const auto& n : c.counts)
      counts.push_back(n.load(std::memory_order_relaxed));
    total = c.total.load(std::memory_order_relaxed);
  }

  double lower_edge(std::size_t b) const {
    return b == 0 ? 0.0 : (*bounds)[b - 1];
  }
  double upper_edge(std::size_t b) const {
    // The overflow bucket has no real upper edge; report the top bound so
    // percentiles stay finite (documented saturation).
    return b < bounds->size() ? (*bounds)[b] : bounds->back();
  }

  double percentile(double p) const {
    if (total == 0) return 0.0;
    const double target = std::clamp(p, 0.0, 100.0) / 100.0 *
                          static_cast<double>(total);
    double cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const double next = cum + static_cast<double>(counts[b]);
      if (next >= target && counts[b] > 0) {
        const double frac =
            (target - cum) / static_cast<double>(counts[b]);
        return lower_edge(b) +
               std::clamp(frac, 0.0, 1.0) * (upper_edge(b) - lower_edge(b));
      }
      cum = next;
    }
    return upper_edge(counts.size() - 1);
  }

  double fraction_below(double v) const {
    if (total == 0) return 0.0;
    double cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const double lo = lower_edge(b);
      const double hi = upper_edge(b);
      if (v >= hi && b < counts.size() - 1) {
        cum += static_cast<double>(counts[b]);
        continue;
      }
      const double width = hi - lo;
      const double frac =
          width > 0 ? std::clamp((v - lo) / width, 0.0, 1.0) : (v >= lo ? 1.0 : 0.0);
      cum += frac * static_cast<double>(counts[b]);
      break;
    }
    return 100.0 * cum / static_cast<double>(total);
  }
};

}  // namespace

void Histogram::observe(double v) const {
  if (cell_ == nullptr) return;
  const auto& bounds = cell_->bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds.begin());
  cell_->counts[b].fetch_add(1, std::memory_order_relaxed);
  cell_->total.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(cell_->sum, v);
}

std::uint64_t Histogram::count() const {
  return cell_ != nullptr ? cell_->total.load(std::memory_order_relaxed) : 0;
}

double Histogram::sum() const {
  return cell_ != nullptr ? cell_->sum.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::percentile(double p) const {
  if (cell_ == nullptr) return 0.0;
  return HistSnapshot(*cell_).percentile(p);
}

double Histogram::fraction_below(double v) const {
  if (cell_ == nullptr) return 0.0;
  return HistSnapshot(*cell_).fraction_below(v);
}

std::vector<Histogram::Point> Histogram::points(int n) const {
  DS_CHECK(n >= 2);
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(n));
  if (cell_ == nullptr) return out;
  const HistSnapshot snap(*cell_);
  for (int i = 0; i < n; ++i) {
    const double p = 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back(Point{snap.percentile(p), p});
  }
  return out;
}

std::vector<double> linear_buckets(double width, int count) {
  DS_CHECK(width > 0 && count >= 1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 1; i <= count; ++i) out.push_back(width * i);
  return out;
}

std::vector<double> exponential_buckets(double start, double factor, int count) {
  DS_CHECK(start > 0 && factor > 1 && count >= 1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<detail::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  DS_CHECK_MSG(!bounds.empty(), "histogram needs at least one bucket bound");
  DS_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
               "histogram bounds must ascend: " << name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = histograms_[name];
  if (cell == nullptr) {
    cell = std::make_unique<detail::HistogramCell>(std::move(bounds));
  } else {
    DS_CHECK_MSG(cell->bounds == bounds,
                 "histogram " << name << " re-resolved with different bounds");
  }
  return Histogram(cell.get());
}

Counter MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? Counter(it->second.get()) : Counter();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << cell->value.load(std::memory_order_relaxed);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": "
       << json::number(cell->value.load(std::memory_order_relaxed), 10);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, cell] : histograms_) {
    const HistSnapshot snap(*cell);
    const double sum = cell->sum.load(std::memory_order_relaxed);
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\n"
       << "      \"count\": " << snap.total << ",\n"
       << "      \"sum\": " << json::number(sum, 10) << ",\n"
       << "      \"mean\": "
       << json::number(
              snap.total > 0 ? sum / static_cast<double>(snap.total) : 0.0, 10)
       << ",\n      \"buckets\": [";
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      os << (b == 0 ? "" : ", ") << "{\"le\": ";
      if (b < cell->bounds.size())
        os << json::number(cell->bounds[b], 10);
      else
        os << "\"inf\"";
      os << ", \"count\": " << snap.counts[b] << '}';
    }
    os << "],\n      \"cdf\": [";
    if (snap.total > 0) {
      constexpr int kPoints = 20;
      for (int i = 0; i < kPoints; ++i) {
        const double p =
            100.0 * static_cast<double>(i) / static_cast<double>(kPoints - 1);
        os << (i == 0 ? "" : ", ") << "{\"value\": "
           << json::number(snap.percentile(p), 10) << ", \"cum_percent\": "
           << json::number(p, 10) << '}';
      }
    }
    os << "]\n    }";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_)
    snap.counters.emplace_back(name,
                               cell->value.load(std::memory_order_relaxed));
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_)
    snap.gauges.emplace_back(name,
                             cell->value.load(std::memory_order_relaxed));
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    const HistSnapshot hs(*cell);
    HistogramStat stat;
    stat.name = name;
    stat.count = hs.total;
    stat.sum = cell->sum.load(std::memory_order_relaxed);
    stat.mean = hs.total > 0 ? stat.sum / static_cast<double>(hs.total) : 0.0;
    stat.p50 = hs.percentile(50.0);
    stat.p90 = hs.percentile(90.0);
    stat.p99 = hs.percentile(99.0);
    snap.histograms.push_back(std::move(stat));
  }
  return snap;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
// map onto underscores ("sched.queue_depth" → "sched_queue_depth").
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : counters_) {
    const std::string p = prom_name(name) + "_total";
    os << "# TYPE " << p << " counter\n"
       << p << ' ' << cell->value.load(std::memory_order_relaxed) << '\n';
  }
  for (const auto& [name, cell] : gauges_) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n"
       << p << ' '
       << json::number(cell->value.load(std::memory_order_relaxed), 10) << '\n';
  }
  for (const auto& [name, cell] : histograms_) {
    const std::string p = prom_name(name);
    const HistSnapshot snap(*cell);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      cum += snap.counts[b];
      os << p << "_bucket{le=\"";
      if (b < cell->bounds.size())
        os << json::number(cell->bounds[b], 10);
      else
        os << "+Inf";
      os << "\"} " << cum << '\n';
    }
    os << p << "_sum "
       << json::number(cell->sum.load(std::memory_order_relaxed), 10) << '\n'
       << p << "_count " << snap.total << '\n';
  }
}

}  // namespace ds::obs
