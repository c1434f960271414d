// Lock-cheap metrics registry: counters, gauges and fixed-bucket histograms.
//
// Instrumented code resolves *typed handles* once, at construction, and
// updates them on hot paths with a single relaxed atomic op — never a string
// lookup, never a lock. The registry's mutex only guards handle creation and
// export. A default-constructed handle is *disabled*: every update is one
// null-pointer branch, which is what every subsystem holds when the caller
// passed no Observability sink (the compiled-in-but-off path measured by
// bench_obs_overhead).
//
// Histograms use fixed ascending bucket upper bounds (choose them with
// linear_buckets/exponential_buckets); samples are assumed non-negative
// (durations, bytes). Percentiles interpolate linearly within a bucket, so
// they agree with metrics::Cdf to within one bucket width — the contract
// obs_test pins.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ds::obs {

namespace detail {

inline void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

struct HistogramCell {
  explicit HistogramCell(std::vector<double> b)
      : bounds(std::move(b)), counts(bounds.size() + 1) {}
  const std::vector<double> bounds;                 // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> counts;   // + overflow bucket
  std::atomic<std::uint64_t> total{0};
  std::atomic<double> sum{0.0};
};

}  // namespace detail

class MetricsRegistry;

class Counter {
 public:
  Counter() = default;  // disabled: inc() is a no-op
  void inc(std::uint64_t delta = 1) const {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  bool enabled() const { return cell_ != nullptr; }
  std::uint64_t value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;  // disabled
  void set(double v) const {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(double d) const {
    if (cell_ != nullptr) detail::atomic_add(cell_->value, d);
  }
  bool enabled() const { return cell_ != nullptr; }
  double value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  struct Point {
    double value = 0;
    double cum_percent = 0;
  };

  Histogram() = default;  // disabled
  void observe(double v) const;
  bool enabled() const { return cell_ != nullptr; }

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  // p in [0, 100]; linear interpolation within the containing bucket (the
  // first bucket's lower edge is 0, the overflow bucket reports the top
  // bound). Matches metrics::Cdf to within one bucket width.
  double percentile(double p) const;
  // Percent of samples <= v, interpolated within v's bucket (cf.
  // metrics::Cdf::fraction_below).
  double fraction_below(double v) const;
  // n evenly spaced CDF points, like metrics::Cdf::points.
  std::vector<Point> points(int n = 20) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

// Handy bucket layouts. linear_buckets(w, n) = {w, 2w, ..., nw};
// exponential_buckets(s, f, n) = {s, s·f, ..., s·f^(n-1)}.
std::vector<double> linear_buckets(double width, int count);
std::vector<double> exponential_buckets(double start, double factor, int count);

// One histogram's derived summary inside a MetricsSnapshot.
struct HistogramStat {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

// A point-in-time copy of every metric, names sorted — what the streaming
// telemetry sink serializes on each cadence tick. Values are read relaxed;
// for the deterministic (sim-event-driven) metrics a snapshot taken at a
// fixed sim time is bit-reproducible.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStat> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve (creating on first use) the named metric. Handles stay valid for
  // the registry's lifetime; resolving the same name again returns a handle
  // to the same cell. A histogram's bounds are fixed by its first resolution.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  // Read-only lookups for export and tests; a missing name yields a disabled
  // handle (value() == 0).
  Counter find_counter(const std::string& name) const;

  // Dump every metric as JSON, names sorted, histograms with bucket table +
  // 20-point CDF. Values are read relaxed: quiesce writers for exact totals.
  void write_json(std::ostream& os) const;

  // Point-in-time copy of every metric (see MetricsSnapshot).
  MetricsSnapshot snapshot() const;

  // Prometheus text exposition (version 0.0.4): dots become underscores,
  // counters get a _total suffix, histograms emit cumulative _bucket{le=…}
  // series plus _sum and _count — ready for a scrape endpoint or promtool.
  void write_prometheus(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace ds::obs
