// The driver's own spans, recorded around each public call it makes into a
// layer (never inside the program). Single-threaded: the benchmark is one
// client. Spans nest through an open-span stack, so a span's parent is the
// span that was open when it began; spans of one request share its id.
//
// A layer's self time is its span's duration minus the time its child spans
// cover. A root span's self time is time the benchmark could not attribute
// to any layer call.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace e2e {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  // Disabled recorders make Scope a no-op (the untraced passes).
  // Room for a traced run's spans up front, so recording one rarely
  // allocates inside an allocation-counted region.
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(std::size_t{1} << 16);
  }

  class Scope {
   public:
    Scope(Spans* spans, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  // `name` is "<layer>.<call>" and must be a string literal.
  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per span name, in first-seen order.
  std::vector<SelfTime> self_times() const;
  // Σ self time of root spans ÷ Σ duration of root spans, in percent.
  double unattributed_pct() const;
  // Durations of the spans named `name`, in ms, in recording order.
  std::vector<double> durations_ms(const char* name) const;

  void write_chrome_json(std::ostream& os) const;
  void write_self_time_table(std::ostream& os) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;  // index into spans_, -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  // Per span: the time its direct children cover, in ns.
  std::vector<double> child_ns() const;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace e2e
