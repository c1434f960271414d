// EventRing — the bounded record ring behind both the span tracer and the
// flight recorder.
//
// push() copies one fixed-size record into a preallocated ring under one
// mutex, stamping its `seq` with the number of records pushed before it.
// When the ring is full the oldest record is overwritten and counted in
// dropped(), so memory stays bounded however long the process runs and the
// ring always holds the newest records. A ring of capacity 0 (the owner is
// disabled) allocates nothing and records nothing.
//
// intern() copies dynamic strings (stage names, labels) into ring-owned
// storage and deduplicates them, so records can carry plain `const char*`
// that stay valid for the ring's lifetime; a bounded label vocabulary
// allocates nothing in the steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace ds::obs {

template <typename Record>
class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : ring_(capacity) {}
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  void push(Record r) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) return;
    r.seq = head_;
    ring_[static_cast<std::size_t>(head_ % ring_.size())] = r;
    ++head_;
  }

  // Records ever pushed / currently retained / overwritten by wraparound.
  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return head_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retained();
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return head_ - retained();
  }

  // Retained records, oldest first (= seq order).
  std::vector<Record> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Record> out;
    out.reserve(retained());
    for (std::uint64_t i = head_ - retained(); i < head_; ++i)
      out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
    return out;
  }

  // Pointer-stable, deduplicated copy of `s` (set nodes never move).
  const char* intern(const std::string& s) {
    std::lock_guard<std::mutex> lock(mu_);
    return interned_.insert(s).first->c_str();
  }

 private:
  std::size_t retained() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }

  mutable std::mutex mu_;
  std::vector<Record> ring_;
  std::uint64_t head_ = 0;
  std::set<std::string> interned_;
};

}  // namespace ds::obs
