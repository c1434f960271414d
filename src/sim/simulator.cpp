#include "sim/simulator.h"

#include <algorithm>

#include "util/check.h"

namespace ds::sim {

EventId Simulator::schedule_at(SimTime t, EventFn fn) {
  return schedule_at_seq(t, queue_.reserve_seq(), std::move(fn));
}

EventId Simulator::schedule_at_seq(SimTime t, std::uint64_t seq, EventFn fn) {
  // Allow a hair of backwards slop from floating-point arithmetic but clamp
  // to now(): time never runs backwards.
  DS_CHECK_MSG(t >= now_ - 1e-9, "scheduling into the past: t=" << t
                                                                << " now=" << now_);
  return queue_.push_at_seq(std::max(t, now_), seq, std::move(fn));
}

EventId Simulator::schedule_after(Seconds dt, EventFn fn) {
  DS_CHECK_MSG(dt >= -1e-9, "negative delay " << dt);
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

void Simulator::cancel(EventId id) { queue_.cancel(id); }

void Simulator::forget(const Flushable* f) {
  deferred_.erase(std::remove(deferred_.begin(), deferred_.end(), f),
                  deferred_.end());
}

void Simulator::flush_all() {
  // A flush files events but never defers more work.
  for (Flushable* f : deferred_) f->flush();
  deferred_.clear();
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

bool Simulator::run_until(SimTime t) {
  bool fired = false;
  for (;;) {
    flush_deferred();
    if (queue_.empty() || queue_.next_time() > t) break;
    step();
    fired = true;
  }
  now_ = std::max(now_, t);
  return fired;
}

bool Simulator::step() {
  flush_deferred();
  if (queue_.empty()) return false;
  SimTime t = 0;
  EventFn fn = queue_.pop(t);
  DS_CHECK(t >= now_ - 1e-9);
  now_ = std::max(now_, t);
  ++processed_;
  events_counter_.inc();
  fn();
  return true;
}

}  // namespace ds::sim
