// Discrete-event simulator driver. Each Simulator instance is single-
// threaded by design — determinism and debuggability matter more here than
// intra-run speedup; cluster-scale throughput comes from running *many*
// independent instances in parallel (a ThreadPool fan-out, one world per
// index). Callbacks are InlineFunction (see event_queue.h): the steady
// state allocates nothing per event.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace ds::sim {

// Work a component batches within one simulated instant (NetworkFabric's
// reallocation). The simulator flushes every deferred component before it
// looks at the queue, so the batch always lands before the clock moves.
class Flushable {
 public:
  virtual void flush() = 0;

 protected:
  ~Flushable() = default;
};

class Simulator {
 public:
  // `obs` (optional) receives the "sim.events" counter; must outlive the
  // simulator. Observability is passive — it never affects event order.
  explicit Simulator(obs::Observability* obs = nullptr)
      : events_counter_(obs::counter(obs, "sim.events")) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule at an absolute time (must be >= now()).
  EventId schedule_at(SimTime t, EventFn fn);
  // Schedule `dt` seconds from now (dt >= 0).
  EventId schedule_after(Seconds dt, EventFn fn);
  void cancel(EventId id);

  // Deferred scheduling (see EventQueue::reserve_seq): take a tie-order
  // number now, file the event under it later.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventId schedule_at_seq(SimTime t, std::uint64_t seq, EventFn fn);

  // Flush `f` before the next event is popped or the clock moves. Listing a
  // component twice is harmless when its flush() is idempotent; forget()
  // drops every listing (a component destroyed with work pending).
  void defer(Flushable* f) { deferred_.push_back(f); }
  void forget(const Flushable* f);

  // Run until the event queue is empty. Returns the final time.
  SimTime run();
  // Run all events with time <= t, then set now() = t. Returns true if any
  // event fired.
  bool run_until(SimTime t);
  // Fire exactly one event if any is pending.
  bool step();

  std::size_t events_processed() const { return processed_; }

 private:
  void flush_deferred() {
    if (!deferred_.empty()) flush_all();
  }
  void flush_all();

  EventQueue queue_;
  std::vector<Flushable*> deferred_;
  SimTime now_ = 0;
  std::size_t processed_ = 0;
  obs::Counter events_counter_;
};

}  // namespace ds::sim
