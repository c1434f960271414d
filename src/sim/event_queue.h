// Allocation-free cancellable event core.
//
// The previous queue was a binary priority_queue of ids next to an
// unordered_map<id, std::function> with lazy deletion: every push heap-
// allocated a map node (and usually a std::function control block), every
// cancel left a dead entry in the heap until its time drained past, and
// size() counted only the map — the heap could grow without bound under
// schedule/cancel churn (exactly what the fabric's completion re-filing
// produced: roughly half of all pushed events were cancelled before firing).
//
// This core keeps three flat arrays instead:
//
//   * a slab of cache-line-aligned Nodes (callback + generation + heap
//     position), recycled through a free list — steady state allocates
//     nothing per event, and slab capacity is bounded by the peak number of
//     *concurrently pending* events, not by total churn;
//   * an indexed 4-ary min-heap of 24-byte (time, seq, slot) entries —
//     sift comparisons touch only this dense array, never the slab;
//   * a free list of slab slots.
//
// Handles are generation-tagged: an EventId encodes (slot, generation), and
// cancel() on a stale handle (already fired, already cancelled, or a
// recycled slot) is a safe no-op. cancel() *truly removes* the entry (swap
// with the heap tail and re-sift), so size() is exact and a cancelled
// event's callback is destroyed immediately.
//
// Ordering contract (unchanged, bit-exact vs the old queue): events fire in
// ascending time, ties broken by insertion order via a monotonically
// increasing sequence number. A push_at_seq() event ties as if it had been
// pushed when its number was reserved.
//
// Callbacks are InlineFunction (see util/inline_function.h): any capture
// list up to kEventFnCapacity bytes — all of sim/engine/fault — is stored
// inline in the node.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/inline_function.h"

namespace ds::sim {

// Sized so every scheduling lambda in sim/, engine/ and the fault injector
// fits inline (largest today: 32 bytes); bigger callables fall back to the
// heap without losing correctness (tests pin the fallback count to zero).
inline constexpr std::size_t kEventFnCapacity = 40;
using EventFn = util::InlineFunction<void(), kEventFnCapacity>;

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedule `fn` at absolute time `t`. Events at equal times fire in
  // insertion order. Returns a handle usable with cancel().
  EventId push(SimTime t, EventFn fn) {
    return push_at_seq(t, next_seq_++, std::move(fn));
  }

  // Take the next insertion number without filing anything. A caller that
  // defers a push (the fabric's once-per-instant completion event) takes its
  // place in the equal-time tie order now and files the event later with
  // push_at_seq(). An unused number only leaves a gap, which no tie sees.
  std::uint64_t reserve_seq() { return next_seq_++; }
  // push() under a number taken earlier from reserve_seq().
  EventId push_at_seq(SimTime t, std::uint64_t seq, EventFn&& fn);

  // Cancel a pending event: removed from the heap immediately, callback
  // destroyed, slot recycled. Cancelling an already-fired, already-cancelled
  // or unknown id is a no-op (callers commonly cancel their "next
  // completion" event eagerly). Returns whether the event was live.
  bool cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  // Exact: cancelled events leave the queue the moment they are cancelled.
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  SimTime next_time() const;

  // Remove and return the earliest event's callback, setting `t` to its time.
  EventFn pop(SimTime& t);

  // Slab capacity in nodes — bounded by the peak number of concurrently
  // pending events, never by schedule/cancel churn (regression-tested).
  std::size_t slab_capacity() const { return slab_.size(); }

 private:
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // One cache line: 40-byte inline callback + 2 words of dispatch + tag.
  struct alignas(64) Node {
    EventFn fn;
    std::uint32_t gen = 1;      // bumped on every free; tags handles
    std::int32_t heap_pos = -1; // -1 = free
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  // Detach heap_[pos] (the caller already consumed it) and free its slot.
  void remove_at(std::size_t pos);

  std::vector<HeapEntry> heap_;
  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ds::sim
