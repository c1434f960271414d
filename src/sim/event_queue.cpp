#include "sim/event_queue.h"

#include <utility>

#include "util/check.h"

namespace ds::sim {

namespace {

constexpr std::size_t kArity = 4;  // shallow heap, 24-byte entries: 4 wins

inline EventId encode(std::uint32_t slot, std::uint32_t gen) {
  // Low word = slot + 1 so a valid id can never collide with kInvalidEvent.
  return (static_cast<EventId>(gen) << 32) | (slot + 1);
}

}  // namespace

EventId EventQueue::push_at_seq(SimTime t, std::uint64_t seq, EventFn&& fn) {
  DS_CHECK_MSG(static_cast<bool>(fn), "scheduling a null event callback");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Node& n = slab_[slot];
  n.fn = std::move(fn);
  n.heap_pos = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(HeapEntry{t, seq, slot});
  sift_up(heap_.size() - 1);
  return encode(slot, n.gen);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0) return false;  // kInvalidEvent or malformed
  const auto slot = static_cast<std::uint32_t>(low - 1);
  if (slot >= slab_.size()) return false;
  Node& n = slab_[slot];
  if (n.heap_pos < 0 || n.gen != static_cast<std::uint32_t>(id >> 32))
    return false;  // already fired/cancelled, or the slot was recycled
  remove_at(static_cast<std::size_t>(n.heap_pos));
  return true;
}

SimTime EventQueue::next_time() const {
  DS_CHECK_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().t;
}

EventFn EventQueue::pop(SimTime& t) {
  DS_CHECK_MSG(!heap_.empty(), "pop() on empty queue");
  const HeapEntry top = heap_.front();
  EventFn fn = std::move(slab_[top.slot].fn);
  t = top.t;
  remove_at(0);
  return fn;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slab_[e.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::int32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slab_[e.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void EventQueue::remove_at(std::size_t pos) {
  Node& n = slab_[heap_[pos].slot];
  n.fn = nullptr;  // destroy the callback now (pop already moved it out)
  n.heap_pos = -1;
  ++n.gen;  // retire every outstanding handle to this slot
  free_.push_back(heap_[pos].slot);

  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::int32_t>(pos);
    heap_.pop_back();
    // The moved tail entry may belong above or below `pos`. After
    // sift_down, whatever sits at `pos` (the tail entry, or a promoted
    // child — which by the heap property already satisfies its parent) can
    // only violate upward, so the follow-up sift_up is a no-op in all but
    // the moved-up case.
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

}  // namespace ds::sim
