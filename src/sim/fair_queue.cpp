#include "sim/fair_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ds::sim {

namespace {

inline ClaimId encode_claim(std::int32_t slot, std::uint32_t gen) {
  // Low word = slot + 1 so a live id is never 0.
  return (static_cast<ClaimId>(gen) << 32) |
         (static_cast<std::uint32_t>(slot) + 1);
}

}  // namespace

FairQueue::FairQueue(Simulator& sim, BytesPerSec capacity)
    : sim_(sim), capacity_(capacity), last_advance_(sim.now()) {
  DS_CHECK_MSG(capacity > 0, "FairQueue capacity must be positive");
}

FairQueue::~FairQueue() {
  if (pending_event_ != kInvalidEvent) sim_.cancel(pending_event_);
}

std::int32_t FairQueue::lookup(ClaimId id) const {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0) return -1;
  const auto slot = static_cast<std::size_t>(low - 1);
  if (slot >= slab_.size()) return -1;
  const Claim& c = slab_[slot];
  if (!c.active || c.gen != static_cast<std::uint32_t>(id >> 32)) return -1;
  return static_cast<std::int32_t>(slot);
}

std::int32_t FairQueue::alloc_slot() {
  std::int32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::int32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Claim& c = slab_[static_cast<std::size_t>(slot)];
  c.active = true;
  c.prev = tail_;
  c.next = -1;
  if (tail_ >= 0) {
    slab_[static_cast<std::size_t>(tail_)].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++num_active_;
  return slot;
}

void FairQueue::free_slot(std::int32_t slot) {
  Claim& c = slab_[static_cast<std::size_t>(slot)];
  if (c.prev >= 0) {
    slab_[static_cast<std::size_t>(c.prev)].next = c.next;
  } else {
    head_ = c.next;
  }
  if (c.next >= 0) {
    slab_[static_cast<std::size_t>(c.next)].prev = c.prev;
  } else {
    tail_ = c.prev;
  }
  c.active = false;
  c.on_complete = nullptr;
  ++c.gen;
  free_slots_.push_back(slot);
  --num_active_;
}

ClaimId FairQueue::submit(Bytes volume, EventFn on_complete) {
  DS_CHECK_MSG(volume >= 0, "negative claim volume " << volume);
  advance_to_now();
  const std::int32_t slot = alloc_slot();
  Claim& c = slab_[static_cast<std::size_t>(slot)];
  c.remaining = volume;
  c.on_complete = std::move(on_complete);
  reschedule();
  return encode_claim(slot, c.gen);
}

void FairQueue::cancel(ClaimId id) {
  advance_to_now();
  const std::int32_t slot = lookup(id);
  if (slot >= 0) free_slot(slot);
  reschedule();
}

BytesPerSec FairQueue::current_rate() const {
  return num_active_ == 0 ? 0 : capacity_;
}

BytesPerSec FairQueue::share() const {
  return num_active_ == 0 ? capacity_
                          : capacity_ / static_cast<double>(num_active_);
}

void FairQueue::advance_to_now() {
  const SimTime now = sim_.now();
  const Seconds dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0 || num_active_ == 0) return;
  const BytesPerSec per_claim = capacity_ / static_cast<double>(num_active_);
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    Claim& c = slab_[static_cast<std::size_t>(i)];
    const Bytes used = std::min(c.remaining, per_claim * dt);
    c.remaining -= used;
    serviced_ += used;
  }
}

void FairQueue::reschedule() {
  if (pending_event_ != kInvalidEvent) {
    sim_.cancel(pending_event_);
    pending_event_ = kInvalidEvent;
  }
  if (num_active_ == 0) return;
  const BytesPerSec per_claim = capacity_ / static_cast<double>(num_active_);
  Seconds next = -1;
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    const Claim& c = slab_[static_cast<std::size_t>(i)];
    const Seconds t =
        fluid_done(c.remaining, per_claim) ? 0.0 : c.remaining / per_claim;
    if (next < 0 || t < next) next = t;
  }
  check_clock_resolves(sim_.now(), next);
  pending_event_ = sim_.schedule_after(next, [this] {
    pending_event_ = kInvalidEvent;
    on_completion_event();
  });
}

void FairQueue::on_completion_event() {
  advance_to_now();
  const BytesPerSec per_claim =
      num_active_ == 0 ? capacity_ : capacity_ / static_cast<double>(num_active_);
  // Finished claims fire in submission order (the intrusive list order). The
  // scratch vector is detached while callbacks run — they may submit new
  // claims, which re-enters the queue.
  std::vector<EventFn> done = std::move(done_scratch_);
  done.clear();
  for (std::int32_t i = head_; i >= 0;) {
    Claim& c = slab_[static_cast<std::size_t>(i)];
    const std::int32_t next = c.next;
    if (fluid_done(c.remaining, per_claim)) {
      done.push_back(std::move(c.on_complete));
      free_slot(i);
    }
    i = next;
  }
  reschedule();
  for (EventFn& fn : done) {
    if (fn) fn();
  }
  done.clear();
  done_scratch_ = std::move(done);
}

}  // namespace ds::sim
