#include "sim/executor_pool.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace ds::sim {

ExecutorPool::ExecutorPool(Simulator& sim, std::vector<int> slots_per_node,
                           obs::Observability* obs)
    : sim_(sim),
      slots_(std::move(slots_per_node)),
      requests_(obs::counter(obs, "exec.requests")),
      grants_(obs::counter(obs, "exec.grants")),
      queued_gauge_(obs::gauge(obs, "exec.queued")),
      wait_seconds_(obs::histogram(obs, "exec.wait_seconds", 0.1, 2.0, 20)) {
  DS_CHECK_MSG(!slots_.empty(), "executor pool needs at least one node");
  for (int s : slots_) DS_CHECK_MSG(s >= 0, "negative slot count");
  busy_.assign(slots_.size(), 0);
  offline_.assign(slots_.size(), false);
}

SlotRequestId ExecutorPool::request(GrantFn granted, NodeId pinned_node,
                                    int priority) {
  DS_CHECK(static_cast<bool>(granted));
  if (pinned_node >= 0)
    DS_CHECK_MSG(pinned_node < num_nodes(), "pinned node out of range");
  const SlotRequestId id = next_id_++;
  // Insert before the first waiter with a strictly larger priority value:
  // lowest priority first, FIFO within a level (ids ascend).
  auto it = waiters_.end();
  while (it != waiters_.begin() && std::prev(it)->priority > priority) --it;
  waiters_.insert(
      it, Waiter{id, std::move(granted), pinned_node, priority, sim_.now()});
  requests_.inc();
  queued_gauge_.set(static_cast<double>(waiters_.size()));
  pump();
  return id;
}

void ExecutorPool::cancel(SlotRequestId id) {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (it->id == id) {
      waiters_.erase(it);
      queued_gauge_.set(static_cast<double>(waiters_.size()));
      return;
    }
  }
}

void ExecutorPool::release(NodeId node) {
  DS_CHECK_MSG(!offline(node), "release on offline node " << node);
  auto& b = busy_.at(static_cast<std::size_t>(node));
  DS_CHECK_MSG(b > 0, "release on node " << node << " with no busy slots");
  --b;
  pump();
}

void ExecutorPool::crash_node(NodeId node) {
  DS_CHECK_MSG(node >= 0 && node < num_nodes(), "crash_node out of range");
  DS_CHECK_MSG(!offline(node), "crash_node on already-offline node " << node);
  offline_[static_cast<std::size_t>(node)] = true;
  busy_[static_cast<std::size_t>(node)] = 0;
}

void ExecutorPool::restore_node(NodeId node) {
  DS_CHECK_MSG(node >= 0 && node < num_nodes(), "restore_node out of range");
  DS_CHECK_MSG(offline(node), "restore_node on live node " << node);
  DS_CHECK(busy_[static_cast<std::size_t>(node)] == 0);
  offline_[static_cast<std::size_t>(node)] = false;
  pump();
}

int ExecutorPool::total_slots() const {
  return std::accumulate(slots_.begin(), slots_.end(), 0);
}

int ExecutorPool::total_busy() const {
  return std::accumulate(busy_.begin(), busy_.end(), 0);
}

void ExecutorPool::pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  // Grants run as a zero-delay event: keeps the call stack flat when a
  // completion releases a slot that immediately feeds the next task.
  sim_.schedule_after(0, [this] {
    pump_scheduled_ = false;
    // Decide all grants first, then fire callbacks: a callback may re-enter
    // request()/release(), which must not invalidate our iteration. The
    // scratch vector is detached while callbacks run.
    std::vector<std::pair<GrantFn, NodeId>> grants = std::move(grants_scratch_);
    grants.clear();
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      NodeId target = -1;
      if (it->pinned_node >= 0) {
        if (free_slots(it->pinned_node) > 0) target = it->pinned_node;
      } else {
        int best_free = 0;
        for (NodeId n = 0; n < num_nodes(); ++n) {
          if (free_slots(n) > best_free) {
            best_free = free_slots(n);
            target = n;
          }
        }
      }
      if (target < 0) {
        ++it;
        continue;
      }
      ++busy_[static_cast<std::size_t>(target)];
      grants_.inc();
      wait_seconds_.observe(sim_.now() - it->requested_at);
      grants.emplace_back(std::move(it->granted), target);
      it = waiters_.erase(it);
    }
    queued_gauge_.set(static_cast<double>(waiters_.size()));
    for (auto& [granted, node] : grants) granted(node);
    grants.clear();
    grants_scratch_ = std::move(grants);
  });
}

}  // namespace ds::sim
