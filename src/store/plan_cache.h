// Sharded, bounded memoization of DelaySchedule by (workload signature,
// cluster-state bucket, planner-options digest) — the warm path of
// plan-as-a-service.
//
// Keys deliberately quantize cluster state: worker/executor/storage counts
// enter exactly, bandwidths as quarter-octave log2 classes (~19% wide) and
// the congestion penalty in 0.05 steps, so the slowly-moving measured
// bandwidths of a live cluster keep hitting the same plan until the cluster
// *meaningfully* changes. A cached plan also carries the calibration epoch
// (core::ModelCalibrator) it was computed under; a lookup presenting a newer
// epoch drops the entry (counted as `stale`) — that is the drift signal
// invalidating plans whose model moved.
//
// Concurrency: striped locks — the key hash picks a shard, each shard is an
// independent mutex + hash map + intrusive LRU list with its own capacity
// bound. Hits move the entry to the front; eviction pops the back. Values
// are shared_ptr<const DelaySchedule>, so a hit is a pointer copy and plans
// stay alive for callers even if evicted mid-flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/delay_calculator.h"
#include "core/profile.h"
#include "obs/obs.h"

namespace ds::store {

// Quantized cluster state. Equal buckets ⇒ the planner would be handed an
// equivalent-enough profile that one plan serves both.
struct ClusterBucket {
  std::int32_t workers = 0;
  std::int32_t executors_per_worker = 0;
  std::int32_t storage_nodes = 0;
  std::int32_t nic_class = -1;      // quarter-octave log2 of nic_bw
  std::int32_t disk_class = -1;
  std::int32_t storage_class = -1;  // storage_net_bw (measured tier egress)
  std::int32_t congestion_class = 0;  // β in 0.05 steps

  bool operator==(const ClusterBucket&) const = default;
};

// Quarter-octave bandwidth class: round(4·log2(bw)); -1 for "unset" (<= 0).
std::int32_t bandwidth_class(BytesPerSec bw);
ClusterBucket bucket_of(const core::ClusterProfile& cluster);

// Digest of the CalculatorOptions fields that change the planner's output
// (grid widths, search shape, model posture, seed when the order is random).
// Plans computed under different options never alias.
std::uint64_t options_digest(const core::CalculatorOptions& options);

struct PlanKey {
  std::uint64_t signature = 0;  // core::workload_signature of the DAG
  ClusterBucket bucket;
  std::uint64_t options = 0;  // options_digest

  bool operator==(const PlanKey&) const = default;
  std::uint64_t hash() const;
};

class PlanCache {
 public:
  // Upper bound on Options::shards (each shard is a mutex and an LRU list).
  static constexpr std::size_t kMaxShards = std::size_t{1} << 20;

  struct Options {
    // Rounded up to a power of two; 0 means 1, above kMaxShards is a
    // CheckError. One mutex per shard.
    std::size_t shards = 16;
    // LRU bound per shard; total capacity = shards × capacity_per_shard.
    std::size_t capacity_per_shard = 64;
  };

  // (No `= {}` default for `options`: GCC rejects brace-init default args of
  // nested aggregates with member initializers — pass Options{} explicitly.)
  explicit PlanCache(Options options, obs::Observability* obs = nullptr);

  // Returns the cached plan iff present *and* cached under `epoch`; an
  // entry from an older epoch is dropped (stale) and reported as a miss.
  std::shared_ptr<const core::DelaySchedule> find(const PlanKey& key,
                                                  std::uint64_t epoch);
  // Inserts (front of LRU), evicting the shard's least-recently-used entry
  // when full. An existing entry for the key is replaced.
  void insert(const PlanKey& key, std::uint64_t epoch,
              std::shared_ptr<const core::DelaySchedule> plan);

  // Drop every plan cached for a workload signature (drift invalidation
  // independent of epoch bookkeeping). Returns the number dropped.
  std::size_t invalidate_signature(std::uint64_t signature);

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale() const { return stale_.load(std::memory_order_relaxed); }
  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    PlanKey key;
    std::uint64_t epoch = 0;
    std::shared_ptr<const core::DelaySchedule> plan;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;
  };

  Shard& shard_of(std::uint64_t hash) {
    return *shards_[hash & shard_mask_];
  }

  std::size_t capacity_per_shard_;
  std::uint64_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  obs::Counter hits_metric_;
  obs::Counter misses_metric_;
  obs::Counter evictions_metric_;
  obs::Counter stale_metric_;
  obs::Counter invalidations_metric_;
  obs::Gauge hit_rate_;
};

}  // namespace ds::store
