#include "store/plan_cache.h"

#include <cmath>
#include <cstring>

namespace ds::store {

namespace {

inline void hash_mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a step, same constants as core::workload_signature.
  h ^= v;
  h *= 1099511628211ull;
}

inline std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::int32_t bandwidth_class(BytesPerSec bw) {
  if (!(bw > 0)) return -1;
  return static_cast<std::int32_t>(std::lround(4.0 * std::log2(bw)));
}

ClusterBucket bucket_of(const core::ClusterProfile& cluster) {
  ClusterBucket b;
  b.workers = cluster.num_workers;
  b.executors_per_worker = cluster.executors_per_worker;
  b.storage_nodes = cluster.num_storage_nodes;
  b.nic_class = bandwidth_class(cluster.nic_bw);
  b.disk_class = bandwidth_class(cluster.disk_bw);
  b.storage_class = bandwidth_class(cluster.storage_net_bw);
  b.congestion_class =
      static_cast<std::int32_t>(std::lround(cluster.congestion_penalty / 0.05));
  return b;
}

std::uint64_t options_digest(const core::CalculatorOptions& options) {
  std::uint64_t h = 1469598103934665603ull;
  hash_mix(h, static_cast<std::uint64_t>(options.order));
  hash_mix(h, bits_of(options.step));
  hash_mix(h, bits_of(options.slot));
  hash_mix(h, options.coarse_to_fine ? 1 : 0);
  hash_mix(h, static_cast<std::uint64_t>(options.coarse_candidates));
  hash_mix(h, static_cast<std::uint64_t>(options.sweeps));
  hash_mix(h, options.memoize ? 1 : 0);
  hash_mix(h, bits_of(options.model.quantile));
  hash_mix(h, bits_of(options.model.speculation_threshold));
  hash_mix(h, options.model.speculation ? 1 : 0);
  // The seed only reaches the planner through PathOrder::kRandom; digesting
  // it unconditionally would needlessly split cache lines per client seed.
  if (options.order == core::PathOrder::kRandom) hash_mix(h, options.seed);
  return h;
}

std::uint64_t PlanKey::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  hash_mix(h, signature);
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.workers)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.executors_per_worker)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.storage_nodes)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.nic_class)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.disk_class)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.storage_class)));
  hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  bucket.congestion_class)));
  hash_mix(h, options);
  return h;
}

PlanCache::PlanCache(Options options, obs::Observability* obs)
    : capacity_per_shard_(options.capacity_per_shard > 0
                              ? options.capacity_per_shard
                              : 1),
      hits_metric_(obs::counter(obs, "plancache.hits")),
      misses_metric_(obs::counter(obs, "plancache.misses")),
      evictions_metric_(obs::counter(obs, "plancache.evictions")),
      stale_metric_(obs::counter(obs, "plancache.stale")),
      invalidations_metric_(obs::counter(obs, "plancache.invalidations")),
      hit_rate_(obs::gauge(obs, "plancache.hit_rate")) {
  const std::size_t n = round_up_pow2(options.shards > 0 ? options.shards : 1);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const core::DelaySchedule> PlanCache::find(
    const PlanKey& key, std::uint64_t epoch) {
  const std::uint64_t h = key.hash();
  std::shared_ptr<const core::DelaySchedule> out;
  bool stale = false;
  {
    Shard& s = shard_of(h);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(h);
    if (it != s.map.end() && it->second->key == key) {
      if (it->second->epoch == epoch) {
        s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
        out = it->second->plan;
      } else {
        // Cached under an older calibration epoch: the model has drifted
        // since this plan was computed — drop it.
        s.lru.erase(it->second);
        s.map.erase(it);
        stale = true;
      }
    }
  }
  if (out != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_metric_.inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_.inc();
    if (stale) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      stale_metric_.inc();
    }
  }
  if (hit_rate_.enabled()) {
    const double hv = static_cast<double>(hits());
    const double total = hv + static_cast<double>(misses());
    hit_rate_.set(total > 0 ? hv / total : 0.0);
  }
  return out;
}

void PlanCache::insert(const PlanKey& key, std::uint64_t epoch,
                       std::shared_ptr<const core::DelaySchedule> plan) {
  const std::uint64_t h = key.hash();
  std::uint64_t evicted = 0;
  {
    Shard& s = shard_of(h);
    std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.map.find(h); it != s.map.end()) {
      // Replace in place (covers both a re-plan for the same key and the
      // astronomically unlikely 64-bit hash collision — last writer wins).
      it->second->key = key;
      it->second->epoch = epoch;
      it->second->plan = std::move(plan);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    s.lru.push_front(Entry{key, epoch, std::move(plan)});
    s.map.emplace(h, s.lru.begin());
    while (s.map.size() > capacity_per_shard_) {
      const Entry& back = s.lru.back();
      s.map.erase(back.key.hash());
      s.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    evictions_metric_.inc(evicted);
  }
}

std::size_t PlanCache::invalidate_signature(std::uint64_t signature) {
  std::size_t dropped = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.signature == signature) {
        shard->map.erase(it->key.hash());
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    invalidations_metric_.inc(dropped);
  }
  return dropped;
}

std::size_t PlanCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->map.size();
  }
  return n;
}

}  // namespace ds::store
