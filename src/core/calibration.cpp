#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/check.h"
#include "util/crc32.h"

namespace ds::core {

namespace {

inline void hash_mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a step (same constants as ScoreMemo's vector hash).
  h ^= v;
  h *= 1099511628211ull;
}

inline std::uint64_t bits_of(double d) {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(d));
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

inline double double_of(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

// Store file layout: kMagic, u32 version, then records of
//   u32 payload_len | u32 crc32(payload) | payload
// where the payload is kRecordWords host-endian 8-byte words. The store is
// a node-local artifact, not a wire format, so host endianness is fine.
constexpr char kMagic[4] = {'D', 'S', 'P', 'S'};
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kRecordWords = 9;

}  // namespace

std::uint64_t workload_signature(const dag::JobDag& dag) {
  std::uint64_t h = 1469598103934665603ull;
  hash_mix(h, static_cast<std::uint64_t>(dag.num_stages()));
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    const dag::Stage& spec = dag.stage(s);
    hash_mix(h, static_cast<std::uint64_t>(spec.num_tasks));
    hash_mix(h, bits_of(spec.input_bytes));
    hash_mix(h, bits_of(spec.output_bytes));
    hash_mix(h, bits_of(spec.process_rate));
    hash_mix(h, bits_of(spec.task_skew));
    for (dag::StageId p : dag.parents(s))
      hash_mix(h, static_cast<std::uint64_t>(p));
    hash_mix(h, 0x5eedull);  // stage separator
  }
  return h;
}

PhaseObservation observe_run(const DelaySchedule& plan,
                             const engine::JobResult& result) {
  return observe_timelines(plan.predicted_stages, result);
}

PhaseObservation observe_timelines(const std::vector<StageTimeline>& predicted,
                                   const engine::JobResult& result) {
  PhaseObservation obs;
  const std::size_t n = std::min(predicted.size(), result.stages.size());
  for (std::size_t i = 0; i < n; ++i) {
    const StageTimeline& p = predicted[i];
    const engine::StageRecord& a = result.stages[i];
    // Skip stages the prediction or the run never completed, and stages the
    // fault machinery reopened (recovery time is not model error).
    if (p.finish < 0 || a.finish < 0) continue;
    if (a.resubmissions > 0 || a.tasks_rerun > 0) continue;
    if (p.submitted < 0 || a.submitted < 0) continue;
    const Seconds p_net = std::max(0.0, p.read_done - p.submitted);
    const Seconds p_cpu = std::max(0.0, p.compute_done - p.read_done);
    const Seconds p_wr = std::max(0.0, p.finish - p.compute_done);
    // A stage may finish without distinct phase marks (zero-volume phases);
    // fall back to collapsing the span into the phases that do exist.
    const Seconds a_read =
        a.last_read_done >= 0 ? a.last_read_done : a.submitted;
    const Seconds a_comp =
        a.last_compute_done >= 0 ? a.last_compute_done : a_read;
    const Seconds a_net = std::max(0.0, a_read - a.submitted);
    const Seconds a_cpu = std::max(0.0, a_comp - a_read);
    const Seconds a_wr = std::max(0.0, a.finish - a_comp);
    obs.predicted_network += p_net;
    obs.predicted_compute += p_cpu;
    obs.predicted_write += p_wr;
    obs.actual_network += a_net;
    obs.actual_compute += a_cpu;
    obs.actual_write += a_wr;
  }
  return obs;
}

ModelCalibrator::ModelCalibrator(obs::Observability* obs)
    : observations_(obs::counter(obs, "profile_store.observations")),
      drifts_(obs::counter(obs, "profile_store.drifts")),
      workloads_gauge_(obs::gauge(obs, "profile_store.workloads")) {}

bool ModelCalibrator::observe(std::uint64_t signature,
                              const PhaseObservation& obs) {
  if (!obs.usable()) return false;
  observations_.inc();
  auto fold = [](double& f, Seconds actual, Seconds predicted) {
    // No predicted span for this term (e.g. a job with zero shuffle write):
    // there is no evidence either way, keep the current factor.
    const double ratio =
        predicted <= 0 ? f
                       : std::clamp(actual / predicted, kMinFactor, kMaxFactor);
    f = std::clamp((1.0 - kCalibrationAlpha) * f + kCalibrationAlpha * ratio,
                   kMinFactor, kMaxFactor);
  };
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[signature];
  fold(e.factors.network, obs.actual_network, obs.predicted_network);
  fold(e.factors.compute, obs.actual_compute, obs.predicted_compute);
  fold(e.factors.write, obs.actual_write, obs.predicted_write);
  ++e.factors.observations;
  workloads_gauge_.set(static_cast<double>(entries_.size()));
  auto shift = [](double from, double to) {
    return from > 0 ? std::abs(to - from) / from : 0.0;
  };
  const double moved =
      std::max({shift(e.anchor.network, e.factors.network),
                shift(e.anchor.compute, e.factors.compute),
                shift(e.anchor.write, e.factors.write)});
  if (moved > kDriftThreshold) {
    ++e.epoch;
    e.anchor = e.factors;
    drifts_.inc();
    return true;
  }
  return false;
}

CalibrationFactors ModelCalibrator::factors(std::uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(signature);
  return it != entries_.end() ? it->second.factors : CalibrationFactors{};
}

std::uint64_t ModelCalibrator::epoch(std::uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(signature);
  return it != entries_.end() ? it->second.epoch : 0;
}

std::size_t ModelCalibrator::workloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Status ModelCalibrator::save(const std::string& path) const {
  std::vector<std::pair<std::uint64_t, Entry>> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted.assign(entries_.begin(), entries_.end());
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::error("profile store: cannot write " + tmp);
    out.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kFormatVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    for (const auto& [sig, e] : sorted) {
      const std::uint64_t words[kRecordWords] = {
          sig,
          e.epoch,
          static_cast<std::uint64_t>(e.factors.observations),
          bits_of(e.factors.network),
          bits_of(e.factors.compute),
          bits_of(e.factors.write),
          bits_of(e.anchor.network),
          bits_of(e.anchor.compute),
          bits_of(e.anchor.write)};
      const auto len = static_cast<std::uint32_t>(sizeof(words));
      const std::uint32_t crc = crc32(words, sizeof(words));
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
      out.write(reinterpret_cast<const char*>(words), sizeof(words));
    }
    if (!out) return Status::error("profile store: failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::error("profile store: cannot rename " + tmp + " over " +
                         path);
  return Status::ok();
}

Status ModelCalibrator::load(const std::string& path, LoadInfo* info) {
  LoadInfo local;
  LoadInfo& li = info != nullptr ? *info : local;
  li = LoadInfo{};

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Cold start: an absent store is the normal first-boot state.
    li.missing = true;
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    return Status::ok();
  }

  char magic[4] = {};
  std::uint32_t version = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::error("profile store: " + path +
                         " is not a profile store file (bad magic)");
  if (version != kFormatVersion)
    return Status::error("profile store: " + path + " is format version " +
                         std::to_string(version) + " but this build reads " +
                         std::to_string(kFormatVersion));

  std::unordered_map<std::uint64_t, Entry> loaded;
  while (true) {
    std::uint32_t len = 0, crc = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (in.gcount() == 0) break;  // clean EOF between records
    in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    std::uint64_t words[kRecordWords] = {};
    if (!in || len != sizeof(words)) {
      // A short/garbled length prefix: an interrupted append. Keep the
      // prefix read so far.
      li.truncated = true;
      ++li.discarded;
      break;
    }
    in.read(reinterpret_cast<char*>(words), sizeof(words));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(words)) ||
        crc32(words, sizeof(words)) != crc) {
      li.truncated = true;
      ++li.discarded;
      break;
    }
    Entry e;
    e.epoch = words[1];
    e.factors.observations = static_cast<int>(words[2]);
    e.factors.network = double_of(words[3]);
    e.factors.compute = double_of(words[4]);
    e.factors.write = double_of(words[5]);
    e.anchor.network = double_of(words[6]);
    e.anchor.compute = double_of(words[7]);
    e.anchor.write = double_of(words[8]);
    // Reject records a corrupted-but-crc-colliding file could smuggle in:
    // factors must be usable by calibrated_profile().
    if (!(e.factors.network > 0) || !(e.factors.compute > 0) ||
        !(e.factors.write > 0)) {
      li.truncated = true;
      ++li.discarded;
      break;
    }
    loaded[words[0]] = e;  // append-only: the last record wins
    ++li.records;
  }

  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(loaded);
  workloads_gauge_.set(static_cast<double>(entries_.size()));
  return Status::ok();
}

JobProfile calibrated_profile(const JobProfile& base,
                              const CalibrationFactors& f) {
  DS_CHECK_MSG(f.network > 0 && f.compute > 0 && f.write > 0,
               "calibration factors must be positive");
  JobProfile p = base;
  // Observed fetches ran f.network × the prediction ⇒ the usable bandwidth
  // is the profiled figure divided by f.network (both the worker NICs and
  // the storage tier scale — the slowdown is in the fabric, not one side).
  p.cluster.nic_bw = base.cluster.nic_bw / f.network;
  if (base.cluster.storage_net_bw > 0)
    p.cluster.storage_net_bw = base.cluster.storage_net_bw / f.network;
  p.compute_time_scale = base.compute_time_scale * f.compute;
  p.cluster.disk_bw = base.cluster.disk_bw / f.write;
  return p;
}

}  // namespace ds::core
