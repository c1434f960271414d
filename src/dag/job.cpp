#include "dag/job.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.h"

namespace ds::dag {

JobDag::JobDag(std::string name) : name_(std::move(name)) {}

StageId JobDag::add_stage(Stage spec) {
  DS_CHECK_MSG(spec.num_tasks > 0, "stage '" << spec.name << "' needs tasks");
  // Every builder (spec text, NDJSON workloads, trace DAGs) passes through
  // here, so an infinite or NaN input is rejected before the planner or the
  // engine can loop on it.
  DS_CHECK_MSG(std::isfinite(spec.input_bytes) &&
                   std::isfinite(spec.output_bytes) &&
                   std::isfinite(spec.process_rate) &&
                   std::isfinite(spec.task_skew),
               "non-finite volume, rate or skew in stage '" << spec.name
                                                            << "'");
  DS_CHECK_MSG(spec.input_bytes >= 0 && spec.output_bytes >= 0,
               "negative volume in stage '" << spec.name << "'");
  DS_CHECK_MSG(spec.process_rate >= 0,
               "negative process rate in stage '" << spec.name << "'");
  const StageId id = num_stages();
  stages_.push_back(std::move(spec));
  parents_.emplace_back();
  children_.emplace_back();
  analyzed_ = false;
  return id;
}

void JobDag::add_edge(StageId parent, StageId child) {
  DS_CHECK_MSG(parent >= 0 && parent < num_stages(), "bad parent " << parent);
  DS_CHECK_MSG(child >= 0 && child < num_stages(), "bad child " << child);
  DS_CHECK_MSG(parent != child, "self edge on stage " << parent);
  // Ignore duplicate edges: trace DAGs repeat dependencies freely.
  auto& kids = children_[static_cast<std::size_t>(parent)];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) return;
  kids.push_back(child);
  parents_[static_cast<std::size_t>(child)].push_back(parent);
  analyzed_ = false;
}

const Stage& JobDag::stage(StageId id) const {
  DS_CHECK_MSG(id >= 0 && id < num_stages(), "bad stage id " << id);
  return stages_[static_cast<std::size_t>(id)];
}

Stage& JobDag::mutable_stage(StageId id) {
  DS_CHECK_MSG(id >= 0 && id < num_stages(), "bad stage id " << id);
  analyzed_ = false;  // volumes don't affect structure, but stay conservative
  return stages_[static_cast<std::size_t>(id)];
}

const std::vector<StageId>& JobDag::parents(StageId id) const {
  DS_CHECK_MSG(id >= 0 && id < num_stages(), "bad stage id " << id);
  return parents_[static_cast<std::size_t>(id)];
}

const std::vector<StageId>& JobDag::children(StageId id) const {
  DS_CHECK_MSG(id >= 0 && id < num_stages(), "bad stage id " << id);
  return children_[static_cast<std::size_t>(id)];
}

void JobDag::ensure_analysis() const {
  if (analyzed_) return;
  const auto n = static_cast<std::size_t>(num_stages());

  // Kahn topological sort (also detects cycles).
  std::vector<int> indeg(n, 0);
  for (std::size_t c = 0; c < n; ++c)
    indeg[c] = static_cast<int>(parents_[c].size());
  std::deque<StageId> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push_back(static_cast<StageId>(i));
  topo_.clear();
  topo_.reserve(n);
  while (!ready.empty()) {
    const StageId s = ready.front();
    ready.pop_front();
    topo_.push_back(s);
    for (StageId c : children_[static_cast<std::size_t>(s)]) {
      if (--indeg[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    }
  }
  DS_CHECK_MSG(topo_.size() == n, "job '" << name_ << "' DAG has a cycle");

  // Ancestor closure in topological order:
  // ancestors(c) = union over parents p of {p} ∪ ancestors(p).
  ancestor_.assign(n, std::vector<bool>(n, false));
  for (StageId s : topo_) {
    for (StageId p : parents_[static_cast<std::size_t>(s)]) {
      auto& row = ancestor_[static_cast<std::size_t>(s)];
      row[static_cast<std::size_t>(p)] = true;
      const auto& prow = ancestor_[static_cast<std::size_t>(p)];
      for (std::size_t a = 0; a < n; ++a)
        if (prow[a]) row[a] = true;
    }
  }
  analyzed_ = true;
}

std::vector<StageId> JobDag::topo_order() const {
  ensure_analysis();
  return topo_;
}

bool JobDag::is_ancestor(StageId a, StageId b) const {
  DS_CHECK(a >= 0 && a < num_stages() && b >= 0 && b < num_stages());
  ensure_analysis();
  return ancestor_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)];
}

bool JobDag::can_run_in_parallel(StageId a, StageId b) const {
  if (a == b) return false;
  return !is_ancestor(a, b) && !is_ancestor(b, a);
}

std::vector<StageId> JobDag::parallel_stage_set() const {
  ensure_analysis();
  std::vector<StageId> k;
  for (StageId s : topo_) {
    for (StageId t = 0; t < num_stages(); ++t) {
      if (can_run_in_parallel(s, t)) {
        k.push_back(s);
        break;
      }
    }
  }
  return k;
}

std::vector<StageId> JobDag::sequential_stages() const {
  ensure_analysis();
  const auto k = parallel_stage_set();
  std::vector<bool> in_k(static_cast<std::size_t>(num_stages()), false);
  for (StageId s : k) in_k[static_cast<std::size_t>(s)] = true;
  std::vector<StageId> seq;
  for (StageId s : topo_)
    if (!in_k[static_cast<std::size_t>(s)]) seq.push_back(s);
  return seq;
}

std::vector<StageId> JobDag::sources() const {
  std::vector<StageId> out;
  for (StageId s = 0; s < num_stages(); ++s)
    if (parents(s).empty()) out.push_back(s);
  return out;
}

std::vector<StageId> JobDag::sinks() const {
  std::vector<StageId> out;
  for (StageId s = 0; s < num_stages(); ++s)
    if (children(s).empty()) out.push_back(s);
  return out;
}

Bytes JobDag::total_input_bytes() const {
  Bytes total = 0;
  for (const auto& s : stages_) total += s.input_bytes;
  return total;
}

}  // namespace ds::dag
