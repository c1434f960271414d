#include "trace/alibaba.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace ds::trace {

namespace {

struct RawTask {
  int task_num = -1;           // -1: independent task without DAG encoding
  std::vector<int> parents;    // task numbers
  std::string name;
  int instances = 1;
  Seconds start = 0;
  Seconds end = 0;
};

// Task numbers, instance counts and stage indices are ints.
constexpr auto kMaxInt =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());

// Decode "R3_1" style names: leading letters, a task number, then parent
// numbers separated by underscores, into `numbers` (task number first).
// Returns false for non-conforming names.
bool decode_task_name(std::string_view name,
                      std::vector<std::uint64_t>& numbers) {
  std::size_t i = 0;
  while (i < name.size() && std::isalpha(static_cast<unsigned char>(name[i])))
    ++i;
  if (i == 0 || i >= name.size()) return false;
  numbers.clear();
  for (const std::string& field : split(name.substr(i), '_')) {
    // Some task names carry trailing non-numeric annotations; stop there.
    std::uint64_t v = 0;
    if (!parse_u64(field, v)) return false;
    numbers.push_back(v);
  }
  return true;
}

}  // namespace

std::vector<TraceJob> parse_batch_task(std::istream& in,
                                       AlibabaParseStats* stats) {
  AlibabaParseStats local;
  std::map<std::string, std::vector<RawTask>> jobs;

  std::string line;
  std::vector<std::uint64_t> numbers;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    ++local.rows;
    const auto f = split(trimmed, ',');
    if (f.size() < 7) {
      ++local.bad_rows;
      continue;
    }
    RawTask t;
    t.name = f[0];
    std::uint64_t inst = 1;
    if (parse_u64(trim(f[1]), inst)) {
      if (inst > kMaxInt) {
        ++local.bad_rows;
        continue;
      }
      t.instances = static_cast<int>(inst);
    }
    const std::string& job_name = f[2];
    double start = 0, end = 0;
    if (!parse_double(trim(f[5]), start) || !parse_double(trim(f[6]), end) ||
        !std::isfinite(start) || !std::isfinite(end)) {
      ++local.bad_rows;
      continue;
    }
    t.start = start;
    t.end = end;
    if (decode_task_name(t.name, numbers)) {
      if (*std::max_element(numbers.begin(), numbers.end()) > kMaxInt) {
        ++local.bad_rows;
        continue;
      }
      t.task_num = static_cast<int>(numbers.front());
      t.parents.assign(numbers.begin() + 1, numbers.end());
    }
    jobs[job_name].push_back(std::move(t));
  }

  std::vector<TraceJob> out;
  out.reserve(jobs.size());
  for (auto& [job_name, tasks] : jobs) {
    ++local.jobs;
    // Drop jobs with missing timestamps (incomplete within the trace span).
    bool ok = true;
    Seconds submit = -1;
    for (const auto& t : tasks) {
      if (t.end <= 0 || t.start <= 0 || t.end < t.start) ok = false;
      if (submit < 0 || t.start < submit) submit = t.start;
    }
    if (!ok) {
      ++local.dropped_jobs;
      continue;
    }

    TraceJob job;
    job.name = job_name;
    job.submit_time = submit;
    // Map task numbers to stage indices (independent tasks get fresh ids).
    std::map<int, int> num_to_idx;
    for (const auto& t : tasks) {
      const int idx = static_cast<int>(job.stages.size());
      if (t.task_num >= 0) num_to_idx[t.task_num] = idx;
      TraceStage s;
      s.name = t.name;
      s.num_tasks = std::max(1, t.instances);
      const Seconds dur = t.end - t.start;
      s.read_solo = dur * kBatchTaskReadFrac;
      s.write_solo = dur * kBatchTaskWriteFrac;
      s.compute_solo = dur - s.read_solo - s.write_solo;
      job.stages.push_back(std::move(s));
    }
    bool edges_ok = true;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (int p : tasks[i].parents) {
        const auto it = num_to_idx.find(p);
        if (it == num_to_idx.end()) {
          edges_ok = false;  // dangling dependency
          break;
        }
        job.stages[i].parents.push_back(it->second);
      }
    }
    if (!edges_ok) {
      ++local.dropped_jobs;
      continue;
    }
    // Reject cyclic dependency encodings (Kahn's algorithm).
    {
      const auto n = job.stages.size();
      std::vector<int> indeg(n, 0);
      std::vector<std::vector<int>> kids(n);
      for (std::size_t c = 0; c < n; ++c) {
        indeg[c] = static_cast<int>(job.stages[c].parents.size());
        for (int p : job.stages[c].parents)
          kids[static_cast<std::size_t>(p)].push_back(static_cast<int>(c));
      }
      std::vector<int> ready_q;
      for (std::size_t i = 0; i < n; ++i)
        if (indeg[i] == 0) ready_q.push_back(static_cast<int>(i));
      std::size_t seen = 0;
      while (!ready_q.empty()) {
        const int s = ready_q.back();
        ready_q.pop_back();
        ++seen;
        for (int c : kids[static_cast<std::size_t>(s)])
          if (--indeg[static_cast<std::size_t>(c)] == 0) ready_q.push_back(c);
      }
      if (seen != n) {
        ++local.dropped_jobs;
        continue;
      }
    }
    out.push_back(std::move(job));
  }

  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<TraceJob> parse_batch_task_text(const std::string& text,
                                            AlibabaParseStats* stats) {
  std::istringstream is(text);
  return parse_batch_task(is, stats);
}

std::vector<TraceJob> parse_batch_task_file(const std::string& path,
                                            AlibabaParseStats* stats) {
  std::ifstream is(path);
  DS_CHECK_MSG(is.good(), "cannot open trace file " << path);
  return parse_batch_task(is, stats);
}

void write_batch_task(const std::vector<TraceJob>& jobs, std::ostream& out) {
  const auto old_precision = out.precision(15);
  for (const TraceJob& job : jobs) {
    for (std::size_t s = 0; s < job.stages.size(); ++s) {
      const TraceStage& st = job.stages[s];
      // Task name: operator letter + 1-based task number + parent numbers.
      out << (st.parents.empty() ? 'M' : 'J') << (s + 1);
      for (int p : st.parents) out << '_' << (p + 1);
      const Seconds dur = st.read_solo + st.compute_solo + st.write_solo;
      // The writer serialises each stage at the job's submit time; relative
      // stage timing is reconstructed by any replayer from the DAG anyway.
      out << ',' << st.num_tasks << ',' << job.name << ",ODPS,Terminated,"
          << job.submit_time << ',' << job.submit_time + dur << ",100,0.5\n";
    }
  }
  out.precision(old_precision);
}

std::string write_batch_task_text(const std::vector<TraceJob>& jobs) {
  std::ostringstream os;
  write_batch_task(jobs, os);
  return os.str();
}

}  // namespace ds::trace
