#include "core/plan_serialize.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace ds::core {

namespace {

// 17 significant digits round-trip any binary64 exactly.
constexpr int kRoundTripDigits = std::numeric_limits<double>::max_digits10;

Status bad(int lineno, const std::string& what) {
  return Status::error("plan record line " + std::to_string(lineno) + ": " +
                       what);
}

bool field_double(const std::vector<std::string>& f, std::size_t i,
                  double& out) {
  return i < f.size() && parse_double(trim(f[i]), out);
}

bool field_index(const std::vector<std::string>& f, std::size_t i,
                 std::uint64_t& out) {
  return i < f.size() && parse_u64(trim(f[i]), out);
}

}  // namespace

void save_plan(const DelaySchedule& plan, std::ostream& out) {
  out.precision(kRoundTripDigits);
  out << "plan,v" << kPlanFormatVersion << '\n';
  for (std::size_t k = 0; k < plan.delay.size(); ++k)
    out << "delay," << k << ',' << plan.delay[k] << '\n';
  for (std::size_t k = 0; k < plan.predicted_stages.size(); ++k) {
    const StageTimeline& t = plan.predicted_stages[k];
    out << "stage," << k << ',' << t.ready << ',' << t.submitted << ','
        << t.read_done << ',' << t.compute_done << ',' << t.finish << '\n';
  }
  out << "makespan," << plan.predicted_makespan << '\n';
  out << "jct," << plan.predicted_jct << '\n';
  out << "search," << plan.evaluations << ',' << plan.memo_hits << '\n';
}

std::string save_plan_text(const DelaySchedule& plan) {
  std::ostringstream os;
  save_plan(plan, os);
  return os.str();
}

Status load_plan(std::istream& in, DelaySchedule* out) {
  DelaySchedule plan;
  std::string line;
  int lineno = 0;
  bool versioned = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const auto f = split(t, ',');
    const std::string_view kind = trim(f[0]);

    if (!versioned) {
      // The header must come first; anything else is not a plan record.
      if (kind != "plan" || f.size() != 2)
        return bad(lineno, "expected 'plan,v" +
                               std::to_string(kPlanFormatVersion) +
                               "' header");
      const std::string_view v = trim(f[1]);
      std::uint64_t version = 0;
      if (v.size() < 2 || v[0] != 'v' || !parse_u64(v.substr(1), version))
        return bad(lineno, "malformed version '" + std::string(v) + "'");
      if (version != static_cast<std::uint64_t>(kPlanFormatVersion))
        return Status::error(
            "plan record is format version " + std::to_string(version) +
            " but this build reads version " +
            std::to_string(kPlanFormatVersion) + " — refusing to guess");
      versioned = true;
      continue;
    }

    if (kind == "delay") {
      std::uint64_t k = 0;
      double x = 0;
      if (f.size() != 3 || !field_index(f, 1, k) || !field_double(f, 2, x))
        return bad(lineno, "delay,<stage>,<seconds>");
      if (plan.delay.size() <= k) plan.delay.resize(k + 1, 0.0);
      plan.delay[k] = x;
    } else if (kind == "stage") {
      std::uint64_t k = 0;
      StageTimeline tl;
      if (f.size() != 7 || !field_index(f, 1, k) ||
          !field_double(f, 2, tl.ready) || !field_double(f, 3, tl.submitted) ||
          !field_double(f, 4, tl.read_done) ||
          !field_double(f, 5, tl.compute_done) ||
          !field_double(f, 6, tl.finish))
        return bad(lineno, "stage,<stage>,<ready>,<submitted>,<read_done>,"
                           "<compute_done>,<finish>");
      if (plan.predicted_stages.size() <= k)
        plan.predicted_stages.resize(k + 1);
      plan.predicted_stages[k] = tl;
    } else if (kind == "makespan") {
      if (f.size() != 2 || !field_double(f, 1, plan.predicted_makespan))
        return bad(lineno, "makespan,<seconds>");
    } else if (kind == "jct") {
      if (f.size() != 2 || !field_double(f, 1, plan.predicted_jct))
        return bad(lineno, "jct,<seconds>");
    } else if (kind == "search") {
      if (f.size() != 3 || !field_index(f, 1, plan.evaluations) ||
          !field_index(f, 2, plan.memo_hits))
        return bad(lineno, "search,<evaluations>,<memo_hits>");
    } else {
      return bad(lineno, "unknown record '" + std::string(kind) + "'");
    }
  }
  if (!versioned) return Status::error("plan record is empty (no header)");
  *out = std::move(plan);
  return Status::ok();
}

Status load_plan_text(const std::string& text, DelaySchedule* out) {
  std::istringstream is(text);
  return load_plan(is, out);
}

void plan_to_json(const DelaySchedule& plan, std::ostream& out) {
  out.precision(kRoundTripDigits);
  out << "{\"version\": " << kPlanFormatVersion << ", \"delays\": [";
  for (std::size_t k = 0; k < plan.delay.size(); ++k)
    out << (k ? ", " : "") << plan.delay[k];
  out << "], \"stages\": [";
  for (std::size_t k = 0; k < plan.predicted_stages.size(); ++k) {
    const StageTimeline& t = plan.predicted_stages[k];
    out << (k ? ", " : "") << "{\"ready\": " << t.ready
        << ", \"submitted\": " << t.submitted
        << ", \"read_done\": " << t.read_done
        << ", \"compute_done\": " << t.compute_done
        << ", \"finish\": " << t.finish << "}";
  }
  out << "], \"predicted_makespan_s\": " << plan.predicted_makespan
      << ", \"predicted_jct_s\": " << plan.predicted_jct
      << ", \"evaluations\": " << plan.evaluations
      << ", \"memo_hits\": " << plan.memo_hits << "}";
}

}  // namespace ds::core
