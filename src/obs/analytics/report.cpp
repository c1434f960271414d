#include "obs/analytics/report.h"

#include <fstream>
#include <iostream>

#include "util/json.h"

namespace ds::obs::analytics {

namespace {

void term_json(std::ostream& os, const char* key, const TermDrift& t) {
  os << '"' << key
     << "\": {\"predicted_s\": " << json::number(t.predicted, 10)
     << ", \"actual_s\": " << json::number(t.actual, 10)
     << ", \"residual_s\": " << json::number(t.residual(), 10)
     << ", \"rel_error\": " << json::number(t.rel_error, 10) << '}';
}

void summary_json(std::ostream& os, const char* key, const DriftSummary& s) {
  os << '"' << key << "\": {\"count\": " << s.count
     << ", \"mean\": " << json::number(s.mean, 10)
     << ", \"p50\": " << json::number(s.p50, 10)
     << ", \"p90\": " << json::number(s.p90, 10)
     << ", \"max\": " << json::number(s.max, 10) << '}';
}

void timeline_json(std::ostream& os, const char* key,
                   const ResourceTimeline& t) {
  os << '"' << key << "\": {\"busy_s\": " << json::number(t.busy_seconds, 10)
     << ", \"idle_s\": " << json::number(t.idle_seconds, 10)
     << ", \"busy_fraction\": " << json::number(t.busy_fraction, 10)
     << ", \"idle_fraction\": " << json::number(t.idle_fraction, 10) << '}';
}

void worker_json(std::ostream& os, const WorkerInterleaving& w,
                 const char* indent) {
  os << "{\n" << indent << "  \"pid\": " << w.pid << ",\n" << indent << "  ";
  timeline_json(os, "network", w.network);
  os << ",\n" << indent << "  ";
  timeline_json(os, "cpu", w.cpu);
  os << ",\n" << indent << "  ";
  timeline_json(os, "disk", w.disk);
  os << ",\n"
     << indent << "  \"overlap_s\": " << json::number(w.net_cpu_overlap, 10)
     << ",\n"
     << indent
     << "  \"overlap_fraction\": " << json::number(w.overlap_fraction, 10)
     << ",\n"
     << indent
     << "  \"interleaving_score\": " << json::number(w.interleaving_score, 10)
     << "\n" << indent << '}';
}

void drift_json(std::ostream& os, const DriftReport& d) {
  os << "{\n    \"stages\": [";
  for (std::size_t i = 0; i < d.stages.size(); ++i) {
    const StageDrift& s = d.stages[i];
    os << (i == 0 ? "" : ",") << "\n      {\"stage\": " << s.stage
       << ", \"name\": ";
    json::write_string(os, s.name);
    os << ", \"delay_s\": " << json::number(s.delay, 10) << ",\n       ";
    term_json(os, "network", s.network);
    os << ",\n       ";
    term_json(os, "compute", s.compute);
    os << ",\n       ";
    term_json(os, "write", s.write);
    os << ",\n       ";
    term_json(os, "duration", s.duration);
    os << '}';
  }
  os << (d.stages.empty() ? "" : "\n    ") << "],\n    ";
  summary_json(os, "network", d.network);
  os << ",\n    ";
  summary_json(os, "compute", d.compute);
  os << ",\n    ";
  summary_json(os, "write", d.write);
  os << ",\n    ";
  summary_json(os, "duration", d.duration);
  os << ",\n    \"warnings\": [";
  for (std::size_t i = 0; i < d.warnings.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    json::write_string(os, d.warnings[i]);
  }
  os << "]\n  }";
}

void interleaving_json(std::ostream& os, const InterleavingReport& r) {
  os << "{\n    \"horizon_s\": " << json::number(r.horizon, 10)
     << ",\n    \"workers\": [";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n      ";
    worker_json(os, r.workers[i], "      ");
  }
  os << (r.workers.empty() ? "" : "\n    ") << "],\n    \"cluster\": ";
  worker_json(os, r.cluster, "    ");
  os << "\n  }";
}

void fleet_util_json(std::ostream& os, const FleetUtilization& f) {
  os << "\"jobs\": " << f.jobs << ",\n      \"mean_jct_s\": "
     << json::number(f.mean_jct_s, 10)
     << ",\n      \"mean_dedicated_s\": "
     << json::number(f.mean_dedicated_s, 10)
     << ",\n      \"cluster_cpu_pct\": " << json::number(f.cluster_cpu_pct, 10)
     << ",\n      \"cluster_net_pct\": " << json::number(f.cluster_net_pct, 10)
     << ",\n      \"job_cpu_pct\": " << json::number(f.job_cpu_pct, 10)
     << ",\n      \"job_net_pct\": " << json::number(f.job_net_pct, 10)
     << ",\n      \"job_cpu_idle_pct\": "
     << json::number(f.job_cpu_idle_pct, 10)
     << ",\n      \"job_net_idle_pct\": "
     << json::number(f.job_net_idle_pct, 10)
     << ",\n      \"job_cpu_p50\": " << json::number(f.job_cpu_p50, 10)
     << ",\n      \"job_cpu_p90\": " << json::number(f.job_cpu_p90, 10)
     << ",\n      \"job_net_p50\": " << json::number(f.job_net_p50, 10)
     << ",\n      \"job_net_p90\": " << json::number(f.job_net_p90, 10)
     << ",\n      \"mean_planned_delay_s\": "
     << json::number(f.mean_planned_delay_s, 10);
}

// CSV field orders are part of the pinned schema — keep in sync with the
// header comments below and the golden test.
void worker_csv_row(std::ostream& os, const WorkerInterleaving& w) {
  os << w.pid;
  for (const double v :
       {w.network.busy_seconds, w.network.idle_fraction, w.cpu.busy_seconds,
        w.cpu.idle_fraction, w.disk.busy_seconds, w.disk.idle_fraction,
        w.net_cpu_overlap, w.overlap_fraction, w.interleaving_score})
    os << ',' << json::number(v, 10);
  os << '\n';
}

}  // namespace

FleetJobRow to_row(const trace::ReplayJobResult& j) {
  FleetJobRow r;
  r.submit = j.submit;
  r.jct = j.jct;
  r.dedicated = j.dedicated_time;
  r.cpu_util_pct = 100.0 * j.cpu_util;
  r.net_util_pct = 100.0 * j.net_util;
  r.planned_delay = j.planned_delay;
  return r;
}

FleetStrategyReport fleet_strategy_report(const std::string& strategy,
                                          const trace::ReplayResult& result,
                                          bool keep_jobs) {
  FleetStrategyReport rep;
  rep.strategy = strategy;
  rep.util = fleet_utilization(result);
  if (keep_jobs) {
    rep.jobs.reserve(result.jobs.size());
    for (const auto& j : result.jobs) rep.jobs.push_back(to_row(j));
  }
  return rep;
}

void write_json(std::ostream& os, const JobReport& report) {
  os << "{\n  \"job\": ";
  json::write_string(os, report.job);
  os << ",\n  \"strategy\": ";
  json::write_string(os, report.strategy);
  os << ",\n  \"jct_s\": " << json::number(report.jct_s, 10)
     << ",\n  \"predicted_makespan_s\": "
     << json::number(report.predicted_makespan_s, 10) << ",\n  \"drift\": ";
  drift_json(os, report.drift);
  os << ",\n  \"interleaving\": ";
  interleaving_json(os, report.interleaving);
  os << "\n}\n";
}

void write_json(std::ostream& os, const FleetReport& report) {
  os << "{\n  \"trace\": ";
  json::write_string(os, report.trace);
  os << ",\n  \"strategies\": [";
  for (std::size_t i = 0; i < report.strategies.size(); ++i) {
    const FleetStrategyReport& s = report.strategies[i];
    os << (i == 0 ? "" : ",") << "\n    {\n      \"strategy\": ";
    json::write_string(os, s.strategy);
    os << ",\n      ";
    fleet_util_json(os, s.util);
    os << ",\n      \"jobs_detail\": [";
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      const FleetJobRow& r = s.jobs[j];
      os << (j == 0 ? "" : ",")
         << "\n        {\"submit_s\": " << json::number(r.submit, 10)
         << ", \"jct_s\": " << json::number(r.jct, 10)
         << ", \"dedicated_s\": " << json::number(r.dedicated, 10)
         << ", \"cpu_util_pct\": " << json::number(r.cpu_util_pct, 10)
         << ", \"net_util_pct\": " << json::number(r.net_util_pct, 10)
         << ", \"planned_delay_s\": " << json::number(r.planned_delay, 10)
         << '}';
    }
    os << (s.jobs.empty() ? "" : "\n      ") << "]\n    }";
  }
  os << (report.strategies.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_csv(std::ostream& os, const JobReport& report) {
  os << "# drift\n"
     << "job,strategy,stage,name,delay_s,term,predicted_s,actual_s,"
        "residual_s,rel_error\n";
  for (const StageDrift& s : report.drift.stages) {
    const struct {
      const char* name;
      const TermDrift* t;
    } terms[] = {{"network", &s.network},
                 {"compute", &s.compute},
                 {"write", &s.write},
                 {"duration", &s.duration}};
    for (const auto& [tname, t] : terms) {
      os << report.job << ',' << report.strategy << ',' << s.stage << ','
         << s.name << ',' << json::number(s.delay, 10) << ',' << tname;
      for (const double v :
           {t->predicted, t->actual, t->residual(), t->rel_error})
        os << ',' << json::number(v, 10);
      os << '\n';
    }
  }
  os << "\n# interleaving\n"
     << "pid,net_busy_s,net_idle_fraction,cpu_busy_s,cpu_idle_fraction,"
        "disk_busy_s,disk_idle_fraction,overlap_s,overlap_fraction,"
        "interleaving_score\n";
  for (const WorkerInterleaving& w : report.interleaving.workers)
    worker_csv_row(os, w);
  worker_csv_row(os, report.interleaving.cluster);
}

void write_csv(std::ostream& os, const FleetReport& report) {
  os << "# fleet\n"
     << "strategy,jobs,mean_jct_s,mean_dedicated_s,cluster_cpu_pct,"
        "cluster_net_pct,job_cpu_pct,job_net_pct,job_cpu_idle_pct,"
        "job_net_idle_pct,job_cpu_p50,job_cpu_p90,job_net_p50,job_net_p90,"
        "mean_planned_delay_s\n";
  for (const FleetStrategyReport& s : report.strategies) {
    const FleetUtilization& f = s.util;
    os << s.strategy << ',' << f.jobs;
    for (const double v :
         {f.mean_jct_s, f.mean_dedicated_s, f.cluster_cpu_pct,
          f.cluster_net_pct, f.job_cpu_pct, f.job_net_pct, f.job_cpu_idle_pct,
          f.job_net_idle_pct, f.job_cpu_p50, f.job_cpu_p90, f.job_net_p50,
          f.job_net_p90, f.mean_planned_delay_s})
      os << ',' << json::number(v, 10);
    os << '\n';
  }
  bool any_jobs = false;
  for (const FleetStrategyReport& s : report.strategies)
    any_jobs = any_jobs || !s.jobs.empty();
  if (!any_jobs) return;
  os << "\n# jobs\n"
     << "strategy,submit_s,jct_s,dedicated_s,cpu_util_pct,net_util_pct,"
        "planned_delay_s\n";
  for (const FleetStrategyReport& s : report.strategies) {
    for (const FleetJobRow& r : s.jobs) {
      os << s.strategy;
      for (const double v : {r.submit, r.jct, r.dedicated, r.cpu_util_pct,
                             r.net_util_pct, r.planned_delay})
        os << ',' << json::number(v, 10);
      os << '\n';
    }
  }
}

namespace {

bool is_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

template <typename Report>
bool write_file(const std::string& path, const Report& report) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not open report file " << path << "\n";
    return false;
  }
  if (is_csv(path)) {
    write_csv(out, report);
  } else {
    write_json(out, report);
  }
  return true;
}

}  // namespace

bool write_report_file(const std::string& path, const JobReport& report) {
  return write_file(path, report);
}

bool write_report_file(const std::string& path, const FleetReport& report) {
  return write_file(path, report);
}

}  // namespace ds::obs::analytics
