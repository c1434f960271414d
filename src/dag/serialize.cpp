#include "dag/serialize.h"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace ds::dag {

JobDag load_job_spec(std::istream& in) {
  JobDag job("job");
  std::string line;
  int lineno = 0;
  bool renamed = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const auto f = split(t, ',');
    const std::string_view kind = trim(f[0]);

    if (kind == "job") {
      DS_CHECK_MSG(f.size() == 2, "line " << lineno << ": job,<name>");
      DS_CHECK_MSG(!renamed, "line " << lineno << ": duplicate job line");
      job = JobDag(std::string(trim(f[1])));
      renamed = true;
    } else if (kind == "stage") {
      DS_CHECK_MSG(f.size() == 7,
                   "line " << lineno
                           << ": stage,<name>,<tasks>,<input_gb>,<rate_mbps>,"
                              "<output_gb>,<skew>");
      Stage s;
      s.name = std::string(trim(f[1]));
      std::uint64_t tasks = 0;
      DS_CHECK_MSG(parse_u64(trim(f[2]), tasks) && tasks > 0 &&
                       tasks <= static_cast<std::uint64_t>(
                                    std::numeric_limits<int>::max()),
                   "line " << lineno << ": bad task count");
      s.num_tasks = static_cast<int>(tasks);
      double in_gb = 0, rate = 0, out_gb = 0, skew = 0;
      DS_CHECK_MSG(parse_double(trim(f[3]), in_gb) && in_gb >= 0,
                   "line " << lineno << ": bad input_gb");
      DS_CHECK_MSG(parse_double(trim(f[4]), rate) && rate >= 0,
                   "line " << lineno << ": bad rate_mbps");
      DS_CHECK_MSG(parse_double(trim(f[5]), out_gb) && out_gb >= 0,
                   "line " << lineno << ": bad output_gb");
      DS_CHECK_MSG(parse_double(trim(f[6]), skew) && skew >= 0,
                   "line " << lineno << ": bad skew");
      s.input_bytes = in_gb * 1e9;
      s.process_rate = rate * 1e6;
      s.output_bytes = out_gb * 1e9;
      s.task_skew = skew;
      job.add_stage(std::move(s));
    } else if (kind == "edge") {
      DS_CHECK_MSG(f.size() == 3, "line " << lineno << ": edge,<parent>,<child>");
      std::uint64_t p = 0, c = 0;
      DS_CHECK_MSG(parse_u64(trim(f[1]), p) && parse_u64(trim(f[2]), c),
                   "line " << lineno << ": bad edge indices");
      DS_CHECK_MSG(p < static_cast<std::uint64_t>(job.num_stages()) &&
                       c < static_cast<std::uint64_t>(job.num_stages()),
                   "line " << lineno << ": edge references unknown stage");
      job.add_edge(static_cast<StageId>(p), static_cast<StageId>(c));
    } else {
      DS_CHECK_MSG(false, "line " << lineno << ": unknown record '" << kind << "'");
    }
  }
  job.topo_order();  // validate before handing out
  return job;
}

JobDag load_job_spec_text(const std::string& text) {
  std::istringstream is(text);
  return load_job_spec(is);
}

JobDag load_job_spec_file(const std::string& path) {
  std::ifstream is(path);
  DS_CHECK_MSG(is.good(), "cannot open job spec " << path);
  return load_job_spec(is);
}

void save_job_spec(const JobDag& job, std::ostream& out) {
  out << "job," << job.name() << '\n';
  for (StageId s = 0; s < job.num_stages(); ++s) {
    const Stage& st = job.stage(s);
    out << "stage," << st.name << ',' << st.num_tasks << ','
        << st.input_bytes / 1e9 << ',' << st.process_rate / 1e6 << ','
        << st.output_bytes / 1e9 << ',' << st.task_skew << '\n';
  }
  for (StageId s = 0; s < job.num_stages(); ++s)
    for (StageId c : job.children(s)) out << "edge," << s << ',' << c << '\n';
}

std::string save_job_spec_text(const JobDag& job) {
  std::ostringstream os;
  save_job_spec(job, os);
  return os.str();
}

}  // namespace ds::dag
