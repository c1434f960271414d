// ds_e2e — end-to-end benchmark driver for the four user paths (plan cold and
// warm, run, sched, replay), one workload per process.
//
//   ds_e2e --workload <plan|plan_warm|run|sched|replay> --seed <n>
//          [--seconds S] [--traced] --out <dir>
//
// Prints every metric as `name value unit` and writes <dir>/<workload>.json
// (or <workload>.traced.json). A traced run also writes the driver's spans as
// <workload>.trace.json (Chrome trace_event) and <workload>.selftime.txt.
// Exits 1 if any output check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "e2e.h"

namespace {

using e2e::Options;
using e2e::Report;
using e2e::Spans;

using WorkloadFn = void (*)(const Options&, Report&, Spans&);

struct Entry {
  const char* name;
  WorkloadFn fn;
};

constexpr Entry kWorkloads[] = {
    {"plan", e2e::run_plan},   {"plan_warm", e2e::run_plan_warm},
    {"run", e2e::run_run},     {"sched", e2e::run_sched},
    {"replay", e2e::run_replay},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: ds_e2e --workload <plan|plan_warm|run|sched|replay> "
               "--seed <n> [--seconds S] [--traced] --out <dir>\n";
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_json(const std::filesystem::path& path, const Options& opt,
                const Report& r) {
  std::ofstream os(path);
  os << "{\n  \"correct\": " << (r.failed == 0 ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
     << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i > 0 ? "," : "") << "\n    \"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "\n  },\n  \"workload\": \"" << opt.workload << "\",\n  \"seed\": "
     << opt.seed << ",\n  \"seconds\": " << number(opt.seconds)
     << ",\n  \"traced\": " << (opt.traced ? "true" : "false")
     << ",\n  \"threads\": " << opt.threads
     << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
     << ",\n  \"compiler\": \"" << json_escape(__VERSION__)
     << "\",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i > 0 ? ", " : "") << '"' << json_escape(r.failures[i]) << '"';
  os << "]\n}\n";
}

// This process's peak resident set (VmHWM). Not getrusage: its ru_maxrss
// carries over the parent's peak across fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--out") {
        out = value();
      } else if (a == "--traced") {
        opt.traced = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  const auto entry = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                  [&](const Entry& e) { return opt.workload == e.name; });
  if (entry == std::end(kWorkloads)) usage("unknown workload '" + opt.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (out.empty()) usage("--out is required");
  // The replay fan-out: two workers, never more than the machine has.
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u));

  Report report;
  Spans spans(opt.traced);
  try {
    entry->fn(opt, report, spans);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.traced) report.set("bench.unattributed_pct", spans.unattributed_pct(), "%");
  for (const auto& m : report.metrics)
    if (!std::isfinite(m.value)) report.check(false, "metric " + m.name + " is not finite");

  std::filesystem::create_directories(out);
  const std::filesystem::path dir(out);
  const std::string stem = opt.workload + (opt.traced ? ".traced" : "");
  write_json(dir / (stem + ".json"), opt, report);
  if (opt.traced) {
    std::ofstream chrome(dir / (opt.workload + ".trace.json"));
    spans.write_chrome_json(chrome);
    std::ofstream table(dir / (opt.workload + ".selftime.txt"));
    spans.write_self_time_table(table);
  }

  for (const auto& m : report.metrics)
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
  std::cout << "checks " << report.attempted << " attempted, " << report.failed
            << " failed\n";
  for (const auto& f : report.failures) std::cerr << "FAILED: " << f << '\n';
  return report.failed == 0 ? 0 : 1;
}
