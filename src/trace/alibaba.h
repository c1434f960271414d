// Parser for the Alibaba cluster trace v2018 `batch_task` table.
//
// Each CSV row is
//   task_name,instance_num,job_name,task_type,status,start_time,end_time,
//   plan_cpu,plan_mem
// where DAG-bearing task names encode the dependency structure:
//   "M1"        task 1, no parents
//   "R3_1"      task 3, depends on task 1
//   "J5_3_4"    task 5, depends on tasks 3 and 4
// (the leading letters are operator types; only the numbers matter for the
// DAG). Independent tasks with non-conforming names (e.g. "task_NKJzSmvg")
// are kept as single parentless stages. Rows whose job lacks timestamps are
// dropped, mirroring the paper's exclusion of jobs that are incomplete
// within the 8-day span (§2.1 footnote).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace ds::trace {

struct AlibabaParseStats {
  std::size_t rows = 0;
  std::size_t bad_rows = 0;
  std::size_t jobs = 0;
  std::size_t dropped_jobs = 0;  // incomplete or cyclic
};

// A trace records only wall time per task: parse_batch_task gives these
// fractions of each stage's duration to shuffle read and write and the rest
// to processing (the anatomy of Fig. 8).
inline constexpr double kBatchTaskReadFrac = 0.25;
inline constexpr double kBatchTaskWriteFrac = 0.10;

// Parse a batch_task CSV stream into trace jobs, phase times split as above.
std::vector<TraceJob> parse_batch_task(std::istream& in,
                                       AlibabaParseStats* stats = nullptr);

// Convenience: parse from a string (tests) or a file path.
std::vector<TraceJob> parse_batch_task_text(const std::string& text,
                                            AlibabaParseStats* stats = nullptr);
std::vector<TraceJob> parse_batch_task_file(const std::string& path,
                                            AlibabaParseStats* stats = nullptr);

// Emit trace jobs in batch_task CSV form (task names encode the DAG, e.g.
// "J3_1_2"). parse(write(jobs)) reproduces the jobs' structure and timing,
// so synthetic traces can be exported for any batch_task-compatible tool.
void write_batch_task(const std::vector<TraceJob>& jobs, std::ostream& out);
std::string write_batch_task_text(const std::vector<TraceJob>& jobs);

}  // namespace ds::trace
