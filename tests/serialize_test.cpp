#include <gtest/gtest.h>

#include "dag/serialize.h"
#include "util/check.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::dag {
namespace {

constexpr const char* kSpec =
    "# demo job\n"
    "job,demo\n"
    "stage,extract,30,6.0,2.5,2.0,0.2\n"
    "stage,transform,40,10.0,4.0,4.0,0.0\n"
    "stage,report,20,4.0,3.0,0.1,0.2\n"
    "edge,0,2\n"
    "edge,1,2\n";

TEST(JobSpec, ParsesStagesAndEdges) {
  const JobDag j = load_job_spec_text(kSpec);
  EXPECT_EQ(j.name(), "demo");
  ASSERT_EQ(j.num_stages(), 3);
  EXPECT_EQ(j.stage(0).name, "extract");
  EXPECT_EQ(j.stage(0).num_tasks, 30);
  EXPECT_DOUBLE_EQ(j.stage(0).input_bytes, 6e9);
  EXPECT_DOUBLE_EQ(j.stage(0).process_rate, 2.5e6);
  EXPECT_DOUBLE_EQ(j.stage(0).output_bytes, 2e9);
  EXPECT_DOUBLE_EQ(j.stage(0).task_skew, 0.2);
  EXPECT_EQ(j.parents(2), (std::vector<StageId>{0, 1}));
}

TEST(JobSpec, RoundTripsThroughSave) {
  const JobDag original = workloads::triangle_count();
  const JobDag back = load_job_spec_text(save_job_spec_text(original));
  ASSERT_EQ(back.num_stages(), original.num_stages());
  EXPECT_EQ(back.name(), original.name());
  for (StageId s = 0; s < original.num_stages(); ++s) {
    EXPECT_EQ(back.stage(s).name, original.stage(s).name);
    EXPECT_EQ(back.stage(s).num_tasks, original.stage(s).num_tasks);
    EXPECT_NEAR(back.stage(s).input_bytes, original.stage(s).input_bytes, 1.0);
    EXPECT_NEAR(back.stage(s).process_rate, original.stage(s).process_rate, 1.0);
    EXPECT_EQ(back.children(s), original.children(s));
  }
}

TEST(JobSpec, RejectsMalformedInput) {
  EXPECT_THROW(load_job_spec_text("stage,x\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,0,1,1,1,0\n"), CheckError);  // 0 tasks
  EXPECT_THROW(load_job_spec_text("bogus,1,2\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("edge,0,1\n"), CheckError);  // unknown stages
  EXPECT_THROW(
      load_job_spec_text("stage,a,1,1,1,1,0\nstage,b,1,1,1,1,0\n"
                         "edge,0,1\nedge,1,0\n"),
      CheckError);  // cycle
}

TEST(JobSpec, RejectsNonFiniteAndOutOfRangeNumbers) {
  // An infinite volume would keep the planner busy forever, and 2^32 + 1
  // tasks must not wrap to a 1-task stage.
  EXPECT_THROW(load_job_spec_text("stage,x,4,inf,1,1,0\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,4,1e400,1,1,0\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,4,1,inf,1,0\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,4,1,1,inf,0\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,4,1,1,1,inf\n"), CheckError);
  EXPECT_THROW(load_job_spec_text("stage,x,4294967297,1,1,1,0\n"),
               CheckError);
  EXPECT_EQ(load_job_spec_text("stage,x,2147483647,1,1,1,0\n")
                .stage(0)
                .num_tasks,
            2147483647);
}

TEST(JobSpec, CommentsAndBlankLinesIgnored) {
  const JobDag j = load_job_spec_text(
      "\n# header\n\nstage,only,4,1.0,1.0,0.5,0\n\n# trailing\n");
  EXPECT_EQ(j.num_stages(), 1);
}

TEST(JobSpec, MissingFileThrows) {
  EXPECT_THROW(load_job_spec_file("/nonexistent/job.spec"), CheckError);
}

}  // namespace
}  // namespace ds::dag
