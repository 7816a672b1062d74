// bench_delta regression tests: CI's perf guard (tools/bench_delta.py)
// compares each perf_suite scenario's minimum host ns/op over change runs
// with its minimum over same-runner runs of the base commit, with no
// cross-scenario normalization, and its allocations per op when the base
// runs carry them. The fixtures under tests/bench_delta/ are one base run
// and three change runs for ns/op (the last two are the cases that
// normalizing by the median ratio got wrong), a base and a change run
// with allocation counts, and a base and a change run where the change
// does fewer IOs per op. Shells out to the python tool; skips when no
// python3 is on PATH.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "tool_test_util.h"

namespace {

using bio::testutil::have_python;
using bio::testutil::run_tool;
using bio::testutil::RunResult;

/// The space-separated paths of fixture runs `names`.
std::string runs(std::initializer_list<const char*> names) {
  std::string out;
  for (const char* n : names) out += std::string(" tests/bench_delta/") + n;
  return out;
}

RunResult compare(const std::string& base, const std::string& change) {
  return run_tool("tools/bench_delta.py --base" + base + " --change" + change);
}

TEST(BenchDeltaTest, OneScenarioSlowerFails) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"base.json"}), runs({"one_slower.json"}));
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("1 scenario(s)"), std::string::npos)
      << res.output;
}

TEST(BenchDeltaTest, EveryScenarioSlowerFails) {
  // A uniform 1.3x slowdown: the median-normalized guard divided it out.
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"base.json"}), runs({"all_slower.json"}));
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("4 scenario(s)"), std::string::npos)
      << res.output;
}

TEST(BenchDeltaTest, UnevenSpeedupPasses) {
  // Half the scenarios at 0.5x, half unchanged: the median-normalized guard
  // read the unchanged half as 1.33x slower.
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"base.json"}), runs({"half_faster.json"}));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(BenchDeltaTest, ComparesMinimaOverRuns) {
  // A slow run on either side is outvoted by a fast one.
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res = compare(runs({"all_slower.json", "base.json"}),
                                runs({"one_slower.json", "base.json"}));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(BenchDeltaTest, MoreAllocationsPerOpFails) {
  // Against the base, the change allocates 0.83% more per op on one
  // scenario (0.1 more), 0.04 more on another (3x), and 5% and 0.1 more on
  // a third: only the third exceeds both bounds.
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"allocs_base.json"}), runs({"more_allocs.json"}));
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("1 scenario(s) allocate more per op"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("more per op than the base (>2% and >0.05 "
                            "more): sync-BFS-DR"),
            std::string::npos)
      << res.output;
}

TEST(BenchDeltaTest, BaseWithoutAllocationCountsSkipsThatCheck) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"base.json"}), runs({"more_allocs.json"}));
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("carry no global_allocs_per_op"),
            std::string::npos)
      << res.output;
}

TEST(BenchDeltaTest, FewerIosPerOpIsNotASlowdown) {
  // The change issues 30% fewer IOs for the same ops, and each op costs
  // 7% less host time: 1.4x per IO, 0.93x per op. The ops are the work.
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"fewer_ios_base.json"}), runs({"fewer_ios.json"}));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(BenchDeltaTest, MalformedRunIsAUsageError) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res =
      compare(runs({"base.json"}), runs({"missing.json"}));
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

}  // namespace
