// iolint regression tests: the static analyzer's self-test (each check
// fires on the reconstructed DESIGN.md §9.2-3 / §10.4 / §11.4 ledger
// bugs, stays silent on the fixed forms, allowlist mechanics) and the
// repo-wide lint itself (src/ + tests/ carry zero un-allowlisted
// findings).  Both shell out to the python tool; when no python3 is on
// PATH the tests skip rather than fail.

#include <gtest/gtest.h>

#include "tool_test_util.h"

namespace {

using bio::testutil::have_python;
using bio::testutil::run_tool;
using bio::testutil::RunResult;

TEST(IolintTest, SelftestLedgerFixturesAndAllowlist) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res = run_tool("tools/iolint/selftest.py");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("iolint selftest: OK"), std::string::npos)
      << res.output;
}

TEST(IolintTest, RepoIsCleanUnderCiMode) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res = run_tool("tools/iolint/iolint.py --ci");
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

}  // namespace
