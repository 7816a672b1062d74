// Shared helpers for tests that shell out to the repo's python tools
// (tools/iolint, tools/bench_delta.py). They run from the source tree, not
// the build tree; when no python3 is on PATH the callers skip rather than
// fail.
#pragma once

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace bio::testutil {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `python3 <args>` in the source tree; stdout and stderr combined.
inline RunResult run_tool(const std::string& args) {
  const std::string cmd =
      "cd \"" BIO_SOURCE_DIR "\" && python3 " + args + " 2>&1";
  RunResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr)
    res.output += buf.data();
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

inline bool have_python() {
  const int status = std::system("python3 -c 'pass' >/dev/null 2>&1");
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace bio::testutil
