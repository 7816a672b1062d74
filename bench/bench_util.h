// Shared helpers for the per-figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/stack.h"
#include "core/table.h"
#include "flash/profile.h"
#include "sim/host_pool.h"

namespace bio::bench {

inline std::unique_ptr<core::Stack> make_stack(
    core::StackKind kind, const flash::DeviceProfile& device) {
  return std::make_unique<core::Stack>(core::StackConfig::make(kind, device));
}

inline void banner(const char* id, const char* what) {
  std::printf("\n=== %s — %s ===\n", id, what);
}

inline std::string k_of(double v, int precision = 2) {
  return core::Table::num(v / 1000.0, precision);
}

/// Prints PASS/WARN for a shape expectation. The line is part of the bench's
/// stdout, so its golden (bench/expected/<name>.txt) pins the verdict.
inline void expect_shape(bool ok, const char* description) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "WARN", description);
}

/// Compute-parallel / print-serial driver for figure benches: runs one
/// simulation cell per index across the host pool (each cell builds its
/// own core::Stack — figure metrics are simulated, so host parallelism
/// cannot perturb them) and returns the results in index order, so the
/// caller's serial print loop emits output bit-identical to a serial run.
/// Figure benches honour BIO_SWEEP_JOBS like the sweeps (jobs = 0).
template <typename R, typename Fn>
std::vector<R> run_cells(int n, Fn&& fn) {
  const sim::HostPool pool;
  return pool.map<R>(n, static_cast<Fn&&>(fn));
}

}  // namespace bio::bench
