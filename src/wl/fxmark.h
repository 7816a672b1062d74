// fxmark DWSL model (§6.3, Fig 13): journaling scalability. Each "core"
// runs a thread that appends 4 KiB to its own private file and fsync()s,
// so throughput is bounded by how many journal commits per second the
// filesystem sustains under concurrency.
//
// The sharded variant stripes the cores' private files across the volumes
// of a multi-volume node (core c writes "/v<c % N>/dwsl<c>"), so each
// volume runs its own journal-commit pipeline: the multi-writer scaling
// experiment one journal cannot provide, measured per volume.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/stack.h"

namespace bio::wl {

struct FxmarkParams {
  std::uint32_t cores = 4;
  std::uint32_t writes_per_thread = 200;
};

struct FxmarkResult {
  double ops_per_sec = 0.0;
  std::uint64_t ops_done = 0;
  sim::SimTime elapsed = 0;
};

FxmarkResult run_fxmark_dwsl(core::Stack& stack, const FxmarkParams& params);

struct ShardedFxmarkResult {
  double ops_per_sec = 0.0;
  std::uint64_t ops_done = 0;
  sim::SimTime elapsed = 0;
  /// Index-aligned with the node's volumes: ops committed per volume per
  /// simulated second.
  std::vector<double> volume_ops_per_sec;
  std::vector<std::uint64_t> volume_ops;
};

/// DWSL with the files striped round-robin across the node's volumes.
/// `node` must not have been started yet (mirrors run_fxmark_dwsl).
/// `on_measured_start`, if set, fires after the (unmeasured) setup phase,
/// right before the writer threads spawn — harnesses snapshot wall-clock
/// and counter baselines there so setup cost stays out of their numbers.
ShardedFxmarkResult run_fxmark_dwsl_sharded(
    core::Stack& node, const FxmarkParams& params,
    const std::function<void()>& on_measured_start = {});

}  // namespace bio::wl
