// 4 KiB random/sequential write workloads — the raw-IO microbenchmarks
// behind Fig 1 (ordered vs buffered), Fig 9 (XnF/X/B/P), Fig 10/12 (queue
// depth traces), Table 1 (fsync latency) and Fig 11 (context switches).
#pragma once

#include <cstdint>

#include "core/stack.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace bio::wl {

struct RandomWriteParams {
  enum class Mode : std::uint8_t {
    /// Plain buffered write(): scenario "P".
    kBuffered,
    /// write() + fdatasync(): "XnF" on EXT4-DR, "X" on EXT4-OD (nobarrier).
    kFdatasync,
    /// write() + fdatabarrier(): scenario "B" (BarrierFS stacks only).
    kFdatabarrier,
    /// write() + the stack's full sync (fsync / fbarrier): Fig 11, Table 1.
    kSyncFile,
  };

  Mode mode = Mode::kFdatasync;
  /// Allocating (appending) writes instead of random overwrites, for any
  /// mode: every op extends i_size, so every sync commits a journal
  /// transaction (fxmark DWSL's pattern, which Table 1 measures; Fig 1's
  /// "ordered" and Fig 8's commit streams).
  bool allocating = false;
  /// Number of files the ops rotate over (multi-file commit pipelining).
  std::uint32_t files = 1;
  /// Random-write working set (pre-allocated, so writes are overwrites).
  std::uint32_t working_set_pages = 4096;
  /// Number of write() calls to issue.
  std::uint64_t ops = 2000;
};

struct RandomWriteResult {
  double iops = 0.0;           // write() calls per second of simulated time
  double avg_queue_depth = 0.0;
  double context_switches_per_op = 0.0;
  std::uint64_t ops_done = 0;
  sim::SimTime elapsed = 0;
  /// Simulated latency of each kSyncFile sync (Table 1's fsync samples).
  sim::LatencyRecorder sync_latency;
};

/// Runs the workload on an already-constructed (not yet started) stack.
/// Starts the stack, pre-allocates the working set, resets accounting and
/// measures the op phase. Single application thread, like the paper's
/// microbenchmarks.
RandomWriteResult run_random_write(core::Stack& stack,
                                   const RandomWriteParams& params,
                                   sim::Rng rng);

}  // namespace bio::wl
