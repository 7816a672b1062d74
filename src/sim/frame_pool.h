// Size-bucketed recycler for coroutine frames.
//
// Every simulated syscall awaits a chain of child Tasks, and each co_await
// allocates a coroutine frame — by far the dominant heap traffic on the
// simulated hot path. Task/TaskOf route their promise operator new/delete
// here: freed frames park in per-size-class freelists (64-byte classes) and
// are handed back on the next allocation of the same class.
//
// The pool — freelists AND stats — is thread_local: each host thread
// (sim::HostPool sweep workers included) recycles its own frames with no
// shared state at all, matching the one-simulator-per-thread execution
// model. A worker's stats go with it when it exits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bio::sim {

struct FramePoolStats {
  /// Total frame allocations requested.
  std::uint64_t allocs = 0;
  /// Served from a freelist (no heap round-trip).
  std::uint64_t reuses = 0;
  /// Fell through to the heap (cold class or oversize frame).
  std::uint64_t fresh = 0;
};

/// Stats for the calling thread's pool only.
const FramePoolStats& frame_pool_stats() noexcept;

namespace detail {
void* frame_alloc(std::size_t n);
void frame_free(void* p) noexcept;
}  // namespace detail

}  // namespace bio::sim
