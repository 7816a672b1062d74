// Host-parallel executor for embarrassingly parallel simulator work.
//
// Every crash-sweep point and every figure-bench cell builds its own
// core::Stack (one simulator, one device, one filesystem), so independent
// work units share no simulated state — the only cross-thread surface is
// host-side process state, which the pool's contract keeps clean:
//
//   * the sim/frame_pool coroutine-frame recycler is thread_local (each
//     worker recycles its own frames and keeps its own stats);
//   * blk::RequestPool and every other pool/counter hang off the Stack a
//     unit builds, so they are thread-private by construction;
//   * deterministic seed partitioning is the CALLER's job: each unit
//     derives its seed/crash-instant from its index alone (never from
//     execution order), and the caller merges results in canonical index
//     order, so a jobs=N run is bit-identical to jobs=1.
//
// The pool is bounded and joining: for_each_index() fans indices across at
// most jobs() host threads and joins every worker before it returns —
// worker lambdas are owned by the pool joiner, never detached (the iolint
// detached-task-capture contract for executor call sites).
//
// This is tier (a) of ROADMAP's "Parallel host execution of the
// simulator", following Graphite's host-thread simulation model: one
// simulated node per host thread, no cross-thread simulated time. Tier (b)
// — sharding one node's volumes across host threads with lock-step epoch
// synchronization — builds on this layer.
#pragma once

#include <functional>
#include <vector>

namespace bio::sim {

/// Hard upper bound on host threads per pool: sweeps are memory-light but
/// a runaway jobs request must not fork hundreds of threads.
inline constexpr int kMaxHostJobs = 64;

/// Resolves a jobs request into an actual thread count:
///   requested >= 1 -> clamped to [1, kMaxHostJobs];
///   requested <= 0 -> the BIO_SWEEP_JOBS environment variable when it
///                     parses as a positive decimal (the ctest hook), else
///                     std::thread::hardware_concurrency(), clamped.
int resolve_host_jobs(int requested = 0);

class HostPool {
 public:
  /// `jobs` as in resolve_host_jobs(); the default (0) picks up
  /// BIO_SWEEP_JOBS / hardware concurrency.
  explicit HostPool(int jobs = 0) : jobs_(resolve_host_jobs(jobs)) {}

  int jobs() const noexcept { return jobs_; }

  /// Runs fn(0), fn(1), ..., fn(n-1), fanning the indices across up to
  /// jobs() host threads, and joins every worker before returning (the
  /// closure never outlives this call). jobs() == 1 is the legacy serial
  /// path: the indices run inline, in order, on the calling thread — no
  /// thread is ever spawned. Worker order is otherwise unspecified, so
  /// fn must write only to its own index's slot; the first exception a
  /// worker throws is rethrown here after the join.
  void for_each_index(int n, const std::function<void(int)>& fn) const;

  /// for_each_index with an index-ordered result vector: out[i] = fn(i).
  template <typename R, typename Fn>
  std::vector<R> map(int n, Fn&& fn) const {
    std::vector<R> out(static_cast<std::size_t>(n > 0 ? n : 0));
    // iolint: detached-owner(for_each_index joins its workers before
    // returning; the capture cannot outlive this frame)
    for_each_index(n, [&out, &fn](int i) {
      out[static_cast<std::size_t>(i)] = fn(i);
    });
    return out;
  }

 private:
  int jobs_;
};

}  // namespace bio::sim
