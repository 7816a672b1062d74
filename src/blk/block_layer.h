// Host block layer: scheduler + dispatch thread in front of the device.
//
// The device decides the ordering mode. In front of a barrier-compliant
// device (BarrierMode other than kNone) the layer is order-preserving: every
// queue wraps its base scheduler in the epoch scheduler (§3.3), and the
// dispatcher translates REQ_ORDERED/REQ_BARRIER into the device protocol of
// §3.4: barrier writes are dispatched with SCSI ORDERED priority
// (transfer-order fence), everything else SIMPLE. The caller is never
// blocked per-request — Wait-on-Transfer, when a filesystem wants it, is an
// explicit `co_await r->completion->wait()`.
//
// In front of a legacy device the ordering flags are stripped: the stack
// behaves like the orderless kernel the paper starts from, and ordering is
// whatever the filesystem enforces with waits and flushes.
//
// Multi-queue (blk-mq) mode: with nr_queues > 1 the layer keeps one software
// queue (scheduler + dispatch thread) per submission context, routed by the
// submitting simulated thread's spawn ordinal, and maps queue q onto device
// port q % port_count so independent queues drive independent flash-channel
// pipelines. Epoch ordering across queues is kept by the EpochFence
// (blk/epoch_fence.h): per-queue sequencers plus a lazy cross-queue join —
// see that header for the protocol. nr_queues = 1 (the default) is
// bit-identical to the classic single-queue layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blk/epoch_fence.h"
#include "blk/epoch_scheduler.h"
#include "blk/io_scheduler.h"
#include "blk/request.h"
#include "blk/request_pool.h"
#include "flash/device.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::blk {

struct BlockLayerConfig {
  /// Base scheduler: "noop" or "elevator". On a barrier-compliant device
  /// each queue wraps it in the epoch scheduler.
  std::string scheduler = "noop";
  /// Bound on the scheduler queue (Linux nr_requests). Submitters that call
  /// throttle() block while the queue is congested; they wake once it
  /// drains to half (batched wakeups, like the request-list congestion
  /// hysteresis).
  std::size_t nr_requests = 128;
  /// Bounded retry policy for transient device faults: attempts beyond the
  /// first, with exponential simulated-time backoff starting at
  /// `io_retry_backoff` (doubling per attempt). Hard media errors fail
  /// through immediately, never retried.
  std::uint32_t max_io_retries = 3;
  sim::SimTime io_retry_backoff = 1'000'000;  // 1 ms
  /// Software submission queues (blk-mq). Each queue has its own scheduler
  /// instance and dispatch thread and feeds device port q % port_count.
  /// 1 = the classic single-queue block layer, bit-identical.
  std::uint32_t nr_queues = 1;
};

class BlockLayer {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t busy_retries = 0;
    /// Transient device-fault completions observed (pre-retry).
    std::uint64_t transient_faults = 0;
    /// Hard media-error completions (fail through, never retried).
    std::uint64_t hard_faults = 0;
    /// Re-dispatches issued by the retry policy.
    std::uint64_t io_retries = 0;
    /// Requests whose final completion is an error (retries exhausted or
    /// hard fault).
    std::uint64_t io_failures = 0;
  };

  BlockLayer(sim::Simulator& sim, flash::StorageDevice& dev,
             BlockLayerConfig config);

  /// Spawns the dispatch thread. Call once, after device.start().
  void start();

  /// Hands a request to the IO scheduler (asynchronous). The request's
  /// completion event fires on the device IRQ. Routed to software queue
  /// (submitting thread's spawn ordinal) % nr_queues, so one submission
  /// context — a writer thread, a ring chain's issue loop — always stays on
  /// one queue and keeps its program order.
  void submit(RequestPtr r);

  /// submit() with an explicit software queue (directed tests; the normal
  /// path routes by submission context).
  void submit_on(std::uint32_t queue, RequestPtr r);

  /// Blocks while the request queue is congested (> nr_requests pending).
  /// Callers issuing fire-and-forget writes use this as get_request()
  /// backpressure.
  sim::Task throttle();

  /// Globally unique version tag for a 4 KiB block write.
  flash::Version next_version() noexcept { return ++version_; }

  /// Recycling allocator for requests; the filesystem and journals build
  /// all their requests through this.
  RequestPool& pool() noexcept { return pool_; }
  const RequestPool& pool() const noexcept { return pool_; }

  /// Builds, submits and waits (convenience for tests/simple callers).
  sim::Task write_and_wait(std::vector<Block> blocks, bool ordered = false,
                           bool barrier = false, bool flush = false,
                           bool fua = false);
  sim::Task flush_and_wait();
  sim::Task read_and_wait(flash::Lba lba);

  const Stats& stats() const noexcept { return stats_; }
  /// Queue 0's scheduler (the only one at nr_queues = 1).
  const IoScheduler& scheduler() const noexcept {
    return *queues_[0]->scheduler;
  }
  const IoScheduler& scheduler(std::uint32_t queue) const {
    BIO_CHECK(queue < queues_.size());
    return *queues_[queue]->scheduler;
  }
  std::uint32_t nr_queues() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }
  /// The cross-queue fence; null at nr_queues = 1 or on a legacy device
  /// (nothing to fence across).
  const EpochFence* epoch_fence() const noexcept { return fence_.get(); }
  flash::StorageDevice& device() noexcept { return dev_; }
  const BlockLayerConfig& config() const noexcept { return config_; }

  /// TEST ONLY: drop the fail-through path — a request whose retries are
  /// exhausted (or that hit a hard fault) completes as if it succeeded.
  /// The deliberate bug the fault crash sweep must catch: an acked sync
  /// over swallowed errors is a durability lie.
  void set_swallow_io_errors_for_test(bool swallow) noexcept {
    swallow_io_errors_ = swallow;
  }

 private:
  /// One software queue: its own scheduler instance and dispatch wakeup.
  struct Queue {
    explicit Queue(sim::Simulator& sim) : work(sim) {}
    std::unique_ptr<IoScheduler> scheduler;
    /// Borrowed view of `scheduler` when the epoch scheduler wraps it (the
    /// fence bookkeeping — stamp retirement, pending-epoch queries — goes
    /// through it).
    EpochScheduler* epoch = nullptr;
    sim::Notify work;
  };

  /// True in front of a barrier-compliant device: epoch scheduling and
  /// ORDERED barrier dispatch (see the header comment).
  bool order_preserving() const noexcept {
    return dev_.profile().barrier_mode != flash::BarrierMode::kNone;
  }
  sim::Task dispatch_loop(std::uint32_t queue);
  /// Submits `cmd` to its device port; while the port's window is full,
  /// waits for queue activity instead of polling and counts a busy retry.
  sim::Task submit_until_accepted(const std::shared_ptr<flash::Command>& cmd);
  sim::Task fanout(RequestPtr r);
  /// Fault-aware dispatch interposer: owns the request's device round
  /// trips, applies the bounded retry policy, then fires `completion` with
  /// the final status. Spawned only while a fault plan is installed.
  sim::Task retry_watcher(RequestPtr r, std::shared_ptr<flash::Command> cmd);
  std::shared_ptr<flash::Command> to_command(const RequestPtr& r,
                                             bool fault_aware) const;
  /// Pending requests across every queue (congestion accounting).
  std::size_t backlog() const;
  /// Barrier submission gate: every peer queue has drained (submitted to
  /// the device) its requests stamped <= the barrier's epoch, so the
  /// device's (fence_epoch, seq) transfer fencing sees everything it must
  /// order below the barrier. See blk/epoch_fence.h.
  bool peers_drained(std::uint32_t queue, std::uint64_t epoch) const;

  sim::Simulator& sim_;
  flash::StorageDevice& dev_;
  BlockLayerConfig config_;
  RequestPool pool_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::unique_ptr<EpochFence> fence_;
  sim::Notify drained_;
  bool congested_ = false;
  flash::Version version_ = 0;
  Stats stats_;
  bool started_ = false;
  bool swallow_io_errors_ = false;
};

}  // namespace bio::blk
