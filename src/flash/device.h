// The barrier-compliant storage device (§3.2).
//
// Commands enter a bounded NCQ, and each command's handler starts at
// submission: command processing overlaps freely, and only the DMA
// transfers wait their turn. Transfer eligibility implements the SCSI
// priority semantics the order-preserving dispatch relies on (§3.4):
//   * HEAD_OF_QUEUE commands transfer immediately.
//   * An ORDERED command transfers only after every earlier data command
//     has finished its DMA transfer.
//   * A SIMPLE command transfers only after every earlier ORDERED data
//     command has finished its DMA transfer.
//   * FLUSH commands neither wait for nor fence data commands: they snapshot
//     the cache at service time (durability is their only contract), which
//     is what lets Dual-Mode Journaling keep the queue busy while a flush is
//     in flight.
//
// Data lands in the writeback cache in transfer order; barrier writes bump
// the device epoch. One drain loop moves entries to the SegmentLog in
// transfer order, programming many pages in parallel; durable_state()
// answers "what survives a power cut right now" — on a barrier device the
// in-order-recovery log prefix, on a legacy device every programmed page —
// which the crash-consistency tests check against the paper's epoch
// ordering guarantees.
//
// The device exposes one submission *port* per flash channel (blk-mq
// hardware queues). Each port has its own NCQ window and host-side DMA bus,
// so commands on different ports overlap their transfers in simulated time.
// Ordering state stays global: seq numbers, the writeback cache, the device
// epoch and the flush horizon span all ports, and ORDERED/SIMPLE transfer
// fencing compares seq across every port's window — submission-order
// guarantees established by the host survive multi-port dispatch. With all
// traffic on port 0 (single-queue hosts) behavior is bit-identical to the
// former single-window device.
//
// Eligibility reads a *transfer frontier* instead of the windows: the
// (fence_epoch, seq) of the earliest untransferred data command and of the
// earliest untransferred ORDERED one, across every port. An ORDERED command
// may transfer iff nothing precedes it in the first, a SIMPLE one iff
// nothing precedes it in the second. A submission lowers the frontier in
// place; a DMA transfer that retires a minimum marks it stale, and the next
// eligibility check rescans the windows once. A submission can only push
// back other commands' turns, so queue_activity() fires on transfers and
// completions alone: those are all that a waiting handler or a busy host
// waits for.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flash/cache.h"
#include "flash/command.h"
#include "flash/fault.h"
#include "flash/nand.h"
#include "flash/profile.h"
#include "flash/segment_log.h"
#include "flash/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace bio::flash {

class StorageDevice {
 public:
  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t flushes = 0;
    std::uint64_t barrier_writes = 0;
    std::uint64_t blocks_written = 0;
    std::uint64_t busy_rejections = 0;
    std::uint64_t cache_read_hits = 0;
    std::uint64_t faults_injected = 0;
    /// Transient program faults a barrier-mode device recovered internally
    /// (FTL remap + reprogram) instead of surfacing to the host.
    std::uint64_t in_device_retries = 0;
  };

  StorageDevice(sim::Simulator& sim, DeviceProfile profile);

  /// Spawns the drain and GC threads. Call once.
  void start();

  /// Queues a command on port `cmd->port % port_count()` and starts its
  /// handler; returns false (device busy) when that port's NCQ window is
  /// full. The dispatcher retries a busy command once queue_activity()
  /// fires (Fig 6(b)).
  bool try_submit(std::shared_ptr<Command> cmd);

  /// Hardware submission ports (one per flash channel).
  std::uint32_t port_count() const noexcept {
    return static_cast<std::uint32_t>(ports_.size());
  }

  /// Outstanding commands across every port's window.
  std::uint32_t queue_depth() const noexcept {
    std::uint32_t n = 0;
    for (const auto& p : ports_)
      n += static_cast<std::uint32_t>(p->window.size());
    return n;
  }

  /// Commands admitted through port `port` since start() (per-channel
  /// pipeline utilisation; the mq perf scenarios assert spread).
  std::uint64_t port_submissions(std::uint32_t port) const {
    BIO_CHECK(port < ports_.size());
    return ports_[port]->submissions;
  }

  const DeviceProfile& profile() const noexcept { return profile_; }
  const Stats& stats() const noexcept { return stats_; }
  SegmentLog& log() noexcept { return log_; }
  WritebackCache& cache() noexcept { return cache_; }
  NandArray& nand() noexcept { return nand_; }

  /// Current device epoch (advanced by barrier writes).
  std::uint64_t current_epoch() const noexcept { return epoch_; }

  // ---- fault injection ----------------------------------------------------
  // The plan is owned by the caller (test/sweep harness) and must outlive
  // the device or be uninstalled first. With no plan installed the IO path
  // pays one null test per command — nothing else changes, keeping the
  // figure benches bit-identical.

  void install_fault_plan(FaultPlan* plan) noexcept { fault_plan_ = plan; }
  bool has_fault_plan() const noexcept { return fault_plan_ != nullptr; }
  const FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  /// Notified on every DMA transfer and completion (a submission frees no
  /// slot and grants no transfer turn). A tag-aware host driver waits on
  /// this instead of polling when busy.
  sim::Notify& queue_activity() noexcept { return queue_event_; }

  /// Non-destructive crash analysis: the block-level image recovery would
  /// reconstruct if power failed at the current simulated instant.
  /// Versions are the payload identity — the simulation stores no bytes,
  /// so (lba -> version) *is* the disk content, and higher layers
  /// (fs::Recovery) interpret it through their own content records.
  std::unordered_map<Lba, Version> durable_state() const;

  /// True when every cache entry with order < `through` has been persisted
  /// (PLP short-circuits: the cache itself is durable). FUA writes wait on
  /// it; crash analysis and the journal's checkpoint-release logic read it.
  bool persisted_through(std::uint64_t through) const noexcept;

  // ---- flush horizon ------------------------------------------------------
  // Counters letting a host-side caller reason "did a full cache flush start
  // after instant X and complete?" without issuing one itself. A flush whose
  // entry sequence is > X snapshots the cache after X, so its completion
  // makes everything transferred before X durable. jbd2-style checkpoint
  // tail-advance uses this to piggyback on the flushes fsync traffic already
  // issues instead of adding its own.

  /// Entry sequence of the most recently *started* flush (0 = none yet).
  /// A caller proving durability must therefore require a *strictly
  /// greater* completed entry (flush_horizon() > stamp): a flush with the
  /// same sequence entered before the stamped instant.
  std::uint64_t flush_sequence() const noexcept { return flush_entries_; }
  /// Highest entry sequence among *completed* flushes (0 = none yet).
  std::uint64_t flush_horizon() const noexcept { return flush_horizon_; }
  /// Cache order that completed flushes covered: every entry with a lower
  /// order had transferred when one of them took its snapshot, and was
  /// durable when it completed (0 = none yet). Unlike persisted_through(),
  /// it answers "did a flush cover this?" on a PLP cache too, where the
  /// snapshot is the next_order() at that instant.
  std::uint64_t flushed_through() const noexcept { return flushed_through_; }

  /// Records every block transferred from now on, in arrival order with
  /// its epoch tag, into `recorder` (invariant checks and debug dumps; the
  /// device keeps no history of its own). Owned by the caller like the
  /// fault plan; nullptr uninstalls.
  void install_transfer_recorder(
      WritebackCache::TransferRecorder* recorder) noexcept {
    cache_.install_transfer_recorder(recorder);
  }

  // ---- queue-depth instrumentation (Figs 9, 10, 12) ----------------------

  /// Enables recording of a (time, depth) series.
  void enable_qd_trace() noexcept { qd_trace_enabled_ = true; }
  const sim::TimeSeries& qd_trace() const noexcept { return qd_trace_; }
  /// Time-weighted average queue depth since start() (or the last reset).
  double average_queue_depth() const;

  /// Restarts QD accounting (benchmarks call this after their setup phase).
  void reset_qd_accounting();

 private:
  struct Slot {
    std::shared_ptr<Command> cmd;
    bool dma_done = false;
  };
  using SlotIter = std::list<Slot>::iterator;

  /// One hardware submission port: an NCQ window plus the channel's
  /// host-side DMA lane. Ports transfer concurrently; ordering decisions
  /// (transfer_eligible) read the frontier over every port's window.
  struct Port {
    explicit Port(sim::Simulator& sim) : host_bus(sim, 1) {}
    /// Outstanding commands in submission order.
    std::list<Slot> window;
    /// Completed slots, spliced back in on submission: the window's nodes
    /// come from here, so steady-state NCQ traffic allocates nothing.
    std::list<Slot> free_slots;
    sim::Semaphore host_bus;
    std::uint64_t submissions = 0;
  };

  /// Transfer-fence precedence: (fence_epoch, seq), lexicographic.
  using FenceKey = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr FenceKey kNoCommand{~std::uint64_t{0}, ~std::uint64_t{0}};
  static FenceKey key_of(const Command& c) noexcept {
    return {c.fence_epoch, c.seq};
  }

  bool transfer_eligible(const Slot& slot);
  /// Recomputes both frontier minima from every port's window.
  void refresh_frontier();
  /// Marks `slot`'s DMA transfer done and retires it from the frontier.
  void note_transferred(Slot& slot);
  /// The command handler for `it`'s opcode (not a coroutine of its own).
  sim::Task handle(Port& port, SlotIter it);
  sim::Task handle_write(Port& port, SlotIter it);
  sim::Task handle_read(Port& port, SlotIter it);
  sim::Task handle_flush(Port& port, SlotIter it);
  void complete(Port& port, SlotIter it);

  sim::Task do_flush();

  /// Moves cache entries to flash in transfer order (every barrier mode,
  /// PLP included: the durable cache still has finite capacity).
  sim::Task drain_loop();
  sim::Task drain_one(WritebackCache::Entry e, SegmentLog::Reservation r);

  void note_qd_change();

  sim::Simulator& sim_;
  DeviceProfile profile_;
  NandArray nand_;
  SegmentLog log_;
  WritebackCache cache_;

  std::vector<std::unique_ptr<Port>> ports_;
  std::uint64_t next_seq_ = 0;
  /// The transfer frontier: the earliest untransferred data command and the
  /// earliest untransferred ORDERED one (kNoCommand when there is none).
  FenceKey data_front_ = kNoCommand;
  FenceKey ordered_front_ = kNoCommand;
  /// A minimum has transferred since the last refresh_frontier().
  bool frontier_stale_ = false;
  std::uint64_t epoch_ = 0;
  // Fault injection: per-class op ordinals advance only while a plan is
  // installed, so a plan installed before start() sees a deterministic
  // stream for a given workload seed.
  FaultPlan* fault_plan_ = nullptr;
  std::uint64_t fault_write_ops_ = 0;
  std::uint64_t fault_read_ops_ = 0;
  sim::Notify queue_event_;
  sim::Semaphore drain_slots_;

  // Flush-horizon counters (see accessors above).
  std::uint64_t flush_entries_ = 0;
  std::uint64_t flush_horizon_ = 0;
  std::uint64_t flushed_through_ = 0;

  Stats stats_;
  bool started_ = false;

  bool qd_trace_enabled_ = false;
  sim::TimeSeries qd_trace_;
  // Always-on time-weighted QD accumulator.
  double qd_area_ = 0.0;
  sim::SimTime qd_last_change_ = 0;
  std::uint32_t qd_current_ = 0;
  sim::SimTime start_time_ = 0;
};

}  // namespace bio::flash
