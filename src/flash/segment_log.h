// Log-structured FTL: the paper's UFS firmware treats the entire device as
// a single log (§3.2, "in-order recovery"). Appends are assigned log
// positions in call order and striped round-robin across chips, so programs
// proceed in parallel while the *log order* still encodes the transfer
// order. Crash recovery scans the log and truncates at the first page that
// did not finish programming, which is exactly what makes the barrier
// command free of flush overhead.
//
// A background garbage collector relocates valid pages out of the victim
// segment and erases it; GC contends with foreground traffic on the chips,
// producing the long latency tails of Table 1.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flash/geometry.h"
#include "flash/nand.h"
#include "flash/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::flash {

class SegmentLog {
 public:
  struct Params {
    /// GC starts when free segments drop to this count.
    std::uint32_t gc_low_watermark = 3;
    /// Concurrent GC page relocations.
    std::uint32_t gc_inflight = 8;
  };

  struct GcStats {
    std::uint64_t runs = 0;
    std::uint64_t pages_copied = 0;
    std::uint64_t segments_erased = 0;
  };

  SegmentLog(sim::Simulator& sim, NandArray& nand) : SegmentLog(sim, nand, Params{}) {}
  SegmentLog(sim::Simulator& sim, NandArray& nand, Params params);

  /// Spawns the background GC thread. Call once before appends.
  void start();

  /// A reserved log position (see reserve()/program_reserved()).
  struct Reservation {
    std::uint64_t slot = 0;
    std::uint64_t history_index = 0;
  };

  /// Reserves the next log position for (lba, version). Call sequentially:
  /// the reservation order defines the persist order that in-order recovery
  /// preserves. May block waiting for GC to free a segment.
  sim::Task reserve(Lba lba, Version version, Reservation& out);

  /// Programs a reserved slot; safe to run many concurrently (this is where
  /// the multi-channel parallelism comes from).
  sim::Task program_reserved(Reservation r);

  /// reserve() + program_reserved() in one step (convenience/tests).
  sim::Task append(Lba lba, Version version);

  /// Reads the page currently mapped to `lba` (no-op timing if unmapped).
  sim::Task read(Lba lba);

  // ---- crash / durability analysis (non-destructive) --------------------

  /// Durable state under in-order recovery: longest programmed prefix of
  /// the append log, applied in log order.
  std::unordered_map<Lba, Version> durable_in_order_recovery() const;

  /// Durable state when every individually-programmed page survives
  /// (legacy devices without barrier support), applied in log order.
  std::unordered_map<Lba, Version> durable_programmed_set() const;

  /// Index (into the append history) one past the longest programmed
  /// prefix. Used by the cache to answer flush().
  std::uint64_t programmed_prefix() const noexcept { return prefix_; }

  std::uint64_t append_count() const noexcept { return history_.size(); }
  std::uint64_t free_segment_count() const noexcept {
    return free_segments_.size();
  }
  const GcStats& gc_stats() const noexcept { return gc_; }

  /// Notified every time the programmed prefix advances.
  sim::Notify& prefix_advanced() noexcept { return prefix_advanced_; }

  /// True while GC is erasing a segment (the controller stalls host
  /// commands during the erase burst; source of the 99.99th-pct tails).
  bool erasing() const noexcept { return erasing_; }
  sim::Notify& erase_done() noexcept { return erase_done_; }

  /// Synchronously pre-populates the log to `utilization` (0..1) of
  /// physical capacity with pages spread over `lba_span` addresses, so GC
  /// has realistic work from the start of a benchmark. No simulated time
  /// elapses.
  void prefill(double utilization, Lba lba_span, sim::Rng& rng);

  /// The version currently mapped at `lba` on flash, if any (test helper).
  std::optional<Version> mapped_version(Lba lba) const;

 private:
  struct AppendRecord {
    Lba lba;
    Version version;
    bool programmed = false;
    /// GC relocation of content whose source copy was already programmed:
    /// recovery can fall back to the source (its segment is not erased
    /// until the copy lands), so an in-flight relocation must not truncate
    /// the in-order-recovery prefix.
    bool gc_redundant = false;
  };
  struct PhysSlot {
    Lba lba = 0;
    bool valid = false;
  };
  struct Segment {
    std::vector<PhysSlot> slots;
    std::uint32_t next_offset = 0;  // append cursor within the segment
    std::uint32_t valid_count = 0;
    bool full() const noexcept {
      return next_offset >= static_cast<std::uint32_t>(slots.size());
    }
  };

  /// Global physical slot id = segment * pages_per_segment + offset.
  using SlotId = std::uint64_t;

  std::uint32_t chip_of(SlotId slot) const noexcept {
    return static_cast<std::uint32_t>(slot % nand_.chip_count());
  }

  /// Allocates the next physical slot and history index. Synchronous (no
  /// suspension between the capacity check and the assignment).
  struct Alloc {
    SlotId slot;
    std::uint64_t history_index;
  };
  Alloc allocate_slot(Lba lba, Version version);

  /// True if a slot can be allocated right now.
  bool space_available() const noexcept;

  void install_mapping(Lba lba, SlotId slot);
  void mark_programmed(std::uint64_t history_index);
  void advance_prefix();

  sim::Task gc_loop();
  sim::Task relocate_slot(SlotId victim_slot, sim::Semaphore& inflight);
  bool needs_gc() const noexcept {
    return free_segments_.size() <= params_.gc_low_watermark;
  }

  sim::Simulator& sim_;
  NandArray& nand_;
  Params params_;
  Geometry geom_;

  std::vector<Segment> segments_;
  std::deque<std::uint32_t> free_segments_;
  std::uint32_t active_segment_;

  struct MappedContent {
    Version version = 0;
    std::uint64_t history_index = 0;  // record that installed this mapping
  };
  std::unordered_map<Lba, SlotId> mapping_;
  std::unordered_map<Lba, MappedContent> mapped_version_;

  std::vector<AppendRecord> history_;  // append order = persist order
  std::uint64_t prefix_ = 0;           // programmed prefix watermark

  sim::Notify space_freed_;
  sim::Notify gc_wake_;
  sim::Notify prefix_advanced_;
  bool erasing_ = false;
  sim::Notify erase_done_;
  GcStats gc_;
  bool started_ = false;
};

}  // namespace bio::flash
