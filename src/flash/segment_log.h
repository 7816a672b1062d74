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
//
// Host memory stays independent of run length: a flat per-LBA table
// (flash/lba_table.h: slot, mapped version and durable version, in
// 4096-LBA leaves allocated on first touch) plus a ring of the records from
// the oldest unprogrammed one onward. When that oldest record finishes
// programming it folds into its LBA's durable version, so both durable
// queries cost O(LBA span + window), never O(appends ever), and fill their
// maps in ascending LBA order before replaying the window.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flash/geometry.h"
#include "flash/lba_table.h"
#include "flash/nand.h"
#include "flash/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::flash {

class SegmentLog {
 public:
  struct GcStats {
    std::uint64_t runs = 0;
    std::uint64_t pages_copied = 0;
    std::uint64_t segments_erased = 0;
  };

  SegmentLog(sim::Simulator& sim, NandArray& nand);

  /// Spawns the background GC thread. Call once before reservations.
  void start();

  /// A reserved log position. Its page is programmed on chip_of() (many
  /// concurrently: this is where the multi-channel parallelism comes
  /// from), then recorded with programmed().
  struct Reservation {
    std::uint64_t slot = 0;
    std::uint64_t record_index = 0;
  };

  /// Reserves the next log position for (lba, version). Call sequentially:
  /// the reservation order defines the persist order that in-order recovery
  /// preserves. Without a free slot it wakes GC and returns false; the
  /// caller waits on space_freed() and tries again.
  bool try_reserve(Lba lba, Version version, Reservation& out);

  /// Notified whenever GC frees a segment.
  sim::Notify& space_freed() noexcept { return space_freed_; }

  /// The chip that programs `r`'s page.
  std::uint32_t chip_of(const Reservation& r) const noexcept {
    return chip_of(r.slot);
  }

  /// Records `r`'s page as programmed (in any order across reservations).
  void programmed(const Reservation& r) { mark_programmed(r.record_index); }

  /// Reads the page currently mapped to `lba` (no-op timing if unmapped).
  sim::Task read(Lba lba);

  // ---- crash / durability analysis (non-destructive) --------------------

  /// Durable state under in-order recovery: longest programmed prefix of
  /// the append log, applied in log order (the folded table, then the
  /// window records below the prefix).
  std::unordered_map<Lba, Version> durable_in_order_recovery() const;

  /// Durable state when every individually-programmed page survives
  /// (legacy devices without barrier support), applied in log order (the
  /// folded table, then the window's programmed records).
  std::unordered_map<Lba, Version> durable_programmed_set() const;

  /// Record index one past the longest programmed prefix of the log.
  std::uint64_t programmed_prefix() const noexcept { return prefix_; }

  std::uint64_t append_count() const noexcept { return appends_; }
  std::uint64_t free_segment_count() const noexcept {
    return free_segments_.size();
  }
  const GcStats& gc_stats() const noexcept { return gc_; }

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
  /// Global physical slot id = segment * pages_per_segment + offset.
  using SlotId = std::uint64_t;

  /// Everything the log keeps per LBA. An LBA never written reads
  /// `has_mapping == false`: its leaf exists because a neighbour's does.
  struct LbaState {
    SlotId slot = 0;
    /// Version currently mapped at `slot`, and the record that installed it.
    Version mapped = 0;
    std::uint64_t index = 0;
    /// Newest version among the folded records (all programmed, all below
    /// fold_); prefill writes version 0, hence the flag.
    Version durable = 0;
    bool has_durable = false;
    bool has_mapping = false;
  };

  struct AppendRecord {
    Lba lba = 0;
    /// The LBA's table entry: leaves never move.
    LbaState* state = nullptr;
    Version version = 0;
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

  std::uint32_t chip_of(SlotId slot) const noexcept {
    return static_cast<std::uint32_t>(slot % nand_.chip_count());
  }

  /// Allocates the next physical slot and record index. Synchronous (no
  /// suspension between the capacity check and the assignment).
  struct Alloc {
    SlotId slot;
    std::uint64_t record_index;
  };
  Alloc allocate_slot(Lba lba, Version version);

  /// True if a slot can be allocated right now.
  bool space_available() const noexcept;

  AppendRecord& record(std::uint64_t index) noexcept {
    return window_[index & (window_.size() - 1)];
  }
  const AppendRecord& record(std::uint64_t index) const noexcept {
    return window_[index & (window_.size() - 1)];
  }
  /// Doubles the window ring, re-placing records [fold_, appends_).
  void grow_window();
  void mark_programmed(std::uint64_t record_index);
  void advance_prefix();
  /// The folded table's durable versions (the start of both queries).
  std::unordered_map<Lba, Version> durable_folded() const;
  /// Folds programmed records at the window's front into their LBAs'
  /// durable versions.
  void fold();

  sim::Task gc_loop();
  sim::Task relocate_slot(SlotId victim_slot);
  /// GC starts when free segments drop to this count.
  static constexpr std::uint32_t kGcLowWatermark = 3;
  /// Concurrent GC page relocations.
  static constexpr std::uint32_t kGcInflight = 8;

  bool needs_gc() const noexcept {
    return free_segments_.size() <= kGcLowWatermark;
  }

  sim::Simulator& sim_;
  NandArray& nand_;
  Geometry geom_;

  std::vector<Segment> segments_;
  std::deque<std::uint32_t> free_segments_;
  std::uint32_t active_segment_;

  LbaTable<LbaState> lbas_;
  /// LBAs ever mapped (durable_folded() sizes its map by it).
  std::size_t mapped_lbas_ = 0;
  /// Records [fold_, appends_) at index & (size - 1); append order =
  /// persist order. Every record below fold_ is programmed and folded.
  std::vector<AppendRecord> window_;
  std::uint64_t fold_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t prefix_ = 0;  // programmed prefix watermark

  sim::Notify space_freed_;
  sim::Notify gc_wake_;
  // gc_loop's per-run scratch, kept across runs with its storage: the
  // relocation workers, the bound on their concurrency and the erasers.
  std::vector<sim::Thread> gc_workers_;
  sim::Semaphore gc_inflight_;
  std::vector<sim::Thread> gc_erasers_;
  bool erasing_ = false;
  sim::Notify erase_done_;
  GcStats gc_;
  bool started_ = false;
};

}  // namespace bio::flash
