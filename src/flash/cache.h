// Device write-back cache.
//
// Write commands DMA their blocks into this cache; the StorageDevice's drain
// loop moves entries to flash via the SegmentLog in transfer order. Each
// entry is tagged with the *device epoch* current at its transfer time:
// barrier writes advance the epoch, and the crash-invariant checkers read
// the epoch tags from an installed transfer recorder.
//
// With power-loss protection (supercap) the cache itself is durable, so a
// flush answers in O(1); without PLP a flush must wait until every entry
// transferred so far has been programmed.
//
// Entries are dense by order, and only the live ones are kept: orders
// [drain cursor, next order) sit in a power-of-two ring indexed by order.
// A claim cursor walks it for the drain loop, the drain cursor marks the
// oldest entry not yet programmed, and each entry's `drained` flag covers
// out-of-order program completions. Those completions can stretch the live
// span past the cache capacity; the ring then doubles (it never shrinks).
// Each LBA's newest order sits in a flat LbaTable (flash/lba_table.h), so
// a read's cache lookup is two indexed loads. Inserting and draining
// allocate nothing beyond the ring's growth and one 4096-entry leaf per
// 4096 LBAs of span, on first touch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flash/lba_table.h"
#include "flash/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::flash {

class WritebackCache {
 public:
  struct Entry {
    Lba lba = 0;
    Version version = 0;
    std::uint64_t epoch = 0;
    /// Arrival (transfer) order, dense from 0.
    std::uint64_t order = 0;
    /// True if the write carried the barrier flag (last block of a barrier
    /// command); kept for analysis.
    bool barrier = false;
    /// Programmed to flash and its cache slot released (live state: false
    /// in try_claim()'s and the recorder's copies).
    bool drained = false;
  };

  /// Every transferred entry in arrival order, appended by insert() while
  /// installed: the only full transfer history (epoch-prefix checks and
  /// the crash checker's BIO_CHK_DEBUG dump).
  using TransferRecorder = std::vector<Entry>;

  WritebackCache(sim::Simulator& sim, std::size_t capacity_entries);

  /// Waits for a free cache slot: the DMA landing point blocks here while
  /// the cache is full, which is how a saturated device back-pressures the
  /// host. Each insert() fills one slot acquired this way.
  sim::Semaphore::Awaiter acquire_slot() noexcept { return space_.acquire(); }

  /// Records a transferred block in a slot taken with acquire_slot().
  void insert(Lba lba, Version version, std::uint64_t epoch, bool barrier);

  /// Claims the oldest not-yet-claimed dirty entry, FIFO order; false
  /// while every entry is claimed.
  bool try_claim(Entry& out) noexcept {
    if (claim_ == next_order_) return false;
    out = slot(claim_++);
    return true;
  }

  /// Notified on every insert() (a drain loop waits here while it finds
  /// nothing to claim).
  sim::Notify& inserted() noexcept { return inserted_; }

  /// Marks `order` programmed to flash and releases its cache slot.
  void mark_drained(std::uint64_t order);

  /// Highest order id assigned so far +1 (0 if no entries yet).
  std::uint64_t next_order() const noexcept { return next_order_; }

  /// True when every entry with order < `through` has been drained.
  bool drained_through(std::uint64_t through) const noexcept {
    return drain_ == next_order_ || drain_ >= through;
  }

  /// Notified on every mark_drained() (a flush waits here until
  /// drained_through() holds).
  sim::Notify& drained() noexcept { return drained_; }

  /// Latest cached version for `lba`, if its newest write is still dirty.
  std::optional<Version> lookup(Lba lba) const;

  /// Entries transferred but not yet drained, in arrival order (crash
  /// analysis for PLP devices; snapshot copy).
  std::vector<Entry> undrained_entries() const;

  /// Installs (or, with nullptr, removes) the transfer recorder. The
  /// caller owns it; with none installed an insert pays one null test.
  void install_transfer_recorder(TransferRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  std::size_t dirty_count() const noexcept { return dirty_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  Entry& slot(std::uint64_t order) noexcept {
    return ring_[order & (ring_.size() - 1)];
  }
  const Entry& slot(std::uint64_t order) const noexcept {
    return ring_[order & (ring_.size() - 1)];
  }
  /// Doubles the ring, re-placing the live orders.
  void grow();

  sim::Simulator& sim_;
  std::size_t capacity_;
  sim::Semaphore space_;
  sim::Notify inserted_;
  sim::Notify drained_;

  std::uint64_t next_order_ = 0;
  /// Next order try_claim() hands out: [claim_, next_order_) is pending.
  std::uint64_t claim_ = 0;
  /// Oldest undrained order (next_order_ when none): every entry below it
  /// is drained; entries above it may have drained out of order.
  std::uint64_t drain_ = 0;
  /// Entries transferred and not yet drained.
  std::size_t dirty_ = 0;
  /// Order + 1 of each LBA's newest write (0: never written); it is still
  /// dirty while that order is live and undrained.
  LbaTable<std::uint64_t> newest_;
  /// Live entries, orders [drain_, next_order_), at order & (size - 1).
  std::vector<Entry> ring_;
  TransferRecorder* recorder_ = nullptr;
};

}  // namespace bio::flash
