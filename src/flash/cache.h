// Device write-back cache.
//
// Write commands DMA their blocks into this cache; the StorageDevice's drain
// loop moves entries to flash via the SegmentLog in transfer order. Each
// entry is tagged with the *device epoch* current at its transfer time:
// barrier writes advance the epoch, and the crash-invariant checkers read
// the epoch tags from transfer_history().
//
// With power-loss protection (supercap) the cache itself is durable, so a
// flush answers in O(1); without PLP a flush must wait until every entry
// transferred so far has been programmed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

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
  };

  WritebackCache(sim::Simulator& sim, std::size_t capacity_entries)
      : sim_(sim), capacity_(capacity_entries), space_(sim, capacity_entries),
        drain_ready_(sim), drained_(sim) {
    BIO_CHECK(capacity_ > 0);
  }

  /// DMA landing point: blocks until a cache slot is free (this is how a
  /// saturated device back-pressures the host), then records the entry.
  sim::Task insert(Lba lba, Version version, std::uint64_t epoch,
                   bool barrier);

  /// Oldest not-yet-claimed dirty entry, FIFO order. Blocks while empty.
  /// Returns nullopt only if the cache was shut down (not implemented: the
  /// simulator tears the drain thread down instead).
  sim::Task claim_next(Entry& out);

  /// Marks `order` programmed to flash and releases its cache slot.
  void mark_drained(std::uint64_t order);

  /// Highest order id assigned so far +1 (0 if no entries yet).
  std::uint64_t next_order() const noexcept { return next_order_; }

  /// True when every entry with order < `through` has been drained.
  bool drained_through(std::uint64_t through) const noexcept {
    return undrained_.empty() || *undrained_.begin() >= through;
  }

  /// Blocks until drained_through(through) holds.
  sim::Task wait_drained_through(std::uint64_t through);

  /// Latest cached version for `lba`, if its newest write is still dirty.
  std::optional<Version> lookup(Lba lba) const;

  /// Entries transferred but not yet drained, in arrival order (crash
  /// analysis for PLP devices; snapshot copy).
  std::vector<Entry> undrained_entries() const;

  /// Full arrival history (order, epoch, barrier) for invariant checks.
  const std::vector<Entry>& transfer_history() const noexcept {
    return history_;
  }

  std::size_t dirty_count() const noexcept { return undrained_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  sim::Notify& drain_ready() noexcept { return drain_ready_; }

 private:
  sim::Simulator& sim_;
  std::size_t capacity_;
  sim::Semaphore space_;
  sim::Notify drain_ready_;
  sim::Notify drained_;

  std::uint64_t next_order_ = 0;
  std::deque<Entry> pending_;               // inserted, not yet claimed
  std::set<std::uint64_t> undrained_;       // claimed or pending, not drained
  std::unordered_map<Lba, std::pair<std::uint64_t, Version>> newest_dirty_;
  std::unordered_map<std::uint64_t, Lba> order_to_lba_;
  std::vector<Entry> history_;
};

}  // namespace bio::flash
