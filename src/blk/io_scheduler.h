// Host IO scheduler: the elevator every queue runs. In front of a legacy
// device it is the whole scheduler, the freely reordering elevator of the
// orderless IO stack (§2.1). In front of a barrier device the epoch
// scheduler (epoch_scheduler.h) owns one and lets it reorder freely within
// an epoch (§3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "blk/request.h"
#include "sim/reuse.h"

namespace bio::blk {

/// Maximum blocks in a merged request (128 × 4 KiB = 512 KiB, the typical
/// max_sectors_kb).
inline constexpr std::size_t kMaxMergedBlocks = 128;

/// A software queue's scheduler, as the block layer drives it: the
/// elevator, or the epoch scheduler over its elevator.
class IoScheduler {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t merges = 0;
  };

  virtual ~IoScheduler() = default;

  /// Adds a request, possibly merging it into a queued one.
  virtual void enqueue(RequestPtr r) = 0;

  /// Removes the next request to dispatch; nullptr when empty.
  virtual RequestPtr dequeue() = 0;

  virtual std::size_t size() const = 0;

  const Stats& stats() const noexcept { return stats_; }

 protected:
  Stats stats_;
};

/// One-way elevator (C-SCAN) with front/back merging: dispatches writes in
/// ascending LBA order from the current head position, wrapping around.
/// Reads and flushes dispatch FIFO ahead of writes (deadline-style).
class ElevatorScheduler final : public IoScheduler {
 public:
  void enqueue(RequestPtr r) override;
  RequestPtr dequeue() override;
  std::size_t size() const override {
    return writes_.size() + others_.size();
  }
  /// True if any queued request is order-preserving (the epoch scheduler's
  /// barrier reassignment).
  bool has_ordered() const;

 private:
  /// Tries to append `r` to `back` (back-merge). Returns true on success.
  /// Merged requests inherit order-preservation from either constituent.
  static bool try_back_merge(Request& back, const Request& r);

  std::vector<RequestPtr> writes_;  // kept sorted by first_lba
  sim::FlatQueue<RequestPtr> others_;  // reads + flushes, FIFO
  flash::Lba head_pos_ = 0;
};

}  // namespace bio::blk
