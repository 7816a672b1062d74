// Host IO schedulers. The epoch scheduler (epoch_scheduler.h) wraps one of
// these to add barrier semantics; on their own they model the legacy,
// freely-reordering elevator of the orderless IO stack (§2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blk/request.h"
#include "sim/reuse.h"

namespace bio::blk {

/// Maximum blocks in a merged request (128 × 4 KiB = 512 KiB, the typical
/// max_sectors_kb).
inline constexpr std::size_t kMaxMergedBlocks = 128;

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
  bool empty() const { return size() == 0; }

  /// True if any queued request is order-preserving (epoch bookkeeping).
  virtual bool has_ordered() const = 0;

  virtual const char* name() const = 0;

  const Stats& stats() const noexcept { return stats_; }

 protected:
  /// Tries to append `r` to `back` (back-merge). Returns true on success.
  /// Merged requests inherit order-preservation from either constituent.
  static bool try_back_merge(Request& back, const Request& r);

  Stats stats_;
};

/// FIFO with back-merging of contiguous writes (Linux NOOP).
class NoopScheduler : public IoScheduler {
 public:
  void enqueue(RequestPtr r) override;
  RequestPtr dequeue() override;
  std::size_t size() const override { return queue_.size(); }
  bool has_ordered() const override;
  const char* name() const override { return "noop"; }

 private:
  sim::FlatQueue<RequestPtr> queue_;
};

/// One-way elevator (C-SCAN) with front/back merging: dispatches writes in
/// ascending LBA order from the current head position, wrapping around.
/// Reads and flushes dispatch FIFO ahead of writes (deadline-style).
class ElevatorScheduler : public IoScheduler {
 public:
  void enqueue(RequestPtr r) override;
  RequestPtr dequeue() override;
  std::size_t size() const override {
    return writes_.size() + others_.size();
  }
  bool has_ordered() const override;
  const char* name() const override { return "elevator"; }

 private:
  std::vector<RequestPtr> writes_;  // kept sorted by first_lba
  sim::FlatQueue<RequestPtr> others_;  // reads + flushes, FIFO
  flash::Lba head_pos_ = 0;
};

std::unique_ptr<IoScheduler> make_scheduler(const std::string& kind);

}  // namespace bio::blk
