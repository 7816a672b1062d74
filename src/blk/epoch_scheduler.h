// Epoch-based IO scheduling with barrier reassignment (§3.3, Fig 5).
//
// Requests between two barriers form an *epoch*. The scheduler:
//   1. strips the barrier flag from an incoming barrier write and stops
//      accepting new requests (they stage outside the queue),
//   2. lets its elevator freely reorder/merge what is inside (all of it
//      belongs to one epoch, plus orderless requests),
//   3. re-attaches the barrier flag to the *last order-preserving request
//      that leaves the queue* (epoch-based barrier reassignment), then
//      unblocks and feeds the staged requests in.
//
// Orderless requests staged while blocked simply join the next epoch.
//
// Under the multi-queue block layer each software queue owns one of these
// sequencers and an EpochFence couples them. The sequencer's part of the
// fence protocol is bookkeeping, never blocking:
//   * it stamps EVERY request with its fence epoch at enqueue (barriers take
//     the epoch they close and advance the counter; everything else — ordered
//     or not, reads included — takes the open epoch), so the device's
//     (fence_epoch, seq) transfer fencing agrees with enqueue order and no
//     command carries a stale epoch-0 stamp,
//   * it tracks which *write* stamps are still pending — enqueued (staged,
//     queued, or merged into a queued carrier) or popped but not yet accepted
//     by the device. Orderless writes are tracked too: a merge can fold
//     ordered payload into one (§3.3), so any write may end up carrying
//     ordered data. A barrier on a peer queue gates its own submission on
//     min_pending_fence_epoch() of every other queue; the block layer calls
//     note_submitted() when a request reaches the device.
//   * barrier reassignment is NOT used under a fence. A reassigned carrier
//     with an older stamp than the epoch it closes would have to transfer
//     both before any peer barrier between the two epochs (it is old-epoch
//     data) and after that barrier's payload (it is the new epoch's
//     delimiter) — unsatisfiable. Instead the barrier is held aside and
//     dispatched, with its own stamp, once the queue has drained everything
//     enqueued before it; staging of later requests works exactly as in the
//     classic mode.
// With no fence attached (single-queue stacks) none of this runs and
// behavior is exactly the classic sequencer, reassignment included.
#pragma once

#include <algorithm>

#include "blk/epoch_fence.h"
#include "blk/io_scheduler.h"
#include "sim/reuse.h"

namespace bio::blk {

class EpochScheduler final : public IoScheduler {
 public:
  /// Attaches the cross-queue fence (multi-queue stacks only; may be null).
  void set_fence(EpochFence* fence) noexcept { fence_ = fence; }

  void enqueue(RequestPtr r) override {
    ++stats_.enqueued;
    if (fence_ != nullptr) {
      r->fence_epoch =
          r->barrier ? fence_->close_epoch() : fence_->current();
      // Every write gates peer barriers until it reaches the device; reads
      // and flushes carry the stamp for device-side fencing but have no
      // crash-state footprint, so they never gate.
      if (r->is_write()) add_stamp(r->fence_epoch);
    }
    if (blocked_) {
      staged_.push_back(std::move(r));
      return;
    }
    accept(std::move(r));
  }

  RequestPtr dequeue() override {
    // Fenced mode: the held barrier leaves once everything enqueued before
    // it has left. Waiting for the elevator to fully drain (not just its
    // ordered requests) keeps the gate wait-graph acyclic: when a popped
    // barrier gates on its peers, its own queue has no pending stamps below
    // its epoch left behind it.
    if (held_barrier_ != nullptr && elevator_.size() == 0) {
      RequestPtr r = std::move(held_barrier_);
      held_barrier_ = nullptr;
      ++stats_.dispatched;
      blocked_ = false;
      feed();
      return r;
    }
    RequestPtr r = elevator_.dequeue();
    if (r == nullptr) return nullptr;
    ++stats_.dispatched;
    if (fence_ != nullptr) retire_absorbed(*r);
    if (blocked_ && held_barrier_ == nullptr && r->ordered &&
        !elevator_.has_ordered()) {
      // Classic (no-fence) path: this is the last order-preserving request
      // of the closing epoch — it becomes the new barrier (Fig 5, w1 in the
      // paper's example).
      r->barrier = true;
      ++reassignments_;
      blocked_ = false;
      feed();
    }
    return r;
  }

  /// The block layer accepted this request into the device: its stamp stops
  /// gating peer barriers. (Absorbed requests retire with their carrier at
  /// dequeue — merging never crosses fence epochs, so their stamps equal the
  /// carrier's, and the carrier's own stamp stays pending until here; early
  /// retirement can never unblock a gate.)
  void note_submitted(const Request& r) {
    if (fence_ != nullptr && r.is_write()) retire_stamp(r.fence_epoch);
  }

  /// Smallest fence epoch still pending in this queue (~0 when none): the
  /// quantity a peer barrier's submission gate compares its epoch against.
  std::uint64_t min_pending_fence_epoch() const noexcept {
    return pending_.empty() ? ~std::uint64_t{0} : pending_.front().epoch;
  }

  std::size_t size() const override {
    return elevator_.size() + staged_.size() +
           (held_barrier_ != nullptr ? 1 : 0);
  }

  bool blocked() const noexcept { return blocked_; }
  std::size_t staged_count() const noexcept { return staged_.size(); }
  std::uint64_t barrier_reassignments() const noexcept {
    return reassignments_;
  }
  /// The elevator under the epochs (its merge counts).
  const ElevatorScheduler& base() const noexcept { return elevator_; }

 private:
  void accept(RequestPtr r) {
    if (r->barrier) {
      blocked_ = true;
      if (fence_ != nullptr) {
        // Fenced mode: hold the barrier aside with flag and stamp intact
        // (see the header comment for why reassignment is unsound here).
        held_barrier_ = std::move(r);
        return;
      }
      // Strip the flag; the epoch closes once this queue drains its
      // order-preserving requests (the flag is re-attached at dequeue).
      r->barrier = false;
    }
    elevator_.enqueue(std::move(r));
  }

  /// Stamps arrive in nondecreasing epoch order (the fence's counter only
  /// advances), so a new epoch always goes at the back.
  void add_stamp(std::uint64_t epoch) {
    if (!pending_.empty() && pending_.back().epoch == epoch) {
      ++pending_.back().writes;
      return;
    }
    BIO_CHECK(pending_.empty() || pending_.back().epoch < epoch);
    pending_.push_back({epoch, 1});
  }

  void retire_stamp(std::uint64_t epoch) {
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), epoch,
        [](const Pending& p, std::uint64_t e) { return p.epoch < e; });
    BIO_CHECK_MSG(it != pending_.end() && it->epoch == epoch && it->writes > 0,
                  "retiring an untracked fence epoch");
    --it->writes;
    // Epochs retire out of order; drop the drained ones from the front so
    // front() stays the minimum pending epoch.
    while (!pending_.empty() && pending_.front().writes == 0)
      pending_.pop_front();
  }

  /// Requests merged into `r` leave the queue with it; retire their stamps.
  /// Merging is write-only and never crosses fence epochs (the elevator's
  /// try_back_merge), so every absorbed stamp equals the carrier's — which
  /// stays pending until note_submitted. The absorbed list is flat
  /// (blk::absorb).
  void retire_absorbed(const Request& r) {
    for (const RequestPtr& a : r.absorbed) retire_stamp(a->fence_epoch);
  }

  /// Moves staged requests into the elevator, preserving their relative
  /// order, until a staged barrier re-blocks the queue.
  void feed() {
    while (!staged_.empty() && !blocked_) accept(staged_.pop_front());
  }

  ElevatorScheduler elevator_;
  EpochFence* fence_ = nullptr;
  bool blocked_ = false;
  sim::FlatQueue<RequestPtr> staged_;
  /// Fenced mode only: the blocking barrier, kept out of the elevator so
  /// the flag (and its closing-epoch stamp) never migrates.
  RequestPtr held_barrier_;
  /// This queue's pending writes per fence epoch, ascending by epoch. An
  /// epoch whose writes all retired stays until it reaches the front.
  struct Pending {
    std::uint64_t epoch = 0;
    std::uint32_t writes = 0;
  };
  sim::FlatQueue<Pending> pending_;
  std::uint64_t reassignments_ = 0;
};

}  // namespace bio::blk
