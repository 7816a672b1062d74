#include "blk/io_scheduler.h"

#include <algorithm>

namespace bio::blk {

bool ElevatorScheduler::try_back_merge(Request& back, const Request& r) {
  if (!back.is_write() || !r.is_write()) return false;
  // Flush/FUA attributes pin a request's identity; never merge across them.
  if (back.flush || back.fua || r.flush || r.fua) return false;
  // Barrier flags never reach the epoch scheduler's elevator (it strips
  // them or holds the barrier aside), but be defensive: a barrier must stay
  // the last block of its epoch, so nothing may merge behind it.
  if (back.barrier || r.barrier) return false;
  // Under the cross-queue fence a merged request transfers as one command
  // with one stamp, so merging across fence epochs would either promote
  // old-epoch data past a peer barrier or pull new-epoch data below one
  // (front-merge). Single-queue stacks stamp nothing: both sides are 0.
  if (back.fence_epoch != r.fence_epoch) return false;
  if (back.blocks.size() + r.blocks.size() > kMaxMergedBlocks) return false;
  if (back.last_lba() + 1 != r.first_lba()) return false;
  back.blocks.append(r.blocks.data(), r.blocks.size());
  back.ordered = back.ordered || r.ordered;  // §3.3: merge keeps ordering
  return true;
}

void ElevatorScheduler::enqueue(RequestPtr r) {
  ++stats_.enqueued;
  if (!r->is_write()) {
    others_.push_back(std::move(r));
    return;
  }
  // Insert in LBA order; try to merge with the neighbours.
  auto pos = std::lower_bound(
      writes_.begin(), writes_.end(), r->first_lba(),
      [](const RequestPtr& q, flash::Lba lba) { return q->first_lba() < lba; });
  if (pos != writes_.begin()) {
    auto prev = std::prev(pos);
    if (try_back_merge(**prev, *r)) {
      ++stats_.merges;
      absorb(**prev, std::move(r));
      return;
    }
  }
  if (pos != writes_.end() && try_back_merge(*r, **pos)) {
    // Front-merge: r absorbs *pos and takes its place.
    ++stats_.merges;
    absorb(*r, std::move(*pos));
    *pos = std::move(r);
    return;
  }
  writes_.insert(pos, std::move(r));
}

RequestPtr ElevatorScheduler::dequeue() {
  if (!others_.empty()) {
    ++stats_.dispatched;
    return others_.pop_front();
  }
  if (writes_.empty()) return nullptr;
  // C-SCAN: first request at or above the head position, else wrap.
  auto pos = std::lower_bound(
      writes_.begin(), writes_.end(), head_pos_,
      [](const RequestPtr& q, flash::Lba lba) { return q->first_lba() < lba; });
  if (pos == writes_.end()) pos = writes_.begin();
  RequestPtr r = std::move(*pos);
  writes_.erase(pos);
  head_pos_ = r->last_lba() + 1;
  ++stats_.dispatched;
  return r;
}

bool ElevatorScheduler::has_ordered() const {
  return std::any_of(writes_.begin(), writes_.end(),
                     [](const RequestPtr& r) { return r->ordered; });
}

}  // namespace bio::blk
