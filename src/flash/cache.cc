#include "flash/cache.h"

#include <bit>

namespace bio::flash {

WritebackCache::WritebackCache(sim::Simulator& sim,
                               std::size_t capacity_entries)
    : sim_(sim), capacity_(capacity_entries), space_(sim, capacity_entries),
      inserted_(sim), drained_(sim) {
  BIO_CHECK(capacity_ > 0);
  // In-order drains keep the live span within the capacity.
  ring_.resize(std::bit_ceil(capacity_));
}

void WritebackCache::grow() {
  std::vector<Entry> bigger(ring_.size() * 2);
  for (std::uint64_t o = drain_; o < next_order_; ++o)
    bigger[o & (bigger.size() - 1)] = slot(o);
  ring_.swap(bigger);
}

void WritebackCache::insert(Lba lba, Version version, std::uint64_t epoch,
                            bool barrier) {
  if (next_order_ - drain_ == ring_.size()) grow();
  Entry& e = slot(next_order_);
  e = Entry{lba, version, epoch, next_order_++, barrier, false};
  ++dirty_;
  newest_[lba] = e.order + 1;
  if (recorder_ != nullptr) recorder_->push_back(e);
  inserted_.notify_all();
}

void WritebackCache::mark_drained(std::uint64_t order) {
  BIO_CHECK_MSG(order >= drain_ && order < next_order_ && !slot(order).drained,
                "mark_drained on unknown order");
  slot(order).drained = true;
  --dirty_;
  while (drain_ < next_order_ && slot(drain_).drained) ++drain_;
  space_.release();
  drained_.notify_all();
}

std::optional<Version> WritebackCache::lookup(Lba lba) const {
  const std::uint64_t* newest = newest_.find(lba);
  if (newest == nullptr || *newest == 0) return std::nullopt;
  const std::uint64_t order = *newest - 1;
  if (order < drain_ || slot(order).drained) return std::nullopt;
  return slot(order).version;
}

std::vector<WritebackCache::Entry> WritebackCache::undrained_entries() const {
  std::vector<Entry> out;
  out.reserve(dirty_);
  for (std::uint64_t o = drain_; o < next_order_; ++o)
    if (!slot(o).drained) out.push_back(slot(o));
  return out;
}

}  // namespace bio::flash
