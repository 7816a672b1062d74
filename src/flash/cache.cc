#include "flash/cache.h"

namespace bio::flash {

sim::Task WritebackCache::insert(Lba lba, Version version, std::uint64_t epoch,
                                 bool barrier) {
  co_await space_.acquire();
  Entry e;
  e.lba = lba;
  e.version = version;
  e.epoch = epoch;
  e.order = next_order_++;
  e.barrier = barrier;
  ++dirty_;
  newest_[lba] = e.order;
  history_.push_back(e);
  drain_ready_.notify_all();
}

sim::Task WritebackCache::claim_next(Entry& out) {
  while (claim_ == next_order_) co_await drain_ready_.wait();
  out = history_[claim_++];
}

void WritebackCache::mark_drained(std::uint64_t order) {
  BIO_CHECK_MSG(order < next_order_ && !history_[order].drained,
                "mark_drained on unknown order");
  history_[order].drained = true;
  --dirty_;
  while (drain_ < next_order_ && history_[drain_].drained) ++drain_;
  space_.release();
  drained_.notify_all();
}

sim::Task WritebackCache::wait_drained_through(std::uint64_t through) {
  while (!drained_through(through)) co_await drained_.wait();
}

std::optional<Version> WritebackCache::lookup(Lba lba) const {
  auto it = newest_.find(lba);
  if (it == newest_.end() || history_[it->second].drained) return std::nullopt;
  return history_[it->second].version;
}

std::vector<WritebackCache::Entry> WritebackCache::undrained_entries() const {
  std::vector<Entry> out;
  out.reserve(dirty_);
  for (std::uint64_t o = drain_; o < next_order_; ++o)
    if (!history_[o].drained) out.push_back(history_[o]);
  return out;
}

}  // namespace bio::flash
