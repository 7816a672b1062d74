#include "flash/segment_log.h"

#include <algorithm>
#include <limits>

namespace bio::flash {

SegmentLog::SegmentLog(sim::Simulator& sim, NandArray& nand)
    : sim_(sim),
      nand_(nand),
      geom_(nand.geometry()),
      space_freed_(sim),
      gc_wake_(sim),
      gc_inflight_(sim, kGcInflight),
      erase_done_(sim) {
  segments_.resize(geom_.segments());
  for (auto& seg : segments_)
    seg.slots.resize(static_cast<std::size_t>(geom_.pages_per_segment()));
  for (std::uint32_t s = 1; s < segments_.size(); ++s)
    free_segments_.push_back(s);
  active_segment_ = 0;
  window_.resize(64);
  BIO_CHECK_MSG(geom_.segments() > kGcLowWatermark + 1,
                "device too small for the GC watermark");
}

void SegmentLog::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("ftl:gc", gc_loop())->wake_latency = 0;
}

bool SegmentLog::space_available() const noexcept {
  if (!segments_[active_segment_].full()) return true;
  // Keep two free segments in reserve so GC relocation can always proceed
  // even while foreground traffic is blocked waiting for space.
  return free_segments_.size() > 2;
}

SegmentLog::Alloc SegmentLog::allocate_slot(Lba lba, Version version) {
  Segment* seg = &segments_[active_segment_];
  if (seg->full()) {
    BIO_CHECK_MSG(!free_segments_.empty(), "allocate_slot without space");
    active_segment_ = free_segments_.front();
    free_segments_.pop_front();
    seg = &segments_[active_segment_];
    BIO_CHECK(seg->next_offset == 0);
  }
  const std::uint32_t offset = seg->next_offset++;
  const SlotId slot =
      static_cast<SlotId>(active_segment_) * geom_.pages_per_segment() +
      offset;
  LbaState& st = lbas_[lba];
  if (!st.has_mapping) {
    st.has_mapping = true;
    ++mapped_lbas_;
  } else {
    Segment& old_seg = segments_[st.slot / geom_.pages_per_segment()];
    PhysSlot& old_slot = old_seg.slots[st.slot % geom_.pages_per_segment()];
    if (old_slot.valid) {
      old_slot.valid = false;
      BIO_CHECK(old_seg.valid_count > 0);
      --old_seg.valid_count;
    }
  }
  seg->slots[offset] = PhysSlot{lba, true};
  ++seg->valid_count;
  if (appends_ - fold_ == window_.size()) grow_window();
  const std::uint64_t index = appends_++;
  record(index) = AppendRecord{lba, &st, version, false, false};
  st.slot = slot;
  st.mapped = version;
  st.index = index;
  return Alloc{slot, index};
}

void SegmentLog::grow_window() {
  std::vector<AppendRecord> bigger(window_.size() * 2);
  for (std::uint64_t i = fold_; i < appends_; ++i)
    bigger[i & (bigger.size() - 1)] = record(i);
  window_.swap(bigger);
}

void SegmentLog::mark_programmed(std::uint64_t record_index) {
  record(record_index).programmed = true;
  if (record_index <= prefix_) advance_prefix();
  if (record_index == fold_) fold();
}

void SegmentLog::advance_prefix() {
  // gc_redundant records never gate the prefix: their content already sits
  // programmed at an earlier log position, and the source segment outlives
  // the relocation, so recovery loses nothing if the copy is torn.
  while (prefix_ < appends_ &&
         (record(prefix_).programmed || record(prefix_).gc_redundant))
    ++prefix_;
}

void SegmentLog::fold() {
  while (fold_ < appends_ && record(fold_).programmed) {
    const AppendRecord& rec = record(fold_++);
    rec.state->durable = rec.version;
    rec.state->has_durable = true;
  }
}

bool SegmentLog::try_reserve(Lba lba, Version version, Reservation& out) {
  BIO_CHECK_MSG(started_, "SegmentLog::start() not called");
  if (!space_available()) {
    gc_wake_.notify_all();
    return false;
  }
  const Alloc alloc = allocate_slot(lba, version);
  if (needs_gc()) gc_wake_.notify_all();
  out = Reservation{alloc.slot, alloc.record_index};
  return true;
}

sim::Task SegmentLog::read(Lba lba) {
  const LbaState* st = lbas_.find(lba);
  if (st == nullptr || !st->has_mapping) co_return;  // unmapped: zeroes
  co_await nand_.read(chip_of(st->slot));
}

std::unordered_map<Lba, Version> SegmentLog::durable_folded() const {
  std::unordered_map<Lba, Version> state;
  state.reserve(mapped_lbas_);
  lbas_.for_each([&](Lba lba, const LbaState& st) {
    if (st.has_durable) state.emplace(lba, st.durable);
  });
  return state;
}

std::unordered_map<Lba, Version> SegmentLog::durable_in_order_recovery()
    const {
  std::unordered_map<Lba, Version> state = durable_folded();
  for (std::uint64_t i = fold_; i < prefix_; ++i)
    state[record(i).lba] = record(i).version;
  return state;
}

std::unordered_map<Lba, Version> SegmentLog::durable_programmed_set() const {
  std::unordered_map<Lba, Version> state = durable_folded();
  for (std::uint64_t i = fold_; i < appends_; ++i)
    if (record(i).programmed) state[record(i).lba] = record(i).version;
  return state;
}

std::optional<Version> SegmentLog::mapped_version(Lba lba) const {
  const LbaState* st = lbas_.find(lba);
  if (st == nullptr || !st->has_mapping) return std::nullopt;
  return st->mapped;
}

void SegmentLog::prefill(double utilization, Lba lba_span, sim::Rng& rng) {
  BIO_CHECK(utilization >= 0.0 && utilization < 1.0);
  BIO_CHECK(lba_span > 0);
  const auto target =
      static_cast<std::uint64_t>(utilization *
                                 static_cast<double>(geom_.physical_pages()));
  for (std::uint64_t i = 0; i < target; ++i) {
    if (!space_available()) break;
    const Lba lba = rng.uniform(0, lba_span - 1);
    const Alloc alloc = allocate_slot(lba, /*version=*/0);
    mark_programmed(alloc.record_index);
  }
}

sim::Task SegmentLog::gc_loop() {
  for (;;) {
    while (!needs_gc()) co_await gc_wake_.wait();

    // Victim: the full, non-active segment with the fewest valid pages.
    std::uint32_t victim = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t s = 0; s < segments_.size(); ++s) {
      if (s == active_segment_ || !segments_[s].full()) continue;
      if (segments_[s].valid_count < best_valid) {
        best_valid = segments_[s].valid_count;
        victim = s;
      }
    }
    // A fully-valid victim would gain nothing (and could exhaust the GC
    // reserve); wait until overwrites invalidate some pages.
    if (victim != std::numeric_limits<std::uint32_t>::max() &&
        best_valid >= geom_.pages_per_segment())
      victim = std::numeric_limits<std::uint32_t>::max();
    if (victim == std::numeric_limits<std::uint32_t>::max()) {
      // Nothing collectable yet; wait for more segments to fill.
      co_await gc_wake_.wait();
      continue;
    }

    ++gc_.runs;
    // Relocate valid pages (bounded concurrency), then erase the segment.
    const std::uint64_t base =
        static_cast<std::uint64_t>(victim) * geom_.pages_per_segment();
    for (std::uint32_t off = 0; off < geom_.pages_per_segment(); ++off) {
      if (!segments_[victim].slots[off].valid) continue;
      // iolint: detached-owner(the join loop below waits every worker
      // before the victim segment is reused)
      sim::Thread w = sim_.spawn("gc", relocate_slot(base + off));
      w->wake_latency = 0;
      gc_workers_.push_back(std::move(w));
    }
    for (const sim::Thread& w : gc_workers_) co_await sim_.join(w);
    gc_workers_.clear();
    BIO_CHECK_MSG(segments_[victim].valid_count == 0,
                  "GC victim still has valid pages after relocation");

    // Erase the victim's block on every chip, in parallel. The controller
    // is busy during the erase burst: host commands stall (tail source).
    erasing_ = true;
    for (std::uint32_t c = 0; c < nand_.chip_count(); ++c) {
      sim::Thread w = sim_.spawn("gc:erase", nand_.erase(c));
      w->wake_latency = 0;
      gc_erasers_.push_back(std::move(w));
    }
    for (const sim::Thread& w : gc_erasers_) co_await sim_.join(w);
    gc_erasers_.clear();

    erasing_ = false;
    erase_done_.notify_all();

    Segment& seg = segments_[victim];
    seg.next_offset = 0;
    seg.valid_count = 0;
    for (auto& slot : seg.slots) slot = PhysSlot{};
    free_segments_.push_back(victim);
    ++gc_.segments_erased;
    space_freed_.notify_all();
  }
}

sim::Task SegmentLog::relocate_slot(SlotId victim_slot) {
  co_await gc_inflight_.acquire();
  const Lba lba =
      segments_[victim_slot / geom_.pages_per_segment()]
          .slots[victim_slot % geom_.pages_per_segment()]
          .lba;
  const LbaState* st = lbas_.find(lba);
  if (st == nullptr || !st->has_mapping || st->slot != victim_slot) {
    // Overwritten while GC was scanning: nothing to move.
    gc_inflight_.release();
    co_return;
  }
  // Synchronous slot assignment keeps log order consistent with mapping
  // updates (no suspension between the check above and the allocation).
  const LbaState src = *st;
  const Alloc alloc = allocate_slot(lba, src.mapped);
  // Only a relocation of already-programmed content is redundant for
  // recovery; copying a page whose own program is still in flight must
  // gate the prefix like any other append. Folded records are programmed.
  record(alloc.record_index).gc_redundant =
      src.index < fold_ || record(src.index).programmed;
  co_await nand_.read(chip_of(victim_slot));
  co_await nand_.program(chip_of(alloc.slot));
  mark_programmed(alloc.record_index);
  ++gc_.pages_copied;
  gc_inflight_.release();
}

}  // namespace bio::flash
