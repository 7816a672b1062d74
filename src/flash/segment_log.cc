#include "flash/segment_log.h"

#include <algorithm>
#include <limits>

namespace bio::flash {

SegmentLog::SegmentLog(sim::Simulator& sim, NandArray& nand, Params params)
    : sim_(sim),
      nand_(nand),
      params_(params),
      geom_(nand.geometry()),
      space_freed_(sim),
      gc_wake_(sim),
      prefix_advanced_(sim),
      erase_done_(sim) {
  segments_.resize(geom_.segments());
  for (auto& seg : segments_)
    seg.slots.resize(static_cast<std::size_t>(geom_.pages_per_segment()));
  for (std::uint32_t s = 1; s < segments_.size(); ++s)
    free_segments_.push_back(s);
  active_segment_ = 0;
  BIO_CHECK_MSG(geom_.segments() > params_.gc_low_watermark + 1,
                "device too small for the GC watermark");
}

void SegmentLog::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("ftl:gc", gc_loop()).wake_latency = 0;
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
  install_mapping(lba, slot);
  seg->slots[offset] = PhysSlot{lba, true};
  ++seg->valid_count;
  history_.push_back(AppendRecord{lba, version, false, false});
  mapped_version_[lba] = MappedContent{version, history_.size() - 1};
  return Alloc{slot, history_.size() - 1};
}

void SegmentLog::install_mapping(Lba lba, SlotId slot) {
  auto it = mapping_.find(lba);
  if (it != mapping_.end()) {
    const SlotId old = it->second;
    Segment& old_seg = segments_[old / geom_.pages_per_segment()];
    PhysSlot& old_slot = old_seg.slots[old % geom_.pages_per_segment()];
    if (old_slot.valid) {
      old_slot.valid = false;
      BIO_CHECK(old_seg.valid_count > 0);
      --old_seg.valid_count;
    }
    it->second = slot;
  } else {
    mapping_.emplace(lba, slot);
  }
}

void SegmentLog::mark_programmed(std::uint64_t history_index) {
  history_[history_index].programmed = true;
  if (history_index <= prefix_) advance_prefix();
}

void SegmentLog::advance_prefix() {
  // gc_redundant records never gate the prefix: their content already sits
  // programmed at an earlier log position, and the source segment outlives
  // the relocation, so recovery loses nothing if the copy is torn.
  const std::uint64_t before = prefix_;
  while (prefix_ < history_.size() &&
         (history_[prefix_].programmed || history_[prefix_].gc_redundant))
    ++prefix_;
  if (prefix_ != before) prefix_advanced_.notify_all();
}

sim::Task SegmentLog::reserve(Lba lba, Version version, Reservation& out) {
  BIO_CHECK_MSG(started_, "SegmentLog::start() not called");
  while (!space_available()) {
    gc_wake_.notify_all();
    co_await space_freed_.wait();
  }
  const Alloc alloc = allocate_slot(lba, version);
  if (needs_gc()) gc_wake_.notify_all();
  out = Reservation{alloc.slot, alloc.history_index};
}

sim::Task SegmentLog::program_reserved(Reservation r) {
  co_await nand_.program(chip_of(r.slot));
  mark_programmed(r.history_index);
}

sim::Task SegmentLog::append(Lba lba, Version version) {
  Reservation r;
  co_await reserve(lba, version, r);
  co_await program_reserved(r);
}

sim::Task SegmentLog::read(Lba lba) {
  auto it = mapping_.find(lba);
  if (it == mapping_.end()) co_return;  // unmapped: served as zeroes
  co_await nand_.read(chip_of(it->second));
}

std::unordered_map<Lba, Version> SegmentLog::durable_in_order_recovery()
    const {
  std::unordered_map<Lba, Version> state;
  for (std::uint64_t i = 0; i < prefix_; ++i)
    state[history_[i].lba] = history_[i].version;
  return state;
}

std::unordered_map<Lba, Version> SegmentLog::durable_programmed_set() const {
  std::unordered_map<Lba, Version> state;
  for (const AppendRecord& rec : history_)
    if (rec.programmed) state[rec.lba] = rec.version;
  return state;
}

std::optional<Version> SegmentLog::mapped_version(Lba lba) const {
  auto it = mapped_version_.find(lba);
  if (it == mapped_version_.end()) return std::nullopt;
  return it->second.version;
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
    history_[alloc.history_index].programmed = true;
  }
  advance_prefix();
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
    sim::Semaphore inflight(sim_, params_.gc_inflight);
    std::vector<sim::ThreadCtx*> workers;
    const std::uint64_t base =
        static_cast<std::uint64_t>(victim) * geom_.pages_per_segment();
    for (std::uint32_t off = 0; off < geom_.pages_per_segment(); ++off) {
      if (!segments_[victim].slots[off].valid) continue;
      // iolint: detached-owner(the join loop below waits every worker
      // before the semaphore and segment state go away)
      sim::ThreadCtx& w =
          sim_.spawn("gc", relocate_slot(base + off, inflight));
      w.wake_latency = 0;
      workers.push_back(&w);
    }
    for (sim::ThreadCtx* w : workers) co_await sim_.join(*w);
    BIO_CHECK_MSG(segments_[victim].valid_count == 0,
                  "GC victim still has valid pages after relocation");

    // Erase the victim's block on every chip, in parallel. The controller
    // is busy during the erase burst: host commands stall (tail source).
    erasing_ = true;
    std::vector<sim::ThreadCtx*> erasers;
    for (std::uint32_t c = 0; c < nand_.chip_count(); ++c) {
      sim::ThreadCtx& w = sim_.spawn("gc:erase", nand_.erase(c));
      w.wake_latency = 0;
      erasers.push_back(&w);
    }
    for (sim::ThreadCtx* w : erasers) co_await sim_.join(*w);

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

sim::Task SegmentLog::relocate_slot(SlotId victim_slot,
                                    sim::Semaphore& inflight) {
  co_await inflight.acquire();
  const Lba lba =
      segments_[victim_slot / geom_.pages_per_segment()]
          .slots[victim_slot % geom_.pages_per_segment()]
          .lba;
  auto it = mapping_.find(lba);
  if (it == mapping_.end() || it->second != victim_slot) {
    // Overwritten while GC was scanning: nothing to move.
    inflight.release();
    co_return;
  }
  // Synchronous slot assignment keeps log order consistent with mapping
  // updates (no suspension between the check above and the allocation).
  const MappedContent src = mapped_version_.at(lba);
  const Alloc alloc = allocate_slot(lba, src.version);
  // Only a relocation of already-programmed content is redundant for
  // recovery; copying a page whose own program is still in flight must
  // gate the prefix like any other append.
  history_[alloc.history_index].gc_redundant =
      history_[src.history_index].programmed;
  co_await nand_.read(chip_of(victim_slot));
  co_await nand_.program(chip_of(alloc.slot));
  mark_programmed(alloc.history_index);
  ++gc_.pages_copied;
  inflight.release();
}

}  // namespace bio::flash
