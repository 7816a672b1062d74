// The one adapter between iobench and the stack's per-layer statistics.
//
// Every counter the benchmark reads below the api/ surface is read here, and
// every per-layer metric leaves this file under a stable dotted name
// (`<module>.<metric>`, queues/ports/channels expanded as blk.q0,
// flash.port3, flash.ch7). When the per-layer Stats structs are replaced by
// one metrics snapshot, only this file changes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "blk/epoch_scheduler.h"
#include "core/stack.h"
#include "sim/frame_pool.h"

namespace iobench::layers {

using namespace bio;

/// Fixed expansion widths, so the metric names never depend on the run:
/// the plain-SSD profile has 8 channels (one device port each) and the
/// deepest workload runs 4 software queues.
inline constexpr std::uint32_t kQueues = 4;
inline constexpr std::uint32_t kPorts = 8;
inline constexpr std::uint32_t kChannels = 8;

/// Monotonic counters of every layer; a window's metrics are the difference
/// of two snapshots.
struct Counters {
  // fs
  std::uint64_t writeback_pages = 0;
  std::uint64_t commits = 0;
  std::uint64_t journal_blocks = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t journal_wraps = 0;
  std::uint64_t journal_stalls = 0;
  std::uint64_t checkpoint_flushes = 0;
  // blk
  std::uint64_t requests = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t io_failures = 0;
  std::uint64_t merges = 0;
  std::uint64_t reassignments = 0;
  std::array<std::uint64_t, kQueues> queue_dispatched{};
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_heap = 0;
  // flash
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t flushes = 0;
  std::uint64_t barrier_writes = 0;
  std::uint64_t busy_rejections = 0;
  std::array<std::uint64_t, kPorts> port_submissions{};
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_pages_copied = 0;
  std::uint64_t nand_programs = 0;
  std::uint64_t nand_erases = 0;
  std::array<std::uint64_t, kChannels> channel_programs{};
  // sim
  std::uint64_t events = 0;
  std::uint64_t frames_fresh = 0;

  std::uint64_t device_cmds() const noexcept {
    return writes + reads + flushes;
  }
};

inline const blk::EpochScheduler* epoch_of(const blk::IoScheduler& s) {
  return dynamic_cast<const blk::EpochScheduler*>(&s);
}

/// Elevator merges live in the base scheduler an EpochScheduler wraps.
inline const blk::IoScheduler& base_of(const blk::IoScheduler& s) {
  const blk::EpochScheduler* e = epoch_of(s);
  return e != nullptr ? e->base() : s;
}

inline Counters read(core::Stack& stack) {
  Counters c;
  fs::Filesystem& fs = stack.fs();
  c.writeback_pages = fs.stats().writeback_pages;
  const fs::Journal::Stats& j = fs.journal().stats();
  c.commits = j.commits;
  c.journal_blocks = j.journal_blocks_written;
  c.checkpoint_writes = j.checkpoint_writes;
  c.journal_wraps = j.journal_wraps;
  c.journal_stalls = j.journal_stalls;
  c.checkpoint_flushes = j.checkpoint_flushes;

  blk::BlockLayer& b = stack.blk();
  c.requests = b.stats().submitted;
  c.busy_retries = b.stats().busy_retries;
  c.io_failures = b.stats().io_failures;
  for (std::uint32_t q = 0; q < b.nr_queues(); ++q) {
    const blk::IoScheduler& s = b.scheduler(q);
    c.merges += base_of(s).stats().merges;
    if (const blk::EpochScheduler* e = epoch_of(s))
      c.reassignments += e->barrier_reassignments();
    if (q < kQueues) c.queue_dispatched[q] = s.stats().dispatched;
  }
  const blk::RequestPool::Stats& pool = b.pool().stats();
  c.pool_acquired = pool.acquired;
  c.pool_heap =
      pool.fresh_requests + pool.ctrl_allocs + pool.block_heap_allocs;

  flash::StorageDevice& d = stack.device();
  c.writes = d.stats().writes;
  c.reads = d.stats().reads;
  c.flushes = d.stats().flushes;
  c.barrier_writes = d.stats().barrier_writes;
  c.busy_rejections = d.stats().busy_rejections;
  for (std::uint32_t p = 0; p < std::min(kPorts, d.port_count()); ++p)
    c.port_submissions[p] = d.port_submissions(p);
  const flash::SegmentLog::GcStats& gc = d.log().gc_stats();
  c.gc_runs = gc.runs;
  c.gc_pages_copied = gc.pages_copied;
  const flash::NandArray& nand = d.nand();
  c.nand_programs = nand.programs_issued();
  c.nand_erases = nand.erases_issued();
  for (std::uint32_t ch = 0;
       ch < std::min(kChannels, nand.geometry().channels); ++ch)
    c.channel_programs[ch] = nand.channel_programs(ch);

  c.events = stack.sim().events_dispatched();
  c.frames_fresh = sim::frame_pool_stats().fresh;
  return c;
}

inline Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.writeback_pages = a.writeback_pages - b.writeback_pages;
  d.commits = a.commits - b.commits;
  d.journal_blocks = a.journal_blocks - b.journal_blocks;
  d.checkpoint_writes = a.checkpoint_writes - b.checkpoint_writes;
  d.journal_wraps = a.journal_wraps - b.journal_wraps;
  d.journal_stalls = a.journal_stalls - b.journal_stalls;
  d.checkpoint_flushes = a.checkpoint_flushes - b.checkpoint_flushes;
  d.requests = a.requests - b.requests;
  d.busy_retries = a.busy_retries - b.busy_retries;
  d.io_failures = a.io_failures - b.io_failures;
  d.merges = a.merges - b.merges;
  d.reassignments = a.reassignments - b.reassignments;
  for (std::uint32_t q = 0; q < kQueues; ++q)
    d.queue_dispatched[q] = a.queue_dispatched[q] - b.queue_dispatched[q];
  d.pool_acquired = a.pool_acquired - b.pool_acquired;
  d.pool_heap = a.pool_heap - b.pool_heap;
  d.writes = a.writes - b.writes;
  d.reads = a.reads - b.reads;
  d.flushes = a.flushes - b.flushes;
  d.barrier_writes = a.barrier_writes - b.barrier_writes;
  d.busy_rejections = a.busy_rejections - b.busy_rejections;
  for (std::uint32_t p = 0; p < kPorts; ++p)
    d.port_submissions[p] = a.port_submissions[p] - b.port_submissions[p];
  d.gc_runs = a.gc_runs - b.gc_runs;
  d.gc_pages_copied = a.gc_pages_copied - b.gc_pages_copied;
  d.nand_programs = a.nand_programs - b.nand_programs;
  d.nand_erases = a.nand_erases - b.nand_erases;
  for (std::uint32_t ch = 0; ch < kChannels; ++ch)
    d.channel_programs[ch] = a.channel_programs[ch] - b.channel_programs[ch];
  d.events = a.events - b.events;
  d.frames_fresh = a.frames_fresh - b.frames_fresh;
  return d;
}

/// The lower-layer counters a traced api span carries across its call.
struct SpanCounters {
  std::uint64_t commits = 0;
  std::uint64_t requests = 0;
  std::uint64_t cmds = 0;
  std::uint64_t flushes = 0;
  std::uint64_t events = 0;
};

inline SpanCounters read_span(core::Stack& stack) {
  const flash::StorageDevice::Stats& d = stack.device().stats();
  return {stack.fs().journal().stats().commits, stack.blk().stats().submitted,
          d.writes + d.reads + d.flushes, d.flushes,
          stack.sim().events_dispatched()};
}

/// Opens a measurement window: restarts the device's time-weighted queue
/// depth accounting (the library workloads do the same after their setup).
inline void begin_window(core::Stack& stack) {
  stack.device().reset_qd_accounting();
}

inline double average_queue_depth(core::Stack& stack) {
  return stack.device().average_queue_depth();
}

/// High-water marks read at op boundaries (traced run only).
class Gauges {
 public:
  void sample(core::Stack& stack) {
    dirty_max_ = std::max<std::uint64_t>(dirty_max_,
                                         stack.fs().page_cache().dirty_count());
    blk::BlockLayer& b = stack.blk();
    for (std::uint32_t q = 0; q < std::min(kQueues, b.nr_queues()); ++q)
      if (const blk::EpochScheduler* e = epoch_of(b.scheduler(q)))
        staged_max_[q] =
            std::max<std::uint64_t>(staged_max_[q], e->staged_count());
  }
  std::uint64_t dirty_max() const noexcept { return dirty_max_; }
  std::uint64_t staged_max(std::uint32_t q) const { return staged_max_[q]; }

 private:
  std::uint64_t dirty_max_ = 0;
  std::array<std::uint64_t, kQueues> staged_max_{};
};

/// Denominators of the per-op ratios, measured by the benchmark.
struct Window {
  double ops = 0;
  double user_pages = 0;
  double avg_qd = 0;
  /// Host CPU nanoseconds of the untraced measured phase.
  double host_ns = 0;
};

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Emits every fs/blk/flash/sim per-layer metric of one window as
/// emit(name, value).
template <typename Emit>
void emit(const Counters& d, const Gauges& g, const Window& w, Emit&& emit) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  emit("fs.journal.commits_per_op", ratio(f(d.commits), w.ops));
  emit("fs.journal.blocks_per_commit",
       ratio(f(d.journal_blocks), f(d.commits)));
  emit("fs.journal.stalls", f(d.journal_stalls));
  emit("fs.journal.wraps", f(d.journal_wraps));
  emit("fs.journal.checkpoint_writes_per_op",
       ratio(f(d.checkpoint_writes), w.ops));
  emit("fs.journal.checkpoint_flushes", f(d.checkpoint_flushes));
  emit("fs.writeback_pages_per_op", ratio(f(d.writeback_pages), w.ops));
  emit("fs.pagecache.dirty_max", f(g.dirty_max()));

  emit("blk.requests_per_op", ratio(f(d.requests), w.ops));
  emit("blk.merges_per_request", ratio(f(d.merges), f(d.requests)));
  emit("blk.busy_retries_per_op", ratio(f(d.busy_retries), w.ops));
  emit("blk.epoch.reassignments_per_op", ratio(f(d.reassignments), w.ops));
  std::uint64_t dispatched = 0;
  for (std::uint64_t v : d.queue_dispatched) dispatched += v;
  for (std::uint32_t q = 0; q < kQueues; ++q) {
    const std::string p = "blk.q" + std::to_string(q);
    emit(p + ".dispatched_share",
         ratio(f(d.queue_dispatched[q]), f(dispatched)));
    emit(p + ".staged_max", f(g.staged_max(q)));
  }
  emit("blk.pool.allocs_per_request",
       ratio(f(d.pool_heap), f(d.pool_acquired)));
  emit("blk.io_failures", f(d.io_failures));

  emit("flash.cmds_per_op", ratio(f(d.device_cmds()), w.ops));
  emit("flash.flushes_per_op", ratio(f(d.flushes), w.ops));
  emit("flash.barrier_writes_per_op", ratio(f(d.barrier_writes), w.ops));
  emit("flash.avg_qd", w.avg_qd);
  emit("flash.busy_rejections_per_op", ratio(f(d.busy_rejections), w.ops));
  std::uint64_t submissions = 0;
  for (std::uint64_t v : d.port_submissions) submissions += v;
  for (std::uint32_t p = 0; p < kPorts; ++p)
    emit("flash.port" + std::to_string(p) + ".submissions_share",
         ratio(f(d.port_submissions[p]), f(submissions)));
  emit("flash.gc.pages_copied_per_user_page",
       ratio(f(d.gc_pages_copied), w.user_pages));
  emit("flash.gc.runs", f(d.gc_runs));
  emit("flash.nand.programs_per_op", ratio(f(d.nand_programs), w.ops));
  emit("flash.nand.erases_per_op", ratio(f(d.nand_erases), w.ops));
  std::uint64_t programs = 0;
  for (std::uint64_t v : d.channel_programs) programs += v;
  for (std::uint32_t ch = 0; ch < kChannels; ++ch)
    emit("flash.ch" + std::to_string(ch) + ".programs_share",
         ratio(f(d.channel_programs[ch]), f(programs)));

  emit("sim.events_per_op", ratio(f(d.events), w.ops));
  emit("sim.frame_pool.fresh_per_op", ratio(f(d.frames_fresh), w.ops));
  emit("sim.host_ns_per_event", ratio(w.host_ns, f(d.events)));
  emit("host.ns_per_io", ratio(w.host_ns, f(d.device_cmds())));
}

}  // namespace iobench::layers
