#include "chk/crash_check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "api/vfs.h"
#include "flash/fault.h"
#include "fs/recovery.h"
#include "sim/host_pool.h"
#include "sim/rng.h"
#include "wl/trace_writers.h"

namespace bio::chk {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using flash::Lba;

// Fault plans: faults drawn per plan, spread log-uniformly over roughly the
// device write-command count of a fault-free single-writer run (the mean
// over 120 seeds of full runs on the four clean stacks is 76).
constexpr std::uint32_t kMaxFaults = 4;
constexpr std::uint64_t kExpectedWriteOps = 76;
// How long past the cut a block-layer backlog over an idle device may take
// to drain: its dispatch thread's wake-up takes microseconds.
constexpr sim::SimTime kDrainHorizon = 10_ms;

core::StackConfig checker_config(StackKind kind, const SweepSpec& spec) {
  flash::DeviceProfile dev;
  dev.name = "chk";
  dev.geometry = flash::Geometry{.channels = 2,
                                 .ways_per_channel = 2,
                                 .blocks_per_chip = 64,
                                 .pages_per_block = 4};
  dev.nand = flash::NandTiming{.read_page = 50_us,
                               .program_page = 200_us,
                               .erase_block = 1'000_us,
                               .channel_xfer = 10_us};
  dev.queue_depth = 16;
  dev.cache_entries = 64;
  dev.cmd_overhead = 5_us;
  dev.dma_4k = 10_us;
  dev.flush_overhead = 20_us;
  dev.plp_flush_latency = 15_us;
  dev.read_hit_latency = 5_us;
  core::StackConfig cfg = core::StackConfig::make(kind, dev);
  if (spec.journal_blocks != 0) cfg.fs.journal_blocks = spec.journal_blocks;
  cfg.fs.max_inodes = 64;
  cfg.fs.default_extent_blocks = wl::kWriterExtentBlocks;
  cfg.fs.writeback_high_watermark = 1u << 20;  // pdflush off: explicit syncs
  cfg.blk.nr_queues = spec.nr_queues;
  return cfg;
}

// ---- the per-kind contract table ---------------------------------------------
//
// What each concrete syscall promises on each stack kind — the *claimed*
// contract (EXT4-OD claims the same acks as EXT4-DR and is expected to
// break them).

/// Every sync syscall is an order point on its file.
bool call_orders(api::Syscall c) { return c != api::Syscall::kNone; }

/// Data covered by the call is on media when it returns.
bool call_acks_data(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return c == api::Syscall::kDsync;
  return c == api::Syscall::kFsync || c == api::Syscall::kFdatasync;
}

/// i_size as of the call's start is durable when it returns (fdatasync
/// journals size changes — the metadata needed to retrieve the data).
bool call_acks_size(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return false;  // metadata stays delayed
  return c == api::Syscall::kFsync || c == api::Syscall::kFdatasync;
}

/// Namespace ops (rename/unlink) completed before the call are durable
/// when it returns.
bool call_acks_name(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return false;
  return c == api::Syscall::kFsync;
}

/// The call commits the inode's metadata transaction whenever it is dirty;
/// quiescence then makes that commit durable on every stack — the gate for
/// delayed namespace/size facts on the ordering-only stacks.
bool call_commits_meta(api::Syscall c) {
  return c == api::Syscall::kFsync || c == api::Syscall::kFbarrier ||
         c == api::Syscall::kOsync || c == api::Syscall::kDsync;
}

// ---- the oracle ----------------------------------------------------------------

std::string describe(const wl::TraceWrite& w) {
  std::ostringstream os;
  os << "lba=" << w.lba << " v=" << w.version << " page=" << w.page
     << " writer=" << w.writer << " [" << w.start_tick << "," << w.done_tick
     << "]";
  return os.str();
}

/// BIO_CHK_DEBUG=1 diagnostic dump for a failed write check: where the
/// block's versions actually ended up (image, FTL mapping, the transfers
/// run_check recorded, log prefix). This is how the checker's findings get
/// root-caused down the stack.
void debug_dump_write(const char* what, const wl::TraceWrite& w,
                      const std::unordered_map<Lba, flash::Version>& image,
                      core::Volume& vol,
                      const flash::WritebackCache::TransferRecorder& xfers) {
  if (std::getenv("BIO_CHK_DEBUG") == nullptr) return;
  auto img = image.find(w.lba);
  const auto mapped = vol.device().log().mapped_version(w.lba);
  std::fprintf(stderr, "DBG %s lba=%llu v=%llu image=%lld mapped=%lld\n",
               what, (unsigned long long)w.lba, (unsigned long long)w.version,
               img == image.end() ? -1 : (long long)img->second,
               mapped.has_value() ? (long long)*mapped : -1);
  for (const auto& e : xfers)
    if (e.lba == w.lba)
      std::fprintf(stderr, "  xfer v=%llu epoch=%llu order=%llu\n",
                   (unsigned long long)e.version, (unsigned long long)e.epoch,
                   (unsigned long long)e.order);
  std::fprintf(stderr, "  log prefix=%llu appends=%llu cache_dirty=%zu\n",
               (unsigned long long)vol.device().log().programmed_prefix(),
               (unsigned long long)vol.device().log().append_count(),
               vol.device().cache().dirty_count());
}

/// Captures the durable image and recovers it from the volume's own
/// journal, filling the recovery facts of `res`.
struct Recovered {
  std::unordered_map<Lba, flash::Version> image;
  fs::RecoveryReport report;
};

Recovered recover_volume(CrashCheckResult& res, core::Volume& vol) {
  res.journal_wraps = vol.fs().journal().stats().journal_wraps;
  res.journal_stalls = vol.fs().journal().stats().journal_stalls;
  res.checkpoint_flushes = vol.fs().journal().stats().checkpoint_flushes;
  Recovered r;
  r.image = vol.device().durable_state();
  const fs::Recovery recovery(vol.fs().journal(), vol.fs().layout(),
                              vol.fs().config());
  r.report = recovery.recover(r.image);
  res.files_recovered = static_cast<std::uint32_t>(r.report.files.size());
  res.txns_replayed = r.report.txns_replayed;
  res.txns_discarded = r.report.txns_discarded;
  res.tail_truncated = r.report.tail_truncated;
  res.recovery_clean = r.report.clean();
  if (!r.report.clean())
    res.violations.push_back(
        "recovery silently corrupted " +
        std::to_string(r.report.corrupted_blocks.size()) +
        " home block(s) (stale log replay under a surviving commit)");
  return r;
}

/// Global recovered-namespace consistency — no duplicate or fabricated
/// names, extents inside the volume's data region, each recovered file over
/// an extent some workload file owns and under a name that extent actually
/// carried. Returns the recovered files indexed by extent base (the stable
/// file identity: anchor fds stay open all run, so no extent ever
/// recycles).
std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
check_recovered_namespace(CrashCheckResult& res, core::Volume& vol,
                          const fs::RecoveryReport& report,
                          const wl::ConcurrentTrace& trace) {
  auto violation = [&res](const std::string& what) {
    res.violations.push_back(what);
  };
  std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
      by_extent;
  std::map<std::string, int> name_count;
  const Lba data_base = vol.fs().layout().data_base();
  const Lba data_end = vol.device().profile().geometry.physical_pages();
  for (const fs::RecoveryReport::RecoveredFile& rf : report.files) {
    ++res.namespace_facts_checked;
    if (++name_count[rf.name] > 1)
      violation("namespace: name " + rf.name + " recovered twice");
    // Every volume has its own LBA space starting at 0, so a *foreign*
    // volume's extent can be numerically in range — cross-volume leakage
    // is caught by the per-volume oracle (ownership + name history + data
    // versions), not by this range check, which catches extents corrupted
    // into the journal/inode region or past the device.
    if (rf.extent_base < data_base ||
        rf.extent_base + rf.extent_blocks > data_end)
      violation("namespace: " + rf.name +
                " recovered with an extent outside this volume's data "
                "region");
    if (const auto [pos, inserted] = by_extent.emplace(rf.extent_base, &rf);
        !inserted)
      violation("namespace: extent of " + rf.name +
                " also recovered as " + pos->second->name +
                " — one file under two names");
    const wl::FileTrace* owner = nullptr;
    for (const wl::FileTrace& f : trace.files)
      if (f.inode != nullptr && f.inode->extent_base == rf.extent_base) {
        owner = &f;
        break;
      }
    if (owner == nullptr) {
      violation("namespace: recovered file " + rf.name +
                " maps to no extent the workload created");
      continue;
    }
    if (std::find(owner->rel_names.begin(), owner->rel_names.end(),
                  rf.name) == owner->rel_names.end())
      violation("namespace: " + rf.name +
                " recovered over an extent that never carried that name");
  }
  return by_extent;
}

/// Verifies one volume's trace against its recovered image; fills `res`
/// and returns the report for the remount phase. Only strictly-ordered
/// pairs count: a sync covers writes that *completed* before it *started*
/// and constrains writes that *started* after it *returned* — operations
/// racing the sync on either side are promised nothing. Fault mode drops
/// the ordering facts (2 and 7b: a bounded retry legally re-lands a
/// transiently failed write after later writes) and requires a live
/// journal and a clean page cache for quiescence (an aborted journal never
/// commits its failed transaction; a hard-faulted writeback redirties its
/// page).
fs::RecoveryReport verify_volume(
    CrashCheckResult& res, core::Volume& vol, const wl::ConcurrentTrace& trace,
    const flash::WritebackCache::TransferRecorder& xfers, StackKind kind,
    bool fault) {
  res.workload_finished = trace.finished();
  res.volume_degraded = vol.fs().degraded();
  res.quiesced = trace.finished() && vol.blk().backlog() == 0 &&
                 vol.device().cache().dirty_count() == 0 &&
                 vol.device().queue_depth() == 0 &&
                 (!fault || (!res.volume_degraded &&
                             vol.fs().page_cache().dirty_count() == 0));
  res.renames_done = trace.renames;
  res.unlinks_done = trace.unlinks;
  res.fd_cycles = trace.fd_cycles;
  res.closes_during_sync = trace.closes_during_sync;
  res.syncs_failed = trace.syncs_failed;
  const bool ordering = !fault;

  Recovered rec = recover_volume(res, vol);
  fs::RecoveryReport& report = rec.report;

  auto violation = [&res](const std::string& what) {
    res.violations.push_back(what);
  };
  auto present = [&report](const wl::TraceWrite& w) {
    auto it = report.data.find(w.lba);
    return it != report.data.end() && it->second >= w.version;
  };
  auto dump = [&](const char* what, const wl::TraceWrite& w) {
    debug_dump_write(what, w, rec.image, vol, xfers);
  };

  const std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
      by_extent = check_recovered_namespace(res, vol, report, trace);

  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  for (const wl::FileTrace& f : trace.files) {
    res.syncs_recorded += static_cast<std::uint32_t>(f.syncs.size());
    const fs::RecoveryReport::RecoveredFile* rf = nullptr;
    if (f.inode != nullptr) {
      auto it = by_extent.find(f.inode->extent_base);
      if (it != by_extent.end()) rf = it->second;
    }

    // Aggregate the returned syncs' promises.
    std::uint64_t max_ack_start = 0;
    std::uint32_t size_floor = 0;
    std::size_t name_idx_floor = 0;
    bool any_exist_fact = false;
    bool unlink_committed = false;
    for (const wl::TraceSync& s : f.syncs) {
      if (call_acks_data(kind, s.call))
        max_ack_start = std::max(max_ack_start, s.start_tick);
      if (call_acks_size(kind, s.call) ||
          (res.quiesced && call_orders(s.call)))
        size_floor = std::max(size_floor, s.settled_size_at_start);
      if (call_acks_name(kind, s.call) ||
          (res.quiesced && call_commits_meta(s.call))) {
        name_idx_floor = std::max(name_idx_floor, s.name_idx_at_start);
        if (s.unlinked_at_start)
          unlink_committed = true;
        else
          any_exist_fact = true;
      }
    }

    // 1. Acked durability across writers and fds: a write (any writer)
    //    that completed before a durable-ack sync (any fd of the file)
    //    started must have survived.
    for (const wl::TraceWrite& w : f.writes) {
      if (w.done_tick < max_ack_start) {
        ++res.acked_pages_checked;
        if (!present(w)) {
          violation(f.rel_name() + " write (" + describe(w) +
                    ") was acked durable but did not survive");
          dump("acked", w);
        }
      }
    }

    // 2. Epoch prefix (ordering): if any write that started after a
    //    returned order point survives, every write that completed before
    //    that order point started must have survived. ready_at(w) is the
    //    earliest return among order points that started after w
    //    completed; a surviving write with a later start proves w.
    // 3. Delayed durability: once the device quiesced, every write some
    //    returned sync covered must be on media.
    std::uint64_t max_surviving_start = 0;
    for (const wl::TraceWrite& w : f.writes)
      if (present(w))
        max_surviving_start = std::max(max_surviving_start, w.start_tick);
    for (const wl::TraceWrite& w : f.writes) {
      std::uint64_t ready_at = kNever;
      for (const wl::TraceSync& s : f.syncs)
        if (call_orders(s.call) && s.start_tick > w.done_tick)
          ready_at = std::min(ready_at, s.done_tick);
      if (ordering) ++res.order_writes_checked;
      if (present(w)) continue;
      if (ordering && ready_at < max_surviving_start) {
        violation(f.rel_name() + " write (" + describe(w) +
                  ") lost although a later write survived past the order "
                  "point covering it — ordering broken");
        dump("order", w);
      } else if (res.quiesced && ready_at != kNever) {
        violation(f.rel_name() + " write (" + describe(w) +
                  ") not durable after quiescence");
        dump("quiesce", w);
      }
    }

    // 4. Existence + size floor: a never-unlinked file with a durable
    //    full-sync fact must exist — unless a namespace op on it was in
    //    flight at the cut (it may have committed before returning) —
    //    with at least the size the syncs settled.
    if (!f.unlinked && any_exist_fact) {
      ++res.namespace_facts_checked;
      if (rf == nullptr && !f.ns_busy)
        violation(f.rel_name() +
                  " was durably synced but does not exist after recovery");
    }
    if (rf != nullptr && size_floor > 0) {
      ++res.namespace_facts_checked;
      if (rf->size_blocks < size_floor)
        violation(f.rel_name() + " recovered with size " +
                  std::to_string(rf->size_blocks) + " < synced size " +
                  std::to_string(size_floor));
    }

    // 5. Rename durability: once a sync committed the rename history up
    //    to name_idx_floor, only that or a newer name may recover.
    if (name_idx_floor > 0 && rf != nullptr) {
      ++res.namespace_facts_checked;
      const auto it =
          std::find(f.rel_names.begin(), f.rel_names.end(), rf->name);
      if (it != f.rel_names.end() &&
          static_cast<std::size_t>(it - f.rel_names.begin()) <
              name_idx_floor)
        violation("namespace: " + rf->name +
                  " recovered although the rename to " +
                  f.rel_names[name_idx_floor] + " was durably synced");
    }

    // 6. Unlink durability: a sync that started after the unlink
    //    completed committed the removal.
    if (unlink_committed) {
      ++res.namespace_facts_checked;
      if (rf != nullptr)
        violation("namespace: " + rf->name +
                  " recovered although its unlink was durably synced");
    }

    // 7. Linked-chain contract (api::Ring workloads; the vectors are empty
    //    on direct-Vfs traces). chain_covered/chain_successors come from
    //    the chain's SUBMISSION structure, not observed timing, so a ring
    //    that ignores its link flags still produces these claims — and the
    //    reordering it allowed shows up as violations here even when the
    //    tick-based rules above (which adapt to actual behaviour) say
    //    nothing.
    for (const wl::TraceSync& s : f.syncs) {
      if (s.chain_covered.empty()) continue;
      const bool acks = call_acks_data(kind, s.call);
      bool successor_present = false;
      for (const std::size_t si : s.chain_successors)
        if (present(f.writes[si])) successor_present = true;
      for (const std::size_t ci : s.chain_covered) {
        const wl::TraceWrite& w = f.writes[ci];
        ++res.chain_facts_checked;
        if (present(w)) continue;
        if (acks) {
          // (a) The chain's sync returned, so every write linked before
          //     it was acked durable.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") linked before a returned " +
                    "durable sync did not survive");
          dump("chain-acked", w);
        } else if (ordering && successor_present) {
          // (b) A write linked after the sync reached media, so the link
          //     order says every write linked before it must have too.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") lost although a write linked after its chain's "
                    "sync survived — linked-chain ordering broken");
          dump("chain-order", w);
        } else if (res.quiesced && call_orders(s.call)) {
          // (c) Delayed durability: the chain's returned sync covered it.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") not durable after quiescence");
          dump("chain-quiesce", w);
        }
      }
    }
  }
  return report;
}

/// Remount-phase verification: the recovered image must yield a fully
/// usable volume behind the (possibly multi-volume) fresh node's Vfs.
sim::Task remount_verify(api::Vfs& vfs, std::string prefix,
                         const fs::RecoveryReport& report,
                         std::string& err) {
  for (const auto& rf : report.files) {
    api::Result<api::File> r = co_await vfs.open(prefix + rf.name, {});
    if (!r.ok()) {
      err = "open(" + prefix + rf.name + ") failed on remount";
      co_return;
    }
    api::File h = r.value();
    if (h.size_blocks().value() != rf.size_blocks) {
      err = prefix + rf.name + " remounted with wrong size";
      co_return;
    }
    must(h.close());
  }
  // The recovered filesystem must be fully usable: write + full sync.
  api::OpenOptions oo;
  oo.create = true;
  api::Result<api::File> r = co_await vfs.open(prefix + "post-crash", oo);
  if (!r.ok()) {
    err = "create failed on remounted stack";
    co_return;
  }
  api::File h = r.value();
  api::Result<std::uint32_t> w = co_await h.pwrite(0, 2);
  api::Status s = co_await h.sync_file();
  if (!w.ok() || !s.ok()) err = "write+sync failed on remounted stack";
  must(h.close());
}

// ---- sweeps --------------------------------------------------------------------

/// Sweep crash-instant stream: mostly mid-workload cuts, with a slice of
/// late cuts exercising the quiesced (delayed-durability) contract. One
/// generator for every flavour so they all test the same crash-point
/// population.
class CrashPointGen {
 public:
  explicit CrashPointGen(std::uint64_t base_seed)
      : rng_(base_seed * 7919 + 17) {}

  sim::SimTime next() {
    return rng_.chance(0.2) ? rng_.uniform(60'000, 300'000) * 1_us
                            : rng_.uniform(100, 60'000) * 1_us;
  }

 private:
  sim::Rng rng_;
};

/// Folds one volume's result at one point into an aggregate (`points` and
/// failure accounting stay with the caller).
void fold(CrashSweepResult& s, const CrashCheckResult& r) {
  if (r.quiesced) ++s.quiesced_points;
  if (r.volume_degraded) ++s.degraded_points;
  s.faults_injected += r.faults_injected;
  s.io_retries += r.io_retries;
  s.io_failures += r.io_failures;
  s.syncs_failed += r.syncs_failed;
  s.acked_pages_checked += r.acked_pages_checked;
  s.order_writes_checked += r.order_writes_checked;
  s.namespace_facts_checked += r.namespace_facts_checked;
  s.renames_done += r.renames_done;
  s.unlinks_done += r.unlinks_done;
  s.journal_wraps += r.journal_wraps;
  s.journal_stalls += r.journal_stalls;
  s.files_recovered += r.files_recovered;
  s.syncs_recorded += r.syncs_recorded;
  s.fd_cycles += r.fd_cycles;
  s.closes_during_sync += r.closes_during_sync;
  s.chain_facts_checked += r.chain_facts_checked;
}

/// The fields of `spec` the `--repro` text drops (a replay would run their
/// defaults instead), comma-separated; empty when the text replays `spec`
/// exactly.
std::string fields_lost_by_repro(const SweepSpec& spec) {
  const SweepSpec parsed = parse_repro(to_repro({spec, 1, 0}))->spec;
  std::string lost;
  auto check = [&](bool same, const char* field) {
    if (!same) lost += (lost.empty() ? "" : ",") + std::string(field);
  };
  check(spec.journal_blocks == parsed.journal_blocks, "journal_blocks");
  check(spec.ops == parsed.ops, "ops");
  check(spec.writers == parsed.writers, "writers");
  check(spec.swallow_io_errors == parsed.swallow_io_errors,
        "swallow_io_errors");
  check(spec.ignore_links == parsed.ignore_links, "ignore_links");
  check(spec.dispatch_mutant == parsed.dispatch_mutant, "dispatch_mutant");
  return lost;
}

/// Records a failed (point, volume) in both human-readable and
/// machine-replayable form: a sample line ends with the `--repro` spec
/// that replays it, or — when the grammar cannot carry the sweep's spec —
/// names the fields a replay must set through run_check.
void note_failure(CrashSweepResult& sweep, const SweepSpec& spec,
                  std::uint64_t base_seed, int point, std::size_t volume,
                  const CrashCheckResult& r) {
  if (sweep.failures.size() < 32)
    sweep.failures.push_back(
        {point, volume, r.seed, r.crash_at, r.violations.front()});
  if (sweep.sample_violations.size() < 8) {
    std::ostringstream os;
    os << core::to_string(spec.volumes[volume]);
    if (spec.volumes.size() > 1) os << "@v" << volume;
    os << " seed=" << r.seed << " crash=" << r.crash_at
       << "ns point=" << point << ": " << r.violations.front();
    const std::string lost = fields_lost_by_repro(spec);
    if (lost.empty())
      os << " (replay: --repro " << to_repro({spec, base_seed, point}) << ")";
    else
      os << " (no --repro: the grammar drops " << lost
         << "; replay via run_check with the sweep's spec)";
    sweep.sample_violations.push_back(os.str());
  }
}

/// Strict decimal parse: the whole field must be digits (no sign, no
/// trailing junk, not empty). A silent atoi-style zero would "replay" a
/// different case than the one that failed.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  out = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (;;) {
    const std::size_t at = s.find(sep);
    parts.push_back(s.substr(0, at));
    if (at == std::string_view::npos) return parts;
    s.remove_prefix(at + 1);
  }
}

constexpr std::pair<Flavour, std::string_view> kPrefixes[] = {
    {Flavour::kFault, "fault"},
    {Flavour::kConc, "conc"},
    {Flavour::kRing, "ring"},
};

}  // namespace

std::vector<CrashCheckResult> run_check(const SweepSpec& spec,
                                        std::uint64_t seed,
                                        sim::SimTime crash_at) {
  BIO_CHECK_MSG(!spec.volumes.empty(), "crash check with zero volumes");
  const std::size_t n = spec.volumes.size();
  const bool node = n > 1;
  const bool fault = spec.flavour == Flavour::kFault;
  auto make_stack = [&] {
    if (!node)
      return std::make_unique<core::Stack>(
          checker_config(spec.volumes[0], spec));
    std::vector<core::StackConfig> bases;
    for (StackKind kind : spec.volumes)
      bases.push_back(checker_config(kind, spec));
    return std::make_unique<core::Stack>(core::NodeConfig::from(bases));
  };
  auto prefix_of = [node](std::size_t i) {
    return node ? "/v" + std::to_string(i) + "/" : std::string();
  };
  // Distinct per-volume streams on a node; the point seed itself on a
  // single volume.
  auto seed_of = [node, seed](std::size_t i) {
    return node ? seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)) : seed;
  };

  // Traces, fault plans and transfer recorders outlive the stack: writer
  // frames destroyed at simulator teardown may still name their trace, and
  // each device holds a raw pointer to its plan and recorder.
  std::vector<wl::ConcurrentTrace> traces(n);
  std::vector<flash::FaultPlan> plans;
  plans.reserve(n);
  std::vector<flash::WritebackCache::TransferRecorder> xfers(n);
  auto stack = make_stack();
  // The debug dump lists a failed write's transfers, and the device keeps
  // no history of its own: record every volume's from the start.
  if (std::getenv("BIO_CHK_DEBUG") != nullptr)
    for (std::size_t i = 0; i < n; ++i)
      stack->volume(i).device().install_transfer_recorder(&xfers[i]);
  if (fault) {
    // Installed before start(), so the per-class op ordinals each plan
    // matches are deterministic for a given (spec, seed).
    for (std::size_t i = 0; i < n; ++i) {
      plans.push_back(flash::FaultPlan::random(seed_of(i), kExpectedWriteOps,
                                               kMaxFaults));
      stack->volume(i).device().install_fault_plan(&plans.back());
      if (spec.swallow_io_errors)
        stack->volume(i).blk().set_swallow_io_errors_for_test(true);
    }
  }
  stack->start();
  api::Vfs vfs(*stack);
  // The flavour is the writer driver's arguments — backend, fault
  // tolerance and default shape: one writer of 92 ops (single, fault),
  // four of 40 (conc), three ring writers of 13 batches (ring).
  const bool ring = spec.flavour == Flavour::kRing;
  const bool one_writer = spec.flavour == Flavour::kSingle || fault;
  wl::ConcurrentWritersParams params;
  params.writers = one_writer ? 1 : ring ? 3 : 4;
  params.ops_per_writer = one_writer ? 92 : ring ? 13 : 40;
  if (spec.writers != 0) params.writers = spec.writers;
  if (spec.ops != 0)
    params.ops_per_writer = static_cast<std::uint32_t>(spec.ops);
  for (std::size_t i = 0; i < n; ++i) {
    if (ring)
      wl::spawn_ring_writers(stack->volume(i), vfs, prefix_of(i), params,
                             seed_of(i), spec.ignore_links, traces[i]);
    else
      wl::spawn_vfs_writers(stack->volume(i), vfs, prefix_of(i), params,
                            seed_of(i), fault, traces[i]);
  }
  if (spec.dispatch_mutant != blk::BlockLayer::DispatchMutant::kNone) {
    // The mutant strikes once every workload is done: run to that instant
    // in 1 us steps (the events run in the same order), then arm it.
    auto finished = [&traces] {
      return std::all_of(traces.begin(), traces.end(),
                         [](const wl::ConcurrentTrace& t) {
                           return t.finished();
                         });
    };
    while (stack->sim().now() < crash_at && !finished())
      stack->sim().run_until(std::min(crash_at, stack->sim().now() + 1_us));
    for (std::size_t i = 0; i < n; ++i)
      stack->volume(i).blk().set_dispatch_mutant_for_test(
          spec.dispatch_mutant);
  }
  stack->sim().run_until(crash_at);  // one power cut hits every volume

  std::vector<CrashCheckResult> results(n);
  std::vector<fs::RecoveryReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CrashCheckResult& r = results[i];
    core::Volume& vol = stack->volume(i);
    r.seed = seed;
    r.crash_at = crash_at;
    if (fault) r.faults_injected = plans[i].stats().total();
    r.io_retries = vol.blk().stats().io_retries;
    r.io_failures = vol.blk().stats().io_failures;
    reports.push_back(
        verify_volume(r, vol, traces[i], xfers[i], spec.volumes[i], fault));
  }

  // 8. A queue that never drains: requests left in the block layer over an
  //    idle device after the workload finished are not quiescence
  //    (verify_volume), but the dispatch thread must still send them. The
  //    images are recovered, so run on past the cut to find out.
  auto waiting = [&](std::size_t i) {
    core::Volume& vol = stack->volume(i);
    return traces[i].finished() && vol.blk().backlog() > 0 &&
           vol.device().queue_depth() == 0;
  };
  bool any_waiting = false;
  for (std::size_t i = 0; i < n; ++i) any_waiting = any_waiting || waiting(i);
  if (any_waiting) {
    stack->sim().run_until(crash_at + kDrainHorizon);
    for (std::size_t i = 0; i < n; ++i) {
      if (!waiting(i)) continue;
      const std::size_t queued = stack->volume(i).blk().backlog();
      results[i].violations.push_back(
          "block layer: " + std::to_string(queued) +
          " requests still queued over an idle device " +
          std::to_string(kDrainHorizon / 1_ms) +
          " ms after the cut — backlog never drained");
    }
  }

  // ---- remount a fresh (fault-free) node over the recovered images --------
  // Every volume — even one a journal abort degraded (errors=remount-ro) —
  // must recover read-consistent from its last durable commit and come
  // back fully usable.
  auto stack2 = make_stack();
  for (std::size_t i = 0; i < n; ++i)
    stack2->volume(i).fs().mount(reports[i]);
  stack2->start();
  api::Vfs vfs2(*stack2);
  std::vector<std::string> errs(n);
  for (std::size_t i = 0; i < n; ++i)
    // iolint: detached-owner(run() below drains every verifier before
    // vfs2/reports/errs leave scope)
    stack2->sim().spawn("chk:verify" + prefix_of(i),
                        remount_verify(vfs2, prefix_of(i), reports[i],
                                       errs[i]));
  stack2->sim().run();
  for (std::size_t i = 0; i < n; ++i)
    if (!errs[i].empty())
      results[i].violations.push_back("remount: " + errs[i]);
  return results;
}

sim::SimTime sweep_crash_at(std::uint64_t base_seed, int point) {
  CrashPointGen gen(base_seed);
  sim::SimTime t = 0;
  for (int i = 0; i <= point; ++i) t = gen.next();
  return t;
}

CrashSweepResult run_sweep(const SweepSpec& spec, int points,
                           std::uint64_t base_seed, int jobs) {
  CrashSweepResult sweep;
  sweep.volumes.resize(spec.volumes.size());
  if (points <= 0) return sweep;
  // Parallel-safe by construction: one serial CrashPointGen pass
  // precomputes every point's crash instant, a sim::HostPool runs the
  // points across up to `jobs` host threads — each point builds its own
  // core::Stack and derives its seed from its index alone — and the
  // results fold in canonical point order, so fold() and note_failure()
  // see the identical sequence at any jobs value.
  CrashPointGen gen(base_seed);
  std::vector<sim::SimTime> crash_at(static_cast<std::size_t>(points));
  for (sim::SimTime& t : crash_at) t = gen.next();

  std::vector<std::vector<CrashCheckResult>> results(
      static_cast<std::size_t>(points));
  const sim::HostPool pool(jobs);
  // iolint: detached-owner(for_each_index joins its workers before
  // returning; the capture cannot outlive this frame)
  pool.for_each_index(points, [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    results[idx] = run_check(spec, base_seed + static_cast<std::uint64_t>(i),
                             crash_at[idx]);
  });

  sweep.points = points;
  for (CrashSweepResult& v : sweep.volumes) v.points = points;
  for (int i = 0; i < points; ++i) {
    bool failed = false;
    for (std::size_t v = 0; v < spec.volumes.size(); ++v) {
      const CrashCheckResult& r = results[static_cast<std::size_t>(i)][v];
      fold(sweep, r);
      fold(sweep.volumes[v], r);
      if (r.ok()) continue;
      failed = true;
      ++sweep.volumes[v].failed_points;
      note_failure(sweep, spec, base_seed, i, v, r);
    }
    if (failed) ++sweep.failed_points;
  }
  return sweep;
}

// ---- the --repro grammar -------------------------------------------------------

std::string to_repro(const Repro& r) {
  std::string out;
  for (const auto& [flavour, tag] : kPrefixes)
    if (r.spec.flavour == flavour) out = std::string(tag) + ":";
  for (std::size_t i = 0; i < r.spec.volumes.size(); ++i)
    out += (i == 0 ? "" : ",") + std::string(core::to_string(r.spec.volumes[i]));
  if (r.spec.nr_queues != 1) out += ":q" + std::to_string(r.spec.nr_queues);
  return out + ":" + std::to_string(r.base_seed) + ":" +
         std::to_string(r.point);
}

std::optional<Repro> parse_repro(std::string_view text) {
  const std::vector<std::string_view> parts = split(text, ':');
  if (parts.size() < 3 || parts.size() > 5) return std::nullopt;
  Repro r;
  std::size_t idx = 0;
  for (const auto& [flavour, tag] : kPrefixes)
    if (parts[0] == tag) {
      r.spec.flavour = flavour;
      idx = 1;
    }
  // The stack list: known names only, no empty entries.
  for (std::string_view name : split(parts[idx], ',')) {
    bool known = false;
    for (StackKind k : {StackKind::kExt4DR, StackKind::kExt4OD,
                        StackKind::kBfsDR, StackKind::kBfsOD,
                        StackKind::kOptFs})
      if (name == core::to_string(k)) {
        r.spec.volumes.push_back(k);
        known = true;
      }
    if (!known) return std::nullopt;
  }
  ++idx;
  // Optional q<N> segment: N in [1, 64] (a block layer needs a queue).
  if (parts.size() - idx == 3) {
    std::uint64_t q = 0;
    const std::string_view seg = parts[idx];
    if (seg.size() < 2 || seg[0] != 'q' || !parse_u64(seg.substr(1), q) ||
        q < 1 || q > 64)
      return std::nullopt;
    r.spec.nr_queues = static_cast<std::uint32_t>(q);
    ++idx;
  }
  std::uint64_t point = 0;
  if (parts.size() - idx != 2 || !parse_u64(parts[idx], r.base_seed) ||
      !parse_u64(parts[idx + 1], point) || point > 1'000'000)
    return std::nullopt;
  r.point = static_cast<int>(point);
  return r;
}

}  // namespace bio::chk
