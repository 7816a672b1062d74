// The trace-recording writer driver behind every crash-sweep flavour.
//
// N writer coroutines share one volume: a few files every writer touches
// plus one private file each, every writer through its *own* descriptors
// (independent fds over shared inodes), each file pinned by an anchor
// descriptor opened at setup. Writers interleave pwrite/append with every
// sync syscall fs::supports admits (fsync/fdatasync everywhere, fbarrier
// and fdatabarrier on BarrierFS, fbarrier, osync and dsync on OptFS) and
// the order/durability/full-sync intents, rename/replace-rename/unlink
// namespace churn and fd churn (close/reopen, and close()
// racing an in-flight sync).
//
// Two submission backends share everything else — setup, file layout,
// descriptor management, trace recording, namespace churn and the join:
//   * direct: one api::Vfs call per op; optionally fault-tolerant (EIO and
//     EROFS are legal results, counted, and EROFS stops every writer);
//   * ring: one op is a batch pushed through the writer's own api::Ring —
//     linked `write -> sync -> write` chains plus unlinked writes, reads and
//     syncs, reaped out of order.
//
// Every completed write and every *returned* sync lands in a
// ConcurrentTrace between logical ticks from one per-run monotone counter,
// so the chk crash oracle can reconstruct the cross-writer happens-before
// order (which writes completed before which sync started, which started
// only after it returned) without assuming anything about operations that
// raced each other. The bench driver (run_concurrent_writers) runs the
// direct backend for simulated throughput and ignores the trace content.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "core/stack.h"
#include "sim/time.h"

namespace bio::wl {

/// The driver's shape inputs; every other shape value is a constant.
struct ConcurrentWritersParams {
  /// Writer coroutines sharing the volume.
  std::uint32_t writers = 4;
  /// Ops per writer (a ring batch counts as one op).
  std::uint32_t ops_per_writer = 40;
};

/// Extent reserved per file (4 KiB pages).
inline constexpr std::uint32_t kWriterExtentBlocks = 48;

/// One completed buffered write as the trace remembers it. `version` is the
/// page-cache version observed when the write returned — under concurrent
/// same-page writers that may be a later writer's version, which is sound:
/// the trace claim is "at done_tick this page held at least `version`".
struct TraceWrite {
  flash::Lba lba = 0;
  flash::Version version = 0;
  std::uint32_t page = 0;
  std::uint64_t start_tick = 0;
  std::uint64_t done_tick = 0;
  std::uint32_t writer = 0;
};

/// One *returned* sync syscall (syncs cut short by the power cut, or that
/// returned an error, are never recorded — they promised nothing).
struct TraceSync {
  /// The concrete syscall that ran (intents pre-resolved through the file's
  /// policy row, so the checker can classify semantics per stack kind).
  api::Syscall call = api::Syscall::kFsync;
  std::uint64_t start_tick = 0;
  std::uint64_t done_tick = 0;
  std::uint32_t writer = 0;
  /// Completed-write high-water of the file size when the sync started:
  /// what the sync is entitled to promise about i_size.
  std::uint32_t settled_size_at_start = 0;
  /// rel_names index current when the sync started (rename durability).
  std::size_t name_idx_at_start = 0;
  /// The unlink had fully completed before the sync started.
  bool unlinked_at_start = false;

  // ---- linked-chain contract (ring backend) -------------------------------
  //
  // Indices into FileTrace::writes derived from the SUBMISSION structure of
  // a ring chain, not from observed timing: `chain_covered` names writes
  // linked *before* this sync in its chain (the chain contract says they
  // complete before the sync starts), `chain_successors` writes linked
  // *after* it (they must not reach media unless the sync's promise held).
  // Deliberately contract-derived so a link-ignoring ring produces real
  // trace claims the oracle can falsify — exact-tick bookkeeping would
  // adapt to the buggy order and hide it. Empty on the direct backend.
  std::vector<std::size_t> chain_covered;
  std::vector<std::size_t> chain_successors;
};

/// Per-file trace + live bookkeeping shared by every writer touching it.
struct FileTrace {
  /// Volume-relative name history: [0] create name, back() current name.
  std::vector<std::string> rel_names;
  fs::Inode* inode = nullptr;
  bool shared = false;
  /// Descriptor opened at setup and never closed: keeps the file (and its
  /// extent) alive across unlink/fd churn, so extents never recycle and
  /// stay a stable file identity for the checker.
  api::File anchor;
  std::vector<TraceWrite> writes;
  std::vector<TraceSync> syncs;

  // ---- live bookkeeping (workload side) -----------------------------------
  /// max(page + npages) over *completed* writes.
  std::uint32_t settled_size = 0;
  bool unlinked = false;
  /// A namespace op (rename/unlink) is in flight; writers serialize their
  /// own namespace ops per file (racing renames of one name is UB the
  /// kernel prevents with locks this model does not have). An op in flight
  /// at a power cut may already be durable: its journal transaction can
  /// commit (another sync's group commit) before the call returns.
  bool ns_busy = false;

  const std::string& rel_name() const { return rel_names.back(); }
};

struct ConcurrentTrace {
  std::vector<FileTrace> files;
  std::uint32_t writers_total = 0;
  std::uint32_t writers_finished = 0;
  std::uint32_t ops_done = 0;
  std::uint32_t syncs_done = 0;
  std::uint32_t renames = 0;
  std::uint32_t unlinks = 0;
  /// close/reopen cycles completed (fd churn coverage signal).
  std::uint32_t fd_cycles = 0;
  /// close() calls issued while that fd's sync was still suspended.
  std::uint32_t closes_during_sync = 0;
  /// Sync syscalls that returned EIO/EROFS (fault-tolerant runs only).
  std::uint32_t syncs_failed = 0;

  bool finished() const noexcept {
    return writers_total > 0 && writers_finished == writers_total;
  }

  std::uint64_t next_tick() noexcept { return ++tick_; }

 private:
  std::uint64_t tick_ = 0;
};

/// Spawns the setup task onto `vol`'s simulator: it creates every file,
/// settles the namespace with one fsync (recorded as a fact on every
/// file), then runs `params.writers` writers issuing direct api::Vfs calls
/// and joins them. `trace` must outlive the simulation run; `prefix` is
/// the mount prefix ("" for a root-mounted volume, "/v0/" on a named
/// mount). `fault_tolerant` accepts EIO/EROFS from the stack (a faulted
/// device); otherwise any such error is a hard failure.
void spawn_vfs_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                       const ConcurrentWritersParams& params,
                       std::uint64_t seed, bool fault_tolerant,
                       ConcurrentTrace& trace);

/// The same driver with every writer submitting through its own api::Ring.
/// `ignore_links` is TEST ONLY: every ring runs with link flags ignored —
/// the deliberate ordering bug whose violations the crash oracle must
/// catch.
void spawn_ring_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                        const ConcurrentWritersParams& params,
                        std::uint64_t seed, bool ignore_links,
                        ConcurrentTrace& trace);

struct ConcurrentWritersResult {
  std::uint64_t ops_done = 0;
  std::uint64_t syncs_done = 0;
  double ops_per_sec = 0.0;
  sim::SimTime elapsed = 0;
};

/// Bench driver: runs the direct backend (seed 1) to completion on
/// `stack`'s volume 0 (stack must not have been started yet) and reports
/// simulated throughput.
ConcurrentWritersResult run_concurrent_writers(
    core::Stack& stack, const ConcurrentWritersParams& params);

}  // namespace bio::wl
