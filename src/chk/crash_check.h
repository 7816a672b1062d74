// Full-stack crash-injection checker.
//
// Runs a randomized api::Vfs workload on a freshly assembled IO stack,
// cuts power at a chosen simulated instant, recovers the durable image
// through fs::Recovery, remounts a *fresh* stack over the recovered state,
// and verifies the stack's crash-consistency contract (DESIGN.md §6.7):
//
//   stack   | verified guarantees
//   --------+-----------------------------------------------------------
//   EXT4-DR | fsync/fdatasync returned => durable; per-file epoch prefix
//   BFS-DR  | same (fdatabarrier additionally delimits epochs for free)
//   BFS-OD  | per-file epoch prefix (fdatabarrier/fbarrier order only),
//           | full durability once the device quiesces
//   OptFS   | osync epoch prefix + delayed durability (prefix now,
//           | everything once the device quiesces)
//   EXT4-OD | *claims* the EXT4-DR contract but runs nobarrier on an
//           | orderless device — the checker is expected to catch it
//           | violating (the paper's Fig 1 motivation)
//
// plus, on every stack with a working journal, that recovery never has to
// replay a stale log copy (RecoveryReport::clean()), and — since every
// workload churns the namespace with unlink()/rename() — that the
// recovered namespace is consistent: no duplicate or fabricated names, a
// durably-renamed file only ever recovers under the new (or a newer) name,
// a durably-unlinked file never reappears.
//
// One trace-recording writer driver (wl/trace_writers.h) runs every
// workload flavour — the flavour only picks its backend (direct api::Vfs
// calls or api::Ring batches), its fault tolerance and its default writer
// and op counts — and records one wl::ConcurrentTrace per volume, which one
// oracle verifies. A SweepSpec names the flavour, the volumes and the
// stack shape; run_check() runs one (seed, crash instant) point of it and
// run_sweep() many. A spec plus a point index round-trips through one
// `--repro` grammar (to_repro/parse_repro), which is what
// examples/crash_consistency replays.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/stack.h"
#include "sim/time.h"

namespace bio::chk {

/// The workload a sweep drives; each runs the one writer driver and
/// records into the same trace oracle.
enum class Flavour : std::uint8_t {
  /// One writer per volume, direct Vfs calls (the §6 sweep).
  kSingle,
  /// kSingle, fault-tolerant, plus a seed-derived flash::FaultPlan per
  /// volume (§11.3): the oracle drops its ordering facts and quiescence
  /// also requires a live journal and a clean page cache.
  kFault,
  /// N writers sharing files through independent fds, direct Vfs calls
  /// (§9).
  kConc,
  /// Writers batching linked chains through api::Ring (§10).
  kRing,
};

struct SweepSpec {
  Flavour flavour = Flavour::kSingle;
  /// One stack kind per volume (at least one). More than one runs a node:
  /// volume i is mounted at "/v<i>/" behind one Vfs, runs its own workload
  /// from its own seed stream, and one power cut hits every volume at once.
  std::vector<core::StackKind> volumes;
  /// Block-layer software queues (blk-mq): 1 is the classic single queue,
  /// 4 exercises the cross-queue epoch fence.
  std::uint32_t nr_queues = 1;
  /// Journal size per volume (small values force wraps). 0 = stack
  /// default.
  std::uint32_t journal_blocks = 256;
  /// Ops per writer (a ring batch is one op); 0 = the flavour's default
  /// (92 for kSingle/kFault, 40 for kConc, 13 for kRing).
  int ops = 0;
  /// Writer count; 0 = the flavour's default (1 for kSingle/kFault, 4 for
  /// kConc, 3 for kRing).
  std::uint32_t writers = 0;
  /// TEST ONLY (kFault): BlockLayer::set_swallow_io_errors_for_test — the
  /// injected bug the fault sweep must deterministically detect.
  bool swallow_io_errors = false;
  /// TEST ONLY (kRing): rings ignore their link flags — the injected
  /// ordering bug the chain contract must catch.
  bool ignore_links = false;
  /// TEST ONLY: BlockLayer::set_dispatch_mutant_for_test on every volume
  /// from the instant every workload finished — the stranded or dropped
  /// queue the quiescence checks must catch.
  blk::BlockLayer::DispatchMutant dispatch_mutant =
      blk::BlockLayer::DispatchMutant::kNone;

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// One volume's verdict at one crash point.
struct CrashCheckResult {
  std::uint64_t seed = 0;
  sim::SimTime crash_at = 0;

  std::vector<std::string> violations;
  bool ok() const noexcept { return violations.empty(); }

  // Scenario facts (for reporting and targeted assertions).
  bool workload_finished = false;
  /// The workload finished, and the block layer and the device drained at
  /// the cut (fault mode also needs a live journal and a clean page
  /// cache): everything any returned sync covered must have reached media.
  /// A request still queued in the block layer is not quiescence: the
  /// device idles between two dispatches while the dispatch thread wakes.
  /// A queue that never drains is a violation of its own (run_check runs
  /// on past the cut to tell the two apart).
  bool quiesced = false;
  std::uint32_t files_recovered = 0;
  std::uint32_t txns_replayed = 0;
  std::uint32_t txns_discarded = 0;
  bool tail_truncated = false;
  bool recovery_clean = true;
  std::uint64_t journal_wraps = 0;
  std::uint64_t journal_stalls = 0;
  std::uint64_t checkpoint_flushes = 0;
  // Facts the oracle verified.
  std::uint32_t acked_pages_checked = 0;
  std::uint32_t order_writes_checked = 0;
  /// Namespace facts verified (rename/unlink durability and
  /// recovered-namespace consistency).
  std::uint32_t namespace_facts_checked = 0;
  /// Returned sync syscalls whose promises were verified.
  std::uint32_t syncs_recorded = 0;
  /// Ring linked-chain facts verified (zero on non-ring workloads).
  std::uint32_t chain_facts_checked = 0;
  // What the workload did.
  std::uint32_t renames_done = 0;
  std::uint32_t unlinks_done = 0;
  /// Descriptor close/reopen cycles the workload performed.
  std::uint32_t fd_cycles = 0;
  /// close() calls issued while that fd's sync was still suspended.
  std::uint32_t closes_during_sync = 0;
  // Fault-injection facts (zero/false on fault-free checks).
  /// Faults the installed plan actually fired before the cut.
  std::uint64_t faults_injected = 0;
  /// Block-layer re-dispatches issued by the bounded retry policy.
  std::uint64_t io_retries = 0;
  /// Requests that completed with an error (retries exhausted/hard fault).
  std::uint64_t io_failures = 0;
  /// Sync syscalls that returned kIo/kRoFs to the workload.
  std::uint32_t syncs_failed = 0;
  /// The journal aborted and degraded the volume read-only before the cut.
  bool volume_degraded = false;
};

/// One workload + power cut + recovery + remount + verification pass over
/// every volume of `spec`; returns one result per volume, index-aligned
/// with spec.volumes.
std::vector<CrashCheckResult> run_check(const SweepSpec& spec,
                                        std::uint64_t seed,
                                        sim::SimTime crash_at);

struct CrashSweepResult {
  int points = 0;
  /// Crash points where any volume violated its contract.
  int failed_points = 0;
  // Counters summed over every point and volume.
  int quiesced_points = 0;
  std::uint64_t acked_pages_checked = 0;
  std::uint64_t order_writes_checked = 0;
  std::uint64_t namespace_facts_checked = 0;
  std::uint64_t renames_done = 0;
  std::uint64_t unlinks_done = 0;
  std::uint64_t journal_wraps = 0;
  std::uint64_t journal_stalls = 0;
  std::uint32_t files_recovered = 0;
  std::uint64_t syncs_recorded = 0;
  std::uint64_t fd_cycles = 0;
  std::uint64_t closes_during_sync = 0;
  std::uint64_t chain_facts_checked = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_failures = 0;
  std::uint64_t syncs_failed = 0;
  int degraded_points = 0;
  /// First few violations, each with its volume, seed, crash instant and
  /// the `--repro` spec that replays it — printed only when the grammar
  /// carries the whole spec (parse_repro(to_repro(r))->spec == spec);
  /// otherwise the line names the fields it drops.
  std::vector<std::string> sample_violations;

  /// Replay coordinates of the first 32 failed (point, volume) pairs:
  /// run_check(<the sweep's spec>, seed, crash_at)[volume] replays exactly
  /// that case; `failed_points` holds the true total.
  struct Failure {
    int point = 0;
    std::size_t volume = 0;
    std::uint64_t seed = 0;
    sim::SimTime crash_at = 0;
    std::string first_violation;
  };
  std::vector<Failure> failures;

  /// Per-volume breakdown, index-aligned with spec.volumes: the counters
  /// and failed_points of that volume alone (no failure samples).
  std::vector<CrashSweepResult> volumes;

  bool ok() const noexcept { return failed_points == 0; }
};

/// The crash instant a sweep derives for `point` under `base_seed` (the
/// point's seed is base_seed + point) — exposed so a single failed sweep
/// point replays in isolation.
sim::SimTime sweep_crash_at(std::uint64_t base_seed, int point);

/// Sweeps `points` (seed, crash instant) combinations derived from
/// `base_seed`. Crash instants mix mid-workload cuts with post-quiescence
/// ones (the delayed-durability cases).
///
/// `jobs` resolves through sim::resolve_host_jobs (0 = BIO_SWEEP_JOBS env,
/// else hardware concurrency; 1 = the serial path). Points run across up
/// to `jobs` host threads — each point builds its own core::Stack, its
/// seed and crash instant derive from its index alone, and results fold
/// in canonical point order, so every jobs value yields a bit-identical
/// CrashSweepResult (counters, failure coordinates and --repro strings).
CrashSweepResult run_sweep(const SweepSpec& spec, int points,
                           std::uint64_t base_seed = 1, int jobs = 0);

// ---- the --repro grammar -----------------------------------------------------

/// One sweep point as a `--repro` spec names it.
struct Repro {
  SweepSpec spec;
  std::uint64_t base_seed = 1;
  int point = 0;

  friend bool operator==(const Repro&, const Repro&) = default;
};

/// `[conc:|ring:|fault:]<stack>[,<stack>…][:q<N>]:<base>:<point>` — a
/// stack list names a node's volumes; the q segment is omitted at one
/// queue. Only flavour, volumes and nr_queues travel in the text.
std::string to_repro(const Repro& r);

/// Strict inverse of to_repro: known prefix and stack names, no empty
/// fields, decimal numbers without sign or trailing junk, q<N> with N in
/// [1, 64], point <= 1,000,000. Every other SweepSpec field takes its
/// default. nullopt on any malformed text.
std::optional<Repro> parse_repro(std::string_view text);

}  // namespace bio::chk
