// Tier-1 allocation and retained-memory budgets for the steady-state IO
// path below api::Vfs.
//
// A binary of its own: it replaces the global operator new to count calls
// and live bytes, and inside bio_tests that replacement would blind ASan's
// new/delete checks for every other test. Under TSan the counting operator
// new is compiled out (as in bench/perf_suite.cc) and the budget tests
// skip.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "api/vfs.h"
#include "core/stack.h"
#include "flash/profile.h"
#include "sim/frame_pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wl/varmail.h"

// Relaxed atomics: exact for counting, safe whichever thread allocates.
static std::atomic<std::uint64_t> g_new_calls{0};
// Usable bytes of every live operator-new block: a block's delete subtracts
// exactly what its new added.
static std::atomic<std::int64_t> g_live_bytes{0};

#if defined(__SANITIZE_THREAD__)
#define BIO_ALLOC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BIO_ALLOC_TSAN 1
#endif
#endif

#if !defined(BIO_ALLOC_TSAN)
static void* counted_new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
static void counted_delete(void* p) noexcept {
  if (p != nullptr)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
#endif  // !BIO_ALLOC_TSAN

namespace bio {
namespace {

std::uint64_t new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

#if defined(BIO_ALLOC_TSAN)
#define SKIP_WITHOUT_COUNTER() \
  GTEST_SKIP() << "allocation counter compiled out under TSan"
#else
#define SKIP_WITHOUT_COUNTER() (void)0
#endif

// A small database, so the warm-up touches every page (and every cache
// slot and index node it needs) before the measured window opens.
constexpr std::uint32_t kDbPages = 256;
constexpr std::uint32_t kJournalExtent = 256;
constexpr std::uint64_t kWarmupTxns = 2'000;
constexpr std::uint64_t kMeasuredTxns = 2'000;
constexpr double kAllocsPerTxnBudget = 2.0;
// Coroutine frames per txn (frame-pool allocations; deterministic for a
// stack kind). A wait that usually holds is an inline loop on a sim
// primitive, not a child Task, and a sync crosses from api::Vfs straight
// into its filesystem body: BFS-DR takes 40.1 frames per txn and EXT4-DR
// 51.1. With a per-syscall filesystem wrapper frame they took 44.1 and
// 55.1; with the waits as child Tasks too, 109.2 and 143.2.
constexpr double kBfsFramesPerTxnBudget = 42.0;
constexpr double kExt4FramesPerTxnBudget = 53.0;
// Lazy checkpointing: a home is copied in place only when no later commit
// re-journals it before its transaction is half a journal behind the head.
// SQLite PERSIST rewrites the same few homes, so no copy is left: none in
// this run's 24,000 txns (iobench's sqlite-bfs made 0.016 per txn while
// every retire copied its homes).
constexpr double kCheckpointWritesPerTxnBudget = 0.002;
// Host memory must not grow with run length: after the warm-up, a long
// stretch of txns may leave behind no more than a few bytes each.
constexpr std::uint64_t kRetainedTxns = 20'000;
constexpr double kRetainedBytesPerTxnBudget = 16.0;
// The block layer's request pool stops growing once the in-flight set is
// covered: every sync sweeps its file's finished writeback carriers back to
// the pool. BFS-DR constructs 7 requests in the whole run and EXT4-DR 5;
// while fdatabarrier left them on the pages, the database file's 256 pages
// each pinned its last carrier, and BFS-DR constructed 259.
constexpr std::uint64_t kFreshRequestsBudget = 32;
// The ring varmail unlinks and creates mails all the time; its reclaimed
// inodes and vnodes are recycled, so a run twice as long retains few bytes
// more per extra flowop: from 120 to 240 iterations 8.3 (q1) and 9.4 (q4).
// While every unlinked inode stayed parked until the filesystem died, 60 to
// 120 iterations retained 17.5 and 23.3 B.
//
// From 60 to 120 iterations the journal also warms up. With lazy
// checkpointing its first copies fall due, and its first spans are
// released, once the head is half a journal lap on, which a 60-iteration
// run has only just passed. So the 60/120 comparison allows, once, the
// warm-up that window still has: what it retains beyond the 120/240
// comparison's steady rate. Measured in a Release build, running this
// binary's cases in order, q1 retains 143,760 B over 8,456 extra flowops
// against 8.33 B per flowop from 120 to 240, so 143,760 - 8,456 x 8.33 =
// 73,300 B; q4 retains 223,040 B over 8,425 against 9.39 B, so 143,900 B.
// ASan+UBSan (Debug) reads 72,300 and 143,800 B the same way; a filtered
// run of the q1 case alone reads 25 KB less, as the heap the earlier cases
// leave differs. Each allowance rounds its Release figure up to the next
// thousand, so a leak of about 66 KB (q1) or 56 KB (q4) inside the window
// fails the case. Under the single allowance these replace (the per-home
// lists of half a journal lap, 311 KB), either case passed about 200 KB
// more. The 120/240 comparison allows nothing.
constexpr std::size_t kVarmailWarmupBytesQ1 = 74'000;
constexpr std::size_t kVarmailWarmupBytesQ4 = 144'000;
constexpr double kRetainedBytesPerFlowopBudget = 16.0;
// Allocations per extra flowop from 60 to 120 iterations: 0.030 (q1) and
// 0.025 (q4) with the journal's transaction objects reused; 0.050 and 0.046
// while each commit built a new one; 0.17 and 0.16 while every commit
// allocated its journal lists and waiter lists; 2.83 and 2.86 when each of
// those allocated per op.
constexpr double kAllocsPerFlowopBudget = 0.035;

/// One SQLite PERSIST insert (wl/sqlite.cc's persist_txn): undo log,
/// order point, journal header, order point, two B-tree pages, order
/// point, commit header, durability point (an fsync when `fsync_commit`).
sim::Task persist_txn(api::File& db, api::File& journal, sim::Rng& rng,
                      std::uint32_t& cursor, bool fsync_commit = false) {
  if (cursor + 4 >= kJournalExtent) cursor = 1;
  api::must(co_await journal.pwrite(cursor, 2));
  cursor += 2;
  api::must(co_await journal.order_point());
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.order_point());
  for (int i = 0; i < 2; ++i) {
    const auto page = static_cast<std::uint32_t>(rng.uniform(0, kDbPages - 1));
    api::must(co_await db.pwrite(page, 1));
  }
  api::must(co_await db.order_point());
  api::must(co_await journal.pwrite(0, 1));
  if (fsync_commit)
    api::must(co_await journal.fsync());
  else
    api::must(co_await journal.durability_point());
}

/// Creates and fills the database and its rollback journal.
sim::Task sqlite_setup(api::Vfs& vfs, api::File& db, api::File& journal) {
  db = api::must(
      co_await vfs.open("app.db", {.create = true, .extent_blocks = kDbPages}));
  for (std::uint32_t off = 0; off < kDbPages; off += blk::kMaxMergedBlocks) {
    api::must(co_await db.pwrite(
        off, std::min<std::uint32_t>(blk::kMaxMergedBlocks, kDbPages - off)));
    api::must(co_await db.fsync());
  }
  journal = api::must(co_await vfs.open(
      "app.db-journal", {.create = true, .extent_blocks = kJournalExtent}));
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.fsync());
}

struct SqliteBudget {
  /// operator-new calls across the kMeasuredTxns after the warm-up.
  std::uint64_t allocs = ~std::uint64_t{0};
  /// In-place checkpoint copies across the whole run.
  std::uint64_t checkpoint_writes = ~std::uint64_t{0};
  /// Coroutine frames allocated across the same txns.
  std::uint64_t frames = ~std::uint64_t{0};
  /// Live bytes gained across the kRetainedTxns after those.
  std::int64_t retained = 0;
  /// Requests the block layer's pool had constructed by the end of the
  /// retained txns.
  std::uint64_t fresh_requests = ~std::uint64_t{0};
};

/// Sets up the files, runs the warm-up, then counts operator-new calls
/// across the measured txns and the live bytes the retained txns keep.
sim::Task sqlite_client(api::Vfs& vfs, const blk::RequestPool& pool,
                        SqliteBudget& out) {
  api::File db;
  api::File journal;
  co_await sqlite_setup(vfs, db, journal);
  sim::Rng rng(3);
  std::uint32_t cursor = 1;
  for (std::uint64_t i = 0; i < kWarmupTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor);
  const std::uint64_t before = new_calls();
  const std::uint64_t frames_before = sim::frame_pool_stats().allocs;
  for (std::uint64_t i = 0; i < kMeasuredTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor);
  out.allocs = new_calls() - before;
  out.frames = sim::frame_pool_stats().allocs - frames_before;
  const std::int64_t live = live_bytes();
  for (std::uint64_t i = 0; i < kRetainedTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor);
  out.retained = live_bytes() - live;
  out.fresh_requests = pool.stats().fresh_requests;
}

SqliteBudget sqlite_budget(core::StackKind kind) {
  core::Stack stack(
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd()));
  stack.start();
  api::Vfs vfs(stack);
  SqliteBudget out;
  // iolint: detached-owner(run() below drains the client; vfs and out
  // outlive the run in this scope)
  stack.sim().spawn("sqlite", sqlite_client(vfs, stack.blk().pool(), out));
  stack.sim().run();
  out.checkpoint_writes = stack.fs().journal().stats().checkpoint_writes;
  return out;
}

void expect_sqlite_budget(core::StackKind kind, double frames_per_txn_budget) {
  const SqliteBudget b = sqlite_budget(kind);
  EXPECT_LE(static_cast<double>(b.allocs) /
                static_cast<double>(kMeasuredTxns),
            kAllocsPerTxnBudget);
  EXPECT_LE(static_cast<double>(b.frames) /
                static_cast<double>(kMeasuredTxns),
            frames_per_txn_budget)
      << b.frames << " coroutine frames over " << kMeasuredTxns << " txns";
  EXPECT_LE(static_cast<double>(b.retained) /
                static_cast<double>(kRetainedTxns),
            kRetainedBytesPerTxnBudget)
      << b.retained << " B retained over " << kRetainedTxns << " txns";
  EXPECT_LE(b.fresh_requests, kFreshRequestsBudget)
      << b.fresh_requests << " requests constructed over " << kWarmupTxns
      << " + " << kMeasuredTxns << " + " << kRetainedTxns << " txns";
  const std::uint64_t txns = kWarmupTxns + kMeasuredTxns + kRetainedTxns;
  EXPECT_LE(static_cast<double>(b.checkpoint_writes) /
                static_cast<double>(txns),
            kCheckpointWritesPerTxnBudget)
      << b.checkpoint_writes << " checkpoint copies over " << txns << " txns";
}

TEST(AllocBudget, SqlitePersistOnBfsDr) {
  SKIP_WITHOUT_COUNTER();
  expect_sqlite_budget(core::StackKind::kBfsDR, kBfsFramesPerTxnBudget);
}

TEST(AllocBudget, SqlitePersistOnExt4Dr) {
  SKIP_WITHOUT_COUNTER();
  expect_sqlite_budget(core::StackKind::kExt4DR, kExt4FramesPerTxnBudget);
}

// Per-commit retained memory. The PERSIST txns above commit only while the
// rollback journal grows; here each txn's commit point is an fsync, so the
// journal file's new mtime commits at every timer tick and a run makes
// thousands of commits while no file grows. A run with twice the txns (and
// about twice the commits) may retain at most kRetainedBytesPerCommitBudget
// more per extra commit: the journal keeps its live transactions only and
// reuses the released ones' objects. While it kept a shell of every
// transaction ever opened (336 B and a deque slot), it retained about 350 B.
// The warm-up runs past a journal lap, so both runs start with the live
// window at its steady size.
constexpr std::uint64_t kCommitWarmupTxns = 2'000;
constexpr std::uint64_t kCommitTxns = 4'000;
constexpr double kRetainedBytesPerCommitBudget = 8.0;

struct CommitRun {
  std::int64_t retained = 0;
  std::uint64_t commits = 0;
};

sim::Task fsync_commit_client(api::Vfs& vfs, const fs::Journal& fs_journal,
                              std::uint64_t txns, CommitRun& out) {
  api::File db;
  api::File journal;
  co_await sqlite_setup(vfs, db, journal);
  sim::Rng rng(5);
  std::uint32_t cursor = 1;
  for (std::uint64_t i = 0; i < kCommitWarmupTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor, /*fsync_commit=*/true);
  const std::int64_t live = live_bytes();
  const std::uint64_t commits = fs_journal.stats().commits;
  for (std::uint64_t i = 0; i < txns; ++i)
    co_await persist_txn(db, journal, rng, cursor, /*fsync_commit=*/true);
  out.retained = live_bytes() - live;
  out.commits = fs_journal.stats().commits - commits;
}

CommitRun commit_run(core::StackKind kind, std::uint64_t txns) {
  core::Stack stack(
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd()));
  stack.start();
  api::Vfs vfs(stack);
  CommitRun out;
  // iolint: detached-owner(run() below drains the client; vfs and out
  // outlive the run in this scope)
  stack.sim().spawn("sqlite", fsync_commit_client(
                                  vfs, stack.fs().journal(), txns, out));
  stack.sim().run();
  return out;
}

void expect_commit_budget(core::StackKind kind) {
  const CommitRun shorter = commit_run(kind, kCommitTxns);
  const CommitRun longer = commit_run(kind, 2 * kCommitTxns);
  ASSERT_GT(longer.commits, shorter.commits);
  const std::int64_t grown = longer.retained - shorter.retained;
  const std::uint64_t commits = longer.commits - shorter.commits;
  EXPECT_LE(static_cast<double>(grown) / static_cast<double>(commits),
            kRetainedBytesPerCommitBudget)
      << grown << " B more retained over " << commits << " more commits ("
      << shorter.commits << " -> " << longer.commits << ")";
}

TEST(AllocBudget, SqliteCommitsRetainNoPerCommitStateOnBfsDr) {
  SKIP_WITHOUT_COUNTER();
  expect_commit_budget(core::StackKind::kBfsDR);
}

TEST(AllocBudget, SqliteCommitsRetainNoPerCommitStateOnExt4Dr) {
  SKIP_WITHOUT_COUNTER();
  expect_commit_budget(core::StackKind::kExt4DR);
}

// A large fsync allocates nothing once warm. 256 scattered dirty pages are
// 256 data runs, and the sync's request lists (its own runs, and the
// in-flight carriers it sweeps) hold a request each, past their inline
// entries: they take their spill storage from the filesystem when the sync
// starts and give it back when it ends. Each fsync also commits the file's
// new mtime, on a 16-block journal, so the journal releases transactions
// and reuses their objects within a few rounds. The warm-up runs past the
// 64 pops after which the journal's FIFOs reuse their slots
// (sim::FlatQueue); from then on no fsync allocates. While each list grew
// its own storage, each of those fsyncs made 10 allocations for the two
// lists (five doublings each) and one for its transaction.
constexpr std::uint32_t kLargeFsyncPages = 256;
constexpr int kLargeFsyncWarmup = 80;
constexpr int kLargeFsyncMeasured = 20;

sim::Task large_fsync_client(api::Vfs& vfs, std::uint64_t& allocs) {
  api::File f = api::must(co_await vfs.open(
      "big", {.create = true, .extent_blocks = 2 * kLargeFsyncPages}));
  // Every other page: no two dirty pages merge into one run.
  auto round = [&f]() -> sim::Task {
    for (std::uint32_t i = 0; i < kLargeFsyncPages; ++i)
      api::must(co_await f.pwrite(2 * i, 1));
  };
  for (int i = 0; i < kLargeFsyncWarmup; ++i) {
    co_await round();
    api::must(co_await f.fsync());
  }
  allocs = 0;
  for (int i = 0; i < kLargeFsyncMeasured; ++i) {
    co_await round();
    const std::uint64_t before = new_calls();
    api::must(co_await f.fsync());
    allocs += new_calls() - before;
  }
}

TEST(AllocBudget, LargeFsyncMakesNoAllocation) {
  SKIP_WITHOUT_COUNTER();
  core::StackConfig cfg = core::StackConfig::make(
      core::StackKind::kExt4DR, flash::DeviceProfile::plain_ssd());
  cfg.fs.journal_blocks = 16;
  core::Stack stack(cfg);
  stack.start();
  api::Vfs vfs(stack);
  std::uint64_t allocs = ~std::uint64_t{0};
  // iolint: detached-owner(run() below drains the client; vfs and allocs
  // outlive the run in this scope)
  stack.sim().spawn("fsync", large_fsync_client(vfs, allocs));
  stack.sim().run();
  EXPECT_EQ(allocs, 0u) << "over " << kLargeFsyncMeasured << " fsyncs of "
                        << kLargeFsyncPages << " pages";
  EXPECT_GE(stack.fs().journal().stats().commits,
            static_cast<std::uint64_t>(kLargeFsyncWarmup + kLargeFsyncMeasured))
      << "every fsync commits";
}

struct VarmailRun {
  std::int64_t retained = 0;
  std::uint64_t allocs = 0;
  std::uint64_t flowops = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t journal_stalls = 0;
};

/// perf_suite's ring-qd8 scenario (16 ring clients at QD 8 over 400 mails
/// on BFS-DR) at `nr_queues` block-layer queues: the live bytes the stack
/// holds once the run drained, the operator-new calls the run made, and
/// the flowops it ran.
VarmailRun varmail_run(std::uint32_t nr_queues, std::uint32_t iterations) {
  const std::int64_t before = live_bytes();
  const std::uint64_t calls_before = new_calls();
  core::StackConfig cfg = core::StackConfig::make(
      core::StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
  cfg.blk.nr_queues = nr_queues;
  core::Stack stack(cfg);
  wl::VarmailParams p;
  p.threads = 16;
  p.files = 400;
  p.iterations = iterations;
  p.ring_qd = 8;
  const wl::VarmailResult r = wl::run_varmail(stack, p, sim::Rng(47));
  const fs::Journal::Stats& j = stack.fs().journal().stats();
  return VarmailRun{live_bytes() - before, new_calls() - calls_before,
                    r.ops_done, j.checkpoint_writes, j.journal_stalls};
}

/// Bytes retained per flowop between a run of `iterations` and one twice
/// as long, beyond a one-off `allowance`.
void expect_varmail_budget(std::uint32_t nr_queues, std::uint32_t iterations,
                           std::size_t allowance) {
  const VarmailRun shorter = varmail_run(nr_queues, iterations);
  const VarmailRun longer = varmail_run(nr_queues, 2 * iterations);
  ASSERT_GT(longer.flowops, shorter.flowops);
  const std::int64_t grown = longer.retained - shorter.retained;
  const std::uint64_t ops = longer.flowops - shorter.flowops;
  EXPECT_LE(static_cast<double>(grown - static_cast<std::int64_t>(allowance)) /
                static_cast<double>(ops),
            kRetainedBytesPerFlowopBudget)
      << grown << " B more retained over " << ops << " more flowops at q"
      << nr_queues << ", " << iterations << " -> " << 2 * iterations
      << " iterations, " << allowance << " B allowed";
}

// perf_suite's ring-qd8 varmail at q4 checkpoints lazily: a retire drops an
// older transaction's pending copy of every home it re-journals, and the
// rest fall due half a journal behind the head, before the head needs the
// space: 0.0035 checkpoint writes per flowop (60 over 120 iterations).
// Copying every home at every retire took 0.41 per op on iobench's
// varmail-q4.
constexpr double kVarmailCheckpointWritesPerFlowopBudget = 0.05;

TEST(AllocBudget, VarmailRingCheckpointsLazily) {
  const VarmailRun run = varmail_run(4, 120);
  ASSERT_GT(run.flowops, 0u);
  EXPECT_LE(static_cast<double>(run.checkpoint_writes) /
                static_cast<double>(run.flowops),
            kVarmailCheckpointWritesPerFlowopBudget)
      << run.checkpoint_writes << " checkpoint copies over " << run.flowops
      << " flowops";
  EXPECT_GT(run.checkpoint_writes, 0u) << "no copy ever fell due";
  EXPECT_EQ(run.journal_stalls, 0u);
}

TEST(AllocBudget, VarmailRingRetainsNoPerOpStateQ1) {
  SKIP_WITHOUT_COUNTER();
  expect_varmail_budget(1, 60, kVarmailWarmupBytesQ1);
}

TEST(AllocBudget, VarmailRingRetainsNoPerOpStateQ4) {
  SKIP_WITHOUT_COUNTER();
  expect_varmail_budget(4, 60, kVarmailWarmupBytesQ4);
}

TEST(AllocBudget, VarmailRingRetainsNoPerOpStateOnceSpansCirculate) {
  SKIP_WITHOUT_COUNTER();
  for (const std::uint32_t nr_queues : {1u, 4u})
    expect_varmail_budget(nr_queues, 120, 0);
}

// Allocations per extra flowop of the same runs, by the same difference
// method: the setup and the warm-up of every pool and table cancel out.
TEST(AllocBudget, VarmailRingAllocs) {
  SKIP_WITHOUT_COUNTER();
  for (const std::uint32_t nr_queues : {1u, 4u}) {
    const VarmailRun shorter = varmail_run(nr_queues, 60);
    const VarmailRun longer = varmail_run(nr_queues, 120);
    ASSERT_GT(longer.flowops, shorter.flowops);
    const std::uint64_t allocs = longer.allocs - shorter.allocs;
    const std::uint64_t ops = longer.flowops - shorter.flowops;
    EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(ops),
              kAllocsPerFlowopBudget)
        << allocs << " more allocations over " << ops
        << " more flowops at q" << nr_queues;
  }
}

// The largest extent the stack accepts: 2^30 pages (4 TiB). Writing its
// first and last page must cost memory for the pages touched, not for the
// span between them; the page-number and LBA directories may add 8 B per
// 4096 pages of span (2 MiB each here).
constexpr std::uint32_t kSparseExtent = std::uint32_t{1} << 30;
constexpr std::int64_t kSparseRetainedBudget = std::int64_t{16} << 20;

/// Creates the file, then pwrites and fsyncs its first and its last page;
/// `retained` gets the live bytes those four calls left behind.
sim::Task sparse_client(api::Vfs& vfs, std::int64_t& retained) {
  api::File f = api::must(co_await vfs.open(
      "sparse", {.create = true, .extent_blocks = kSparseExtent}));
  const std::int64_t before = live_bytes();
  for (const std::uint32_t page : {0u, kSparseExtent - 1}) {
    api::must(co_await f.pwrite(page, 1));
    api::must(co_await f.fsync());
  }
  retained = live_bytes() - before;
}

TEST(AllocBudget, SparseExtentCostsTouchedPagesNotSpan) {
  SKIP_WITHOUT_COUNTER();
  const auto start = std::chrono::steady_clock::now();
  core::Stack stack(core::StackConfig::make(
      core::StackKind::kBfsDR, flash::DeviceProfile::plain_ssd()));
  stack.start();
  api::Vfs vfs(stack);
  std::int64_t retained = std::numeric_limits<std::int64_t>::max();
  // iolint: detached-owner(run() below drains the client; vfs and retained
  // outlive the run in this scope)
  stack.sim().spawn("sparse", sparse_client(vfs, retained));
  stack.sim().run();
  EXPECT_LE(retained, kSparseRetainedBudget)
      << retained << " B retained by two single-page writes";
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(AllocBudget, ShortLivedSpawnsRecycleContexts) {
  SKIP_WITHOUT_COUNTER();
  sim::Simulator sim;
  std::uint64_t ran = 0;
  auto body = [&]() -> sim::Task {
    ++ran;
    co_await sim.delay(1);
  };
  // The first spawn sizes the context pool, the frame pool and the event
  // heap; every later one reuses them.
  sim.spawn("short", body());
  sim.run();
  const std::uint64_t before = new_calls();
  for (int i = 1; i < 100'000; ++i) {
    sim.spawn("short", body());
    sim.run();
  }
  EXPECT_EQ(new_calls() - before, 0u);
  EXPECT_EQ(ran, 100'000u);
}

}  // namespace
}  // namespace bio
