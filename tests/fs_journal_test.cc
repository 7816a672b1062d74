// Journaling-protocol tests: JBD2 (EXT4) baseline, BarrierFS dual-mode, and
// OptFS, incl. commit batching, page conflicts and dual-mode pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "fs/barrierfs.h"
#include "fs/recovery.h"
#include "fs_test_util.h"

namespace bio::fs {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using sim::Task;
using testutil::retired_txns;
using testutil::StackFixture;
using testutil::test_stack_config;

TEST(Jbd2Test, CommitWritesJdAndJc) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  const Journal& j = x.fs().journal();
  EXPECT_EQ(j.stats().commits, 1u);
  ASSERT_EQ(retired_txns(j).size(), 1u);
  const Txn* txn = retired_txns(j)[0];
  // Buffers: root dir block + inode block.
  EXPECT_EQ(txn->buffers.size(), 2u);
  EXPECT_EQ(txn->jd_blocks.size(), 3u) << "descriptor + 2 log blocks";
  EXPECT_NE(txn->jc_block.second, 0u);
  EXPECT_TRUE(txn->flushed);
}

TEST(Jbd2Test, JournalRecordsLandInJournalRegion) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  const Txn* txn = retired_txns(x.fs().journal())[0];
  const Layout& lo = x.fs().layout();
  for (const auto& [lba, ver] : txn->jd_blocks) {
    EXPECT_GE(lba, lo.journal_base());
    EXPECT_LT(lba, lo.inode_base());
  }
  EXPECT_LT(txn->jc_block.first, lo.inode_base());
}

TEST(Jbd2Test, GroupCommitBatchesConcurrentFsyncs) {
  StackFixture x(StackKind::kExt4DR);
  int done = 0;
  auto worker = [&](const char* name) -> Task {
    Inode* f = nullptr;
    co_await x.fs().create(name, f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    ++done;
  };
  x.sim().spawn("a", worker("a"));
  x.sim().spawn("b", worker("b"));
  x.sim().spawn("c", worker("c"));
  x.sim().run();
  EXPECT_EQ(done, 3);
  // All three files' metadata usually lands in 1-2 transactions, not 3.
  EXPECT_LE(x.fs().journal().stats().commits, 2u);
}

TEST(Jbd2Test, SecondFsyncWithoutChangesJustFlushes) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    const std::uint64_t commits = x.fs().journal().stats().commits;
    co_await x.fs().sync(*f, Syscall::kFsync);  // nothing dirty
    EXPECT_EQ(x.fs().journal().stats().commits, commits)
        << "no new transaction for a clean file";
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- one commit per single-committer protocol --------------------------

/// What one commit of a create's transaction does: the device flush
/// entries it adds, the retired transaction's `flushed`, and the device
/// write commands the run made, whose only writes are that commit's JD and
/// JC.
struct OneCommit {
  std::uint64_t flush_entries = 0;
  bool flushed = false;
  std::uint64_t device_writes = 0;
  std::uint64_t blocks_written = 0;
  std::size_t journal_blocks = 0;  // JD + JC
};

OneCommit run_one_commit(core::StackConfig cfg) {
  StackFixture x(cfg.kind, &cfg);
  Journal& j = x.fs().journal();
  OneCommit out;
  Inode* f = nullptr;
  auto body = [&]() -> Task {
    co_await x.fs().create("a", f);
    const std::uint64_t entries = x.dev().flush_sequence();
    co_await j.commit(f->txn_id, Journal::WaitMode::kDurable);
    out.flush_entries = x.dev().flush_sequence() - entries;
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(j.stats().commits, 1u);
  EXPECT_TRUE(j.is_retired(f->txn_id));
  const Txn& txn = *j.find_txn(f->txn_id);
  out.flushed = txn.flushed;
  out.device_writes = x.dev().stats().writes;
  out.blocks_written = x.dev().stats().blocks_written;
  out.journal_blocks = txn.jd_blocks.size() + 1;
  return out;
}

TEST(Jbd2Test, DefaultCommitFlushesOnceThroughItsJc) {
  // JD, wait for its transfer, then JC with FLUSH|FUA: the JC's pre-flush
  // is the commit's one flush entry.
  const OneCommit c = run_one_commit(test_stack_config(StackKind::kExt4DR));
  EXPECT_EQ(c.flush_entries, 1u);
  EXPECT_TRUE(c.flushed);
  EXPECT_EQ(c.device_writes, 2u) << "Wait-on-Transfer: JD, then JC";
}

TEST(Jbd2Test, NobarrierCommitAddsNoFlush) {
  // EXT4-OD: JC is a plain write; the commit retires at its transfer, and
  // JC may still sit in the device cache.
  const OneCommit c = run_one_commit(test_stack_config(StackKind::kExt4OD));
  EXPECT_EQ(c.flush_entries, 0u);
  EXPECT_FALSE(c.flushed);
  EXPECT_EQ(c.device_writes, 2u) << "Wait-on-Transfer: JD, then JC";
}

TEST(Jbd2Test, ChecksumCommitWritesAFuaJcThenFlushes) {
  // The mobile EXT4 setup (journal_checksum): JC is FUA-only, then one
  // flush. UFS emulates FUA as write + flush, so the JC adds one flush
  // entry and the trailing flush the other.
  const core::StackConfig cfg =
      core::StackConfig::make(StackKind::kExt4DR, flash::DeviceProfile::ufs());
  ASSERT_TRUE(cfg.fs.journal_checksum);
  ASSERT_TRUE(cfg.device.fua_implies_flush);
  const OneCommit c = run_one_commit(cfg);
  EXPECT_EQ(c.flush_entries, 2u);
  EXPECT_TRUE(c.flushed);
  EXPECT_EQ(c.device_writes, 2u) << "Wait-on-Transfer: JD, then JC";
}

TEST(Jbd2Test, OptFsCommitDispatchesJdAndJcTogetherWithoutAFlush) {
  // OptFS: checksummed JD and JC go out back-to-back and are waited
  // together; nothing is flushed. JC is submitted before JD is
  // dispatched, so the elevator merges the two adjacent records: both are
  // in the device, in one command, before either completes.
  const OneCommit c = run_one_commit(test_stack_config(StackKind::kOptFs));
  EXPECT_EQ(c.flush_entries, 0u);
  EXPECT_FALSE(c.flushed);
  EXPECT_EQ(c.device_writes, 1u);
  EXPECT_EQ(c.blocks_written, c.journal_blocks);
}

TEST(Jbd2Test, PageConflictBlocksApplication) {
  StackFixture x(StackKind::kExt4DR);
  // Thread A fsyncs a file; thread B dirties the same file's inode while
  // the transaction is committing: B must block (EXT4 rule).
  Inode* f = nullptr;
  auto setup = [&]() -> Task {
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  auto syncer = [&]() -> Task { co_await x.fs().sync(*f, Syscall::kFsync); };
  auto writer = [&]() -> Task {
    co_await x.sim().delay(50_us);  // land mid-commit
    co_await x.sim().delay(5_ms);   // cross a timer tick -> metadata dirty
    co_await x.fs().write(*f, 0, 1);
  };
  x.sim().spawn("syncer", syncer());
  x.sim().spawn("writer", writer());
  x.sim().run();
  // The writer may or may not have hit the window; run a tight second
  // round where the conflict is certain.
  auto writer2 = [&]() -> Task {
    co_await x.sim().delay(10_ms);
    co_await x.fs().write(*f, 0, 1);  // dirty inode (new tick)
    auto t1 = x.fs().sync(*f, Syscall::kFsync);       // commit in background thread
    co_await std::move(t1);
  };
  x.sim().spawn("w2", writer2());
  x.sim().run();
  SUCCEED();  // structural: no deadlock across conflicting commits
}

TEST(BarrierFsTest, FsyncCommitsWithSingleApplicationWakeup) {
  StackFixture x(StackKind::kBfsDR);
  sim::Thread app;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    const std::uint64_t cs0 = app->context_switches;
    co_await x.fs().sync(*f, Syscall::kFsync);
    EXPECT_EQ(app->context_switches - cs0, 1u)
        << "BarrierFS fsync: one sleep (until the flush thread reports "
           "durability), no Wait-on-Transfer";
  };
  app = x.sim().spawn("app", body());
  x.sim().run();
}

TEST(BarrierFsTest, FdatasyncWithoutMetadataWakesTwice) {
  StackFixture x(StackKind::kBfsDR);
  sim::Thread app;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    co_await x.fs().write(*f, 0, 1);  // same tick: data only
    const std::uint64_t cs0 = app->context_switches;
    co_await x.fs().sync(*f, Syscall::kFdatasync);
    EXPECT_EQ(app->context_switches - cs0, 2u)
        << "§6.3: D transfer wait + flush wait";
  };
  app = x.sim().spawn("app", body());
  x.sim().run();
}

TEST(BarrierFsTest, FdatabarrierDoesNotBlock) {
  StackFixture x(StackKind::kBfsDR);
  sim::Thread app;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    co_await x.fs().write(*f, 0, 1);  // data only
    const std::uint64_t cs0 = app->context_switches;
    const std::uint64_t blocks0 = app->blocks;
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);
    EXPECT_EQ(app->context_switches - cs0, 0u);
    EXPECT_EQ(app->blocks - blocks0, 0u)
        << "fdatabarrier returns after dispatch, no sleep at all";
  };
  app = x.sim().spawn("app", body());
  x.sim().run();
}

TEST(BarrierFsTest, FdatabarrierEnforcesEpochOrdering) {
  StackFixture x(StackKind::kBfsDR);
  flash::WritebackCache::TransferRecorder xfers;
  x.dev().install_transfer_recorder(&xfers);
  flash::Lba hello_lba = 0, world_lba = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);  // "Hello"
    hello_lba = f->lba_of_page(0);
    co_await x.fs().sync(*f, Syscall::kFsync);        // settle metadata
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);
    co_await x.fs().write(*f, 1, 1);  // "World" — next epoch
    world_lba = f->lba_of_page(1);
    co_await x.fs().sync(*f, Syscall::kFdatasync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  // Transfer history: world's epoch strictly greater than hello's.
  std::uint64_t hello_epoch = 0, world_epoch = 0;
  for (const auto& e : xfers) {
    if (e.lba == hello_lba) hello_epoch = std::max(hello_epoch, e.epoch);
    if (e.lba == world_lba) world_epoch = e.epoch;
  }
  EXPECT_GT(world_epoch, hello_epoch);
}

TEST(BarrierFsTest, FbarrierReturnsAfterDispatchNotDurability) {
  StackFixture x(StackKind::kBfsDR);
  sim::SimTime fbarrier_latency = 0;
  sim::SimTime fsync_latency = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    sim::SimTime t0 = x.sim().now();
    co_await x.fs().sync(*f, Syscall::kFbarrier);
    fbarrier_latency = x.sim().now() - t0;

    co_await x.sim().delay(5_ms);
    co_await x.fs().write(*f, 1, 1);
    t0 = x.sim().now();
    co_await x.fs().sync(*f, Syscall::kFsync);
    fsync_latency = x.sim().now() - t0;
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_LT(fbarrier_latency, fsync_latency / 2)
      << "ordering-only commit must be far cheaper than durability";
}

TEST(BarrierFsTest, PipelinedCommitsOverlap) {
  StackFixture x(StackKind::kBfsDR);
  // Issue many fbarrier commits from different files back-to-back; the
  // dual-mode journal should keep several committing transactions alive.
  std::size_t max_committing = 0;
  auto body = [&]() -> Task {
    std::vector<Inode*> files(6);
    for (int i = 0; i < 6; ++i) {
      Inode* f = nullptr;
      co_await x.fs().create("f" + std::to_string(i), f);
      files[static_cast<std::size_t>(i)] = f;
    }
    auto* bfs = dynamic_cast<BarrierFsJournal*>(&x.fs().journal());
    for (Inode* f : files) {
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFbarrier);
      max_committing = std::max(max_committing, bfs->committing_count());
    }
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GE(max_committing, 2u)
      << "dual-mode journaling: >1 committing transaction in flight";
}

// Dual-mode journaling's flush thread: a transaction whose JD and JC a
// completed flush's snapshot already held needs no flush of its own.
// Concurrent fsyncs of distinct files, staggered by think times so that
// they do not all join one group commit, pipeline their commits in the
// committing list, so a flush issued for one transaction often finds the
// next ones' records in the cache.
TEST(BarrierFsTest, OneFlushRetiresEveryTransactionItCovered) {
  core::StackConfig cfg = core::StackConfig::make(
      StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
  StackFixture x(cfg.kind, &cfg);
  constexpr int kWriters = 8;
  constexpr int kFsyncs = 10;
  int acked = 0;
  int lost = 0;
  auto writer = [&](int w) -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("f" + std::to_string(w), f);
    for (int i = 0; i < kFsyncs; ++i) {
      co_await x.sim().delay(static_cast<sim::SimTime>(w + 1) * 100_us);
      const auto page = static_cast<std::uint32_t>(i);
      co_await x.fs().write(*f, page, 1);
      const flash::Version version =
          x.fs().page_cache().find(f->ino, page)->version;
      EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFsync), FsStatus::kOk);
      ++acked;
      const auto durable = x.dev().durable_state();
      const auto it = durable.find(f->lba_of_page(page));
      if (it == durable.end() || it->second != version) ++lost;
    }
  };
  for (int w = 0; w < kWriters; ++w)
    x.sim().spawn("w" + std::to_string(w), writer(w));
  x.sim().run();
  ASSERT_EQ(acked, kWriters * kFsyncs);
  EXPECT_EQ(lost, 0) << "fsyncs returned before their data was durable";
  const Journal& j = x.fs().journal();
  EXPECT_LT(x.dev().stats().flushes, j.stats().commits)
      << "every commit paid a flush of its own";
  std::size_t durable_waits = 0;
  for (const Txn* txn : retired_txns(j)) {
    if (!txn->needs_flush) continue;
    ++durable_waits;
    EXPECT_TRUE(txn->flushed) << "txn " << txn->id;
  }
  EXPECT_GT(durable_waits, 0u);
}

// On a power-safe cache persisted_through() always holds, yet a flush
// still has to be issued for a transaction no completed flush covered:
// coverage is what a flush's snapshot held, not what the cache keeps.
TEST(BarrierFsTest, UncoveredCommitStillFlushesOnSupercap) {
  core::StackConfig cfg = core::StackConfig::make(
      StackKind::kBfsDR, flash::DeviceProfile::supercap_ssd());
  StackFixture x(cfg.kind, &cfg);
  Inode* f = nullptr;
  std::uint64_t flush_entries = 0;
  auto body = [&]() -> Task {
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    co_await x.fs().write(*f, 1, 1);
    const std::uint64_t entries = x.dev().flush_sequence();
    co_await x.fs().sync(*f, Syscall::kFsync);
    flush_entries = x.dev().flush_sequence() - entries;
  };
  x.sim().spawn("t", body());
  x.sim().run();
  const Txn& txn = *x.fs().journal().find_txn(f->txn_id);
  EXPECT_TRUE(txn.needs_flush);
  EXPECT_TRUE(txn.flushed);
  EXPECT_EQ(flush_entries, 1u);
}

// The journal reuses a released transaction's object even while a
// durability waiter still sleeps on it: BarrierFS's commit reads the
// transaction's `flushed` and `state` when it wakes only if the id is
// still live. Here the waiter sleeps (a long wake latency) through its
// transaction T's flush, retire and release, and through later fbarrier
// commits, which retire without a flush, until T's object carries one of
// them that has retired. Read through the waiter's reference, that object
// would make the waiter flush for the later transaction and mark it
// flushed, and a durability waiter on that one would then skip its flush.
TEST(BarrierFsTest, DurabilityWaiterWakesAfterItsTransactionWasReused) {
  core::StackConfig cfg = test_stack_config(StackKind::kBfsDR);
  cfg.fs.journal_blocks = 32;  // the tail releases T within a few commits
  StackFixture x(StackKind::kBfsDR, &cfg);
  Journal& j = x.fs().journal();
  Inode* f = nullptr;
  std::uint64_t t = 0;
  const Txn* t_object = nullptr;
  std::uint64_t first_after = 0;  // the first transaction opened after T's
  std::uint64_t carrier = 0;      // the later transaction in T's object
  bool carrier_owes_flush = false;
  bool woke = false;
  bool released_at_wake = false;
  std::uint64_t flushes_before_wake = 0;
  std::uint64_t flushes_at_wake = 0;
  std::uint64_t later_txns = 0;
  std::uint64_t later_flushes = 0;
  auto carrier_of_t_object = [&]() -> std::uint64_t {
    for (std::uint64_t id = j.sb_tail_txn(); id <= j.running_txn_id(); ++id)
      if (id != t && j.find_txn(id) == t_object) return id;
    return 0;
  };
  auto waiter = [&]() -> Task {
    co_await j.commit(t, Journal::WaitMode::kDurable);
    flushes_at_wake = x.dev().flush_sequence();
    released_at_wake = j.is_released(t);
    woke = true;
  };
  auto app = [&]() -> Task {
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    co_await x.sim().delay(5_ms);  // new tick: the write dirties the inode
    co_await x.fs().write(*f, 0, 1);
    t = f->txn_id;
    t_object = j.find_txn(t);
    sim::Thread w = x.sim().spawn("waiter", waiter());
    w->wake_latency = 1_s;
    // iolint: stable-across-suspend(names the first transaction opened
    // after T's, whatever runs later)
    first_after = j.running_txn_id() + 1;
    for (int i = 0; i < 100 && (carrier == 0 || !j.is_retired(carrier));
         ++i) {
      co_await x.sim().delay(5_ms);
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFbarrier);
      if (carrier == 0) carrier = carrier_of_t_object();
    }
    while (!j.is_retired(j.running_txn_id() - 1)) co_await x.sim().delay(1_us);
    flushes_before_wake = x.dev().flush_sequence();
    carrier_owes_flush = carrier != 0 && carrier_of_t_object() == carrier &&
                         !j.find_txn(carrier)->flushed;
    EXPECT_FALSE(woke) << "the waiter woke before the scenario was set up";
    while (!woke) co_await x.sim().delay(1_ms);
    // The later transactions still live all retired through fbarrier,
    // without a flush: a durability waiter on each still owes one.
    const std::uint64_t before = x.dev().flush_sequence();
    for (std::uint64_t id = std::max(first_after, j.sb_tail_txn());
         id < j.running_txn_id(); ++id) {
      co_await j.commit(id, Journal::WaitMode::kDurable);
      ++later_txns;
    }
    later_flushes = x.dev().flush_sequence() - before;
  };
  x.sim().spawn("app", app());
  x.sim().run();

  ASSERT_TRUE(woke);
  EXPECT_TRUE(released_at_wake);
  EXPECT_TRUE(carrier_owes_flush)
      << "T's object carried no retired, unflushed transaction when the "
         "waiter woke";
  EXPECT_EQ(flushes_at_wake, flushes_before_wake)
      << "the waiter flushed again for a transaction the flush thread had "
         "flushed";
  EXPECT_GT(later_txns, 0u);
  EXPECT_EQ(later_flushes, later_txns)
      << "a later durability waiter skipped its flush";
}

// A commit on a transaction the tail has released returns at once: the
// release rule made its homes durable (their in-place copies, or a newer
// transaction's journal copies, with a flush completed after either). Here
// `a`'s i_size change joins a transaction T that `b`'s fbarrier commits
// without a flush. More fbarrier commits of `b` fill the journal until a
// stall's flush lets the tail pass T, and `a`'s fsync then commits T's
// released id. Nothing else flushes: only the release rule makes T's
// in-place copy of `a`'s inode durable before the fsync.
TEST(BarrierFsTest, FsyncOnAReleasedTransactionKeepsItsMetadataAndData) {
  core::StackConfig cfg = test_stack_config(StackKind::kBfsDR);
  cfg.fs.journal_blocks = 32;  // the tail releases T within a few commits
  StackFixture x(StackKind::kBfsDR, &cfg);
  Journal& j = x.fs().journal();
  const Recovery recovery(j, x.fs().layout(), x.fs().config());
  Inode* a = nullptr;
  Inode* b = nullptr;
  std::uint64_t t = 0;
  flash::Version page1 = 0;
  bool released_at_fsync = false;
  FsStatus status = FsStatus::kIo;
  std::optional<RecoveryReport> at_fsync;   // a cut as the fsync starts
  std::optional<RecoveryReport> at_return;  // and one as it returns
  auto body = [&]() -> Task {
    co_await x.fs().create("a", a);
    co_await x.fs().create("b", b);
    co_await x.fs().write(*a, 0, 1);
    co_await x.fs().sync(*a, Syscall::kFsync);
    co_await x.sim().delay(5_ms);  // new tick: the writes dirty the inodes
    co_await x.fs().write(*a, 1, 1);  // i_size 2
    page1 = x.fs().page_cache().find(a->ino, 1)->version;
    t = a->txn_id;
    co_await x.fs().write(*b, 0, 1);
    co_await x.fs().sync(*b, Syscall::kFbarrier);  // commits T: no flush
    // Each write grows `b`, so each commit carries its inode. No pause:
    // the device programs what its cache holds within milliseconds, and
    // the cut must come before it does for the flush to matter.
    for (std::uint32_t page = 1;
         page < cfg.fs.default_extent_blocks && !j.is_released(t); ++page) {
      co_await x.fs().write(*b, page, 1);
      co_await x.fs().sync(*b, Syscall::kFbarrier);
    }
    released_at_fsync = j.is_released(t) && a->meta_dirty && a->txn_id == t;
    at_fsync = recovery.recover(x.dev().durable_state());
    status = co_await x.fs().sync(*a, Syscall::kFsync);
    at_return = recovery.recover(x.dev().durable_state());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  ASSERT_TRUE(released_at_fsync)
      << "the fsync did not commit a released transaction's id";
  EXPECT_EQ(status, FsStatus::kOk);
  auto size_of_a = [](const RecoveryReport& r) -> std::uint32_t {
    for (const RecoveryReport::RecoveredFile& f : r.files)
      if (f.name == "a") return f.size_blocks;
    return 0;
  };
  // Before the fsync runs, the release rule alone holds T's i_size.
  ASSERT_TRUE(at_fsync.has_value());
  EXPECT_TRUE(at_fsync->clean());
  EXPECT_EQ(size_of_a(*at_fsync), 2u);
  // At its return, the acked i_size and page 1 both survive.
  ASSERT_TRUE(at_return.has_value());
  EXPECT_TRUE(at_return->clean());
  EXPECT_EQ(size_of_a(*at_return), 2u);
  const auto data = at_return->data.find(a->lba_of_page(1));
  ASSERT_NE(data, at_return->data.end()) << "page 1 did not survive";
  EXPECT_EQ(data->second, page1);
}

TEST(BarrierFsTest, MultiTxnPageConflictDoesNotBlockApplication) {
  StackFixture x(StackKind::kBfsDR);
  sim::Thread app;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFbarrier);  // inode buffer now in a committing txn
    co_await x.sim().delay(5_ms);  // new tick so the write dirties metadata
    const std::uint64_t blocks0 = app->blocks;
    co_await x.fs().write(*f, 0, 1);  // conflicts with committing txn
    EXPECT_EQ(app->blocks - blocks0, 0u)
        << "BarrierFS: conflict goes to the conflict-page list, the "
           "application does not block (§4.3)";
    co_await x.fs().sync(*f, Syscall::kFsync);  // must still commit correctly
  };
  app = x.sim().spawn("app", body());
  x.sim().run();
  EXPECT_GE(x.fs().journal().stats().conflicts, 0u);
}

TEST(BarrierFsTest, ConflictGatesNextCommitUntilResolved) {
  StackFixture x(StackKind::kBfsDR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFbarrier);
    co_await x.sim().delay(5_ms);
    co_await x.fs().write(*f, 0, 1);  // conflict queued
    co_await x.fs().sync(*f, Syscall::kFsync);        // commit must wait for resolution
    // If we get here without deadlock the gating worked.
  };
  x.sim().spawn("t", body());
  x.sim().run();
  const auto order = retired_txns(x.fs().journal());
  ASSERT_GE(order.size(), 2u);
  // The conflicted buffer must appear in the later transaction too.
  EXPECT_FALSE(order.back()->buffers.empty());
}

TEST(BarrierFsTest, DroppedCopyHoldsTheTailUntilAFlushAfterItsCover) {
  // T journals an append (the inode block alone) for an fsync. A second
  // writer dirties that block while T commits, so it waits on the
  // conflict-page list and joins the running R at T's retire. R then
  // retires through fdatabarrier, without a flush, and drops T's pending
  // copy of the block, so R's journal copy, which may still sit in the
  // device cache, is the only newer one. The superblock tail must not pass
  // T until a flush completes after R's retire, or a cut in between loses
  // T's acked i_size.
  core::StackConfig cfg = test_stack_config(StackKind::kBfsDR);
  cfg.fs.journal_blocks = 32;  // the create's copies fall due quickly
  StackFixture x(StackKind::kBfsDR, &cfg);
  Journal& j = x.fs().journal();
  Inode* f = nullptr;
  std::uint64_t t = 0;
  std::uint64_t r = 0;
  bool acked = false;
  // The cut: the durable image and the journal's state when the empty
  // commit after R's retire has reserved its space.
  std::unordered_map<flash::Lba, flash::Version> image;
  std::uint64_t tail_at_cut = 0;
  std::uint64_t horizon_at_cut = 0;
  // The device's flush sequence when R retires: nothing flushes between
  // the racer's flush and R's fdatabarrier commit.
  std::uint64_t seq_at_r = 0;
  auto appender = [&]() -> Task {
    co_await x.fs().create("a", f, 32);
    co_await x.fs().write(*f, 0, 4);
    co_await x.fs().sync(*f, Syscall::kFsync);
    // Rewrites until the tail has passed the create's transaction: its
    // directory copy falls due and a later fsync's flush makes it durable.
    const std::uint64_t created = f->txn_id;
    for (int i = 0; i < 50 && j.sb_tail_txn() <= created; ++i) {
      co_await x.sim().delay(5_ms);  // new tick: the write dirties the inode
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFsync);
    }
    co_await x.sim().delay(5_ms);
    co_await x.fs().write(*f, 4, 1);  // i_size 5
    t = f->txn_id;
    co_await x.fs().sync(*f, Syscall::kFsync);
    acked = true;
  };
  auto racer = [&]() -> Task {
    while (t == 0 || j.running_txn_id() == t) co_await x.sim().delay(1_us);
    co_await x.fs().write(*f, 5, 1);  // T holds the block: conflict list
    r = f->txn_id;
    while (!acked) co_await x.sim().delay(1_us);
    // T's retire dropped the pending copy of the rewrite before it, whose
    // span now waits for a flush after T's retire: this one, so the tail
    // can reach T.
    co_await x.stack->blk().flush_and_wait();
    seq_at_r = x.dev().flush_sequence();
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);  // commits R
    while (!j.is_retired(r)) co_await x.sim().delay(1_us);
    // Nothing is dirty: an empty commit, whose reservation moves the tail
    // as far as the release rule allows.
    // iolint: stable-across-suspend(names the empty transaction this
    // fdatabarrier commits, whose dispatch the loop below waits for)
    const std::uint64_t e = j.running_txn_id();
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);
    while (!j.find_txn(e)->dispatched.is_set())
      co_await x.sim().delay(1_us);
    image = x.dev().durable_state();
    tail_at_cut = j.sb_tail_txn();
    horizon_at_cut = x.dev().flush_horizon();
  };
  x.sim().spawn("appender", appender());
  x.sim().spawn("racer", racer());
  x.sim().run();

  ASSERT_TRUE(acked);
  ASSERT_GT(r, t);
  const Txn& older = *j.find_txn(t);
  const Txn& cover = *j.find_txn(r);
  EXPECT_TRUE(older.flush_owed);
  EXPECT_EQ(older.flush_stamp, seq_at_r)
      << "R's retire, which dropped T's copy, set T's stamp";
  EXPECT_EQ(older.pending_homes, 0u);
  EXPECT_TRUE(older.checkpoint_blocks.empty())
      << "T copied nothing in place: only the release rule holds its span";
  EXPECT_EQ(j.stats().journal_stalls, 0u) << "a stall would have flushed";
  EXPECT_LE(horizon_at_cut, older.flush_stamp)
      << "no flush completed after R retired";
  EXPECT_EQ(tail_at_cut, t) << "the tail reaches T but may not pass it";
  const auto jc = image.find(cover.jc_block.first);
  EXPECT_TRUE(jc == image.end() || jc->second != cover.jc_block.second)
      << "R's commit record is not durable at the cut";

  // The cut recovers T's acked i_size from T's own log copy.
  const Recovery recovery(j, x.fs().layout(), x.fs().config());
  const RecoveryReport report = recovery.recover(image);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_GE(report.files.front().size_blocks, 5u);

  // Only a flush after R's retire lets a later reservation release T (and
  // free T's object for reuse: keep its stamp).
  const std::uint64_t t_stamp = older.flush_stamp;
  EXPECT_LE(x.dev().flush_horizon(), t_stamp);
  EXPECT_EQ(j.sb_tail_txn(), t);
  auto flusher = [&]() -> Task {
    co_await x.fs().sync(*f, Syscall::kFsync);  // nothing dirty: a flush
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);
  };
  x.sim().spawn("flusher", flusher());
  x.sim().run();
  EXPECT_GT(x.dev().flush_horizon(), t_stamp);
  EXPECT_GT(j.sb_tail_txn(), t);
  EXPECT_EQ(j.find_txn(t), nullptr) << "a released transaction has no Txn";
  EXPECT_TRUE(j.is_retired(t));
}

TEST(OptFsTest, OsyncCommitsWithoutFlush) {
  StackFixture x(StackKind::kOptFs);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kOsync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.dev().stats().flushes, 0u) << "OptFS never flushes";
  EXPECT_GE(x.fs().journal().stats().commits, 1u);
}

TEST(OptFsTest, SelectiveDataJournalingJournalsOverwrites) {
  StackFixture x(StackKind::kOptFs);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 4);
    co_await x.fs().sync(*f, Syscall::kOsync);  // allocating: written in place
    co_await x.fs().write(*f, 0, 4);  // overwrite
    co_await x.fs().sync(*f, Syscall::kOsync);  // journaled, not written in place
  };
  x.sim().spawn("t", body());
  x.sim().run();
  const auto order = retired_txns(x.fs().journal());
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0]->journaled_data.size(), 0u);
  EXPECT_EQ(order.back()->journaled_data.size(), 4u)
      << "4 overwritten pages journaled selectively";
}

TEST(JournalTest, FullRunningTxnCommitsBeforeABufferJoins) {
  // jbd2's transaction-size bound (Journal::running_txn_full): in a
  // 10-block journal one transaction carries at most max_txn_payload() = 4
  // log blocks, so once the running one holds 3 buffers the next dirtied
  // block commits it and joins a fresh one. Nothing else commits here: no
  // sync runs.
  for (StackKind kind :
       {StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kOptFs}) {
    core::StackConfig cfg = test_stack_config(kind);
    cfg.fs.journal_blocks = 10;
    StackFixture x(kind, &cfg);
    Journal& journal = x.fs().journal();
    ASSERT_EQ(journal.max_txn_payload(), 4u);
    std::size_t max_payload = 0;
    std::uint64_t commits = 0;
    auto body = [&]() -> Task {
      for (const char* name : {"a", "b", "c", "d"}) {
        Inode* f = nullptr;
        co_await x.fs().create(name, f);
        max_payload = std::max(max_payload, journal.running_payload());
      }
      commits = journal.stats().commits;
    };
    x.sim().spawn("t", body());
    x.sim().run();
    EXPECT_LE(max_payload, 4u) << core::to_string(kind);
    EXPECT_GT(commits, 0u) << core::to_string(kind);
  }
}

TEST(JournalTest, StalledSpanCopiesItsPendingHomes) {
  // The same creates in a 10-block journal: no copy falls due before the
  // head needs its span. The stalled reservation must issue the front
  // span's pending copies at once and flush, not wait: on BarrierFS the
  // transaction that would drop them may need the very space to commit.
  for (StackKind kind :
       {StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kOptFs}) {
    core::StackConfig cfg = test_stack_config(kind);
    cfg.fs.journal_blocks = 10;
    StackFixture x(kind, &cfg);
    Journal& journal = x.fs().journal();
    bool done = false;
    auto body = [&]() -> Task {
      for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
        Inode* f = nullptr;
        co_await x.fs().create(name, f);
      }
      done = true;
    };
    x.sim().spawn("t", body());
    // Bounded: a reservation that only waits for the front span's copies
    // to fall due would wait forever.
    x.sim().run_until(100_ms);
    const Journal::Stats& s = journal.stats();
    const std::string k = core::to_string(kind);
    EXPECT_TRUE(done) << k;
    EXPECT_GE(s.commits, 2u) << k;
    EXPECT_GT(s.journal_stalls, 0u) << k;
    EXPECT_GT(s.checkpoint_writes, 0u) << k;
    EXPECT_GT(s.checkpoint_flushes, 0u) << k;
  }
}

class LazyCheckpointTest : public testing::TestWithParam<StackKind> {};

TEST_P(LazyCheckpointTest, NewerCommitDropsTheCopyAndTheRestFallsDueAtHalfALap) {
  // T1 creates "a": the directory shard and the inode block. Each later
  // fsync journals the inode block alone, so its retire drops the previous
  // transaction's pending copy of it: the inode block gets no copy at all.
  // The shard's copy, which nothing drops, is issued exactly once, at the
  // first retire that finds T1's JC max_txn_payload() blocks behind the
  // head.
  const StackKind kind = GetParam();
  core::StackConfig cfg = test_stack_config(kind);
  cfg.fs.journal_blocks = 32;
  StackFixture x(kind, &cfg);
  Journal& j = x.fs().journal();
  const std::size_t due = j.max_txn_payload();
  Inode* f = nullptr;
  std::uint64_t t1 = 0;
  std::vector<flash::Lba> homes;  // T1's: the shard, then the inode block
  std::vector<std::uint64_t> rewrites;
  // Blocks reserved after T1's JC, the checkpoint writes and the device's
  // flush sequence, once each rewrite's fsync returned.
  std::vector<std::size_t> behind;
  std::vector<std::uint64_t> writes;
  std::vector<std::uint64_t> flush_seq;
  // The checkpoint state of T1 and of each rewrite, read while the
  // transaction is live (the tail releases them before the run ends): T1's
  // once its shard copy was issued, rewrite i's once rewrite i + 1 retired,
  // which settled it.
  struct CheckpointState {
    bool flush_owed = false;
    std::uint64_t flush_stamp = 0;
    std::uint32_t pending_homes = 0;
    bool copied = false;
  };
  auto state_of = [&j](std::uint64_t id) {
    const Txn& txn = *j.find_txn(id);
    return CheckpointState{txn.flush_owed, txn.flush_stamp, txn.pending_homes,
                           !txn.checkpoint_blocks.empty()};
  };
  std::optional<CheckpointState> t1_state;
  std::vector<CheckpointState> rewrite_state;
  auto body = [&]() -> Task {
    co_await x.fs().create("a", f, 32);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    t1 = f->txn_id;
    homes.assign(j.find_txn(t1)->buffers.begin(),
                 j.find_txn(t1)->buffers.end());
    std::size_t blocks = 0;
    for (int i = 0; i < 10; ++i) {
      co_await x.sim().delay(5_ms);  // new tick: the write dirties the inode
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFsync);
      const Txn& txn = *j.find_txn(f->txn_id);
      rewrites.push_back(txn.id);
      blocks += txn.jd_blocks.size() + 1;
      behind.push_back(blocks);
      writes.push_back(j.stats().checkpoint_writes);
      flush_seq.push_back(x.dev().flush_sequence());
      if (i > 0) rewrite_state.push_back(state_of(rewrites[i - 1]));
      if (!t1_state && writes.back() > 0) t1_state = state_of(t1);
    }
  };
  x.sim().spawn("t", body());
  x.sim().run();

  const std::string k = core::to_string(kind);
  ASSERT_EQ(rewrites.size(), 10u) << k;
  ASSERT_EQ(homes.size(), 2u) << k << ": the shard and the inode block";
  const flash::Lba shard = homes[0];
  const flash::Lba inode = homes[1];
  // The inode block: every retire dropped the previous pending copy, so it
  // was never written in place. A drop owes the older span a flush after
  // the dropper's retire, and each rewrite's fsync flushes before its
  // retire: rewrite i's stamp comes from rewrite i + 1's retire.
  ASSERT_TRUE(t1_state.has_value()) << k << ": T1's copy never fell due";
  EXPECT_TRUE(t1_state->flush_owed) << k;
  EXPECT_EQ(t1_state->pending_homes, 0u) << k;
  ASSERT_EQ(rewrite_state.size(), rewrites.size() - 1) << k;
  for (std::size_t i = 0; i + 1 < rewrites.size(); ++i) {
    const CheckpointState& txn = rewrite_state[i];
    EXPECT_TRUE(txn.flush_owed) << k;
    EXPECT_GT(txn.flush_stamp, flush_seq[i]) << k << ": rewrite " << i;
    EXPECT_LE(txn.flush_stamp, flush_seq[i + 1]) << k << ": rewrite " << i;
    EXPECT_EQ(txn.pending_homes, 0u) << k;
    EXPECT_FALSE(txn.copied) << k;
  }
  EXPECT_EQ(j.stats().checkpoint_drops, rewrites.size()) << k;
  EXPECT_EQ(j.find_txn(rewrites.back())->pending_homes, 1u) << k;
  const auto image = x.dev().durable_state();
  EXPECT_FALSE(image.contains(inode)) << k;
  // The shard: one copy, T1's, issued at the first retire half a journal
  // on.
  ASSERT_TRUE(image.contains(shard)) << k;
  const Journal::CheckpointId* copy = j.find_checkpoint(image.at(shard));
  ASSERT_NE(copy, nullptr) << k;
  EXPECT_EQ(copy->home_lba, shard) << k;
  EXPECT_EQ(copy->txn_id, t1) << k;
  EXPECT_EQ(j.stats().checkpoint_writes, 1u) << k;
  for (std::size_t i = 0; i < behind.size(); ++i)
    EXPECT_EQ(writes[i], behind[i] >= due ? 1u : 0u)
        << k << ": rewrite " << i << ", " << behind[i] << " blocks behind";
  EXPECT_GE(behind.back(), due) << k << ": the copy never fell due";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, LazyCheckpointTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(JournalTest, EmptyCommitDelimitsEpoch) {
  StackFixture x(StackKind::kBfsDR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    // No dirty data, no dirty metadata: fdatabarrier still delimits.
    co_await x.fs().sync(*f, Syscall::kFdatabarrier);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GE(x.fs().journal().stats().empty_commits, 1u);
}

TEST(JournalTest, JournalWrapsAroundCircularly) {
  core::StackConfig cfg = test_stack_config(core::StackKind::kExt4DR);
  cfg.fs.journal_blocks = 16;  // tiny journal: wraps quickly
  StackFixture x(core::StackKind::kExt4DR, &cfg);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    for (int i = 0; i < 12; ++i) {
      co_await x.sim().delay(5_ms);  // new tick each round: metadata dirty
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFsync);
    }
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GT(x.fs().journal().stats().journal_wraps, 0u);
}

}  // namespace
}  // namespace bio::fs
