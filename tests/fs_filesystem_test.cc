// Filesystem facade tests: namespace, buffered writes, timestamps,
// allocation, reads, writeback.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "fs_test_util.h"

namespace bio::fs {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using sim::Task;
using testutil::StackFixture;
using testutil::test_stack_config;

TEST(FilesystemTest, CreateAndLookup) {
  StackFixture x(StackKind::kExt4DR);
  Inode* f = nullptr;
  auto body = [&]() -> Task { co_await x.fs().create("a.db", f); };
  x.sim().spawn("t", body());
  x.sim().run();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(x.fs().lookup("a.db"), f);
  EXPECT_EQ(x.fs().lookup("missing"), nullptr);
  EXPECT_TRUE(f->meta_dirty) << "create dirties the new inode";
  EXPECT_GT(f->extent_blocks, 0u);
}

TEST(FilesystemTest, CreateDuplicateRejected) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    Inode* g = nullptr;
    EXPECT_THROW(co_await x.fs().create("a", g), bio::CheckFailure);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, WriteDirtiesPagesAndSize) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 3);
    EXPECT_EQ(f->size_blocks, 3u);
    EXPECT_TRUE(f->size_dirty);
    EXPECT_EQ(x.fs().page_cache().dirty_count(), 3u);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, OverwriteDoesNotGrowSize) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 4);
    co_await x.fs().sync(*f, Syscall::kFsync);
    EXPECT_FALSE(f->size_dirty);
    co_await x.fs().write(*f, 1, 2);  // pure overwrite
    EXPECT_EQ(f->size_blocks, 4u);
    EXPECT_FALSE(f->size_dirty);
    const PageCache::PageState* st = x.fs().page_cache().find(f->ino, 1);
    EXPECT_TRUE(st->overwrite);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, TimestampQuantizedToTimerTick) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
    EXPECT_FALSE(f->meta_dirty);
    // Overwrite within the same 4ms tick: no metadata change.
    co_await x.fs().write(*f, 0, 1);
    EXPECT_FALSE(f->meta_dirty)
        << "write within one timer tick must not dirty the inode";
    // Cross a tick boundary: mtime changes.
    co_await x.sim().delay(5_ms);
    co_await x.fs().write(*f, 0, 1);
    EXPECT_TRUE(f->meta_dirty);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, WriteBeyondExtentRejected) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    EXPECT_THROW(co_await x.fs().write(*f, f->extent_blocks, 1),
                 bio::CheckFailure);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, UnlinkRecyclesInodeAndExtent) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 2);
    const std::uint32_t ino = f->ino;
    const flash::Lba base = f->extent_base;
    co_await x.fs().unlink("a");
    EXPECT_EQ(x.fs().lookup("a"), nullptr);
    Inode* g = nullptr;
    co_await x.fs().create("b", g);
    EXPECT_EQ(g->ino, ino) << "inode number recycled";
    EXPECT_EQ(g->extent_base, base) << "extent recycled";
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().page_cache().dirty_count(), 0u)
      << "unlink dropped the dirty pages";
}

TEST(FilesystemTest, ReadFromPageCacheIsFast) {
  StackFixture x(StackKind::kExt4DR);
  sim::SimTime read_time = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    const sim::SimTime t0 = x.sim().now();
    co_await x.fs().read(*f, 0, 1);
    read_time = x.sim().now() - t0;
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_LT(read_time, 20_us);
  EXPECT_EQ(x.dev().stats().reads, 0u) << "no device read for a cache hit";
}

TEST(FilesystemTest, ReadMissGoesToDevice) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().read(*f, 5, 1);  // never written: page-cache miss
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.dev().stats().reads, 1u);
}

TEST(FilesystemTest, FsyncCleansDirtyPages) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 4);
    co_await x.fs().sync(*f, Syscall::kFsync);
    EXPECT_EQ(x.fs().page_cache().dirty_count(), 0u);
    EXPECT_FALSE(f->meta_dirty);
    EXPECT_FALSE(f->size_dirty);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GE(x.dev().stats().writes, 1u);
}

TEST(FilesystemTest, FsyncMakesDataDurable) {
  StackFixture x(StackKind::kExt4DR);
  flash::Lba lba0 = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 2);
    lba0 = f->lba_of_page(0);
    co_await x.fs().sync(*f, Syscall::kFsync);
    auto durable = x.dev().durable_state();
    EXPECT_TRUE(durable.contains(lba0)) << "EXT4-DR fsync persisted data";
    EXPECT_TRUE(durable.contains(lba0 + 1));
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FilesystemTest, Ext4OdFsyncSkipsFlush) {
  StackFixture x(StackKind::kExt4OD);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.dev().stats().flushes, 0u) << "nobarrier: no flush commands";
}

TEST(FilesystemTest, PdflushWritesBackDirtyPages) {
  core::StackConfig cfg = test_stack_config(core::StackKind::kExt4DR);
  cfg.fs.writeback_high_watermark = 8;
  StackFixture x(core::StackKind::kExt4DR, &cfg);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f, 64);
    for (std::uint32_t i = 0; i < 32; ++i) co_await x.fs().write(*f, i, 1);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_LE(x.fs().page_cache().dirty_count(), 2u)
      << "pdflush drained to the low watermark";
  EXPECT_GT(x.fs().stats().writeback_pages, 0u);
}

TEST(FilesystemTest, WriterThrottledAtDirtyLimit) {
  core::StackConfig cfg = test_stack_config(core::StackKind::kExt4DR);
  cfg.fs.writeback_high_watermark = 4;
  StackFixture x(core::StackKind::kExt4DR, &cfg);
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f, 64);
    for (std::uint32_t i = 0; i < 60; ++i) co_await x.fs().write(*f, i, 1);
  };
  const sim::Thread app = x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GT(app->blocks, 0u) << "balance_dirty_pages throttled the writer";
}

TEST(FilesystemTest, OrderedSyncWaitsOutACongestedQueue) {
  // fdatabarrier returns right after dispatch, but not into a congested
  // request queue: 150 scattered dirty pages submit 150 unmergeable
  // requests (> kNrRequests), and the call sleeps until the dispatcher
  // has drained the queue to half (get_request() backpressure).
  StackFixture x(StackKind::kBfsDR);
  blk::BlockLayer& blk = x.stack->blk();
  bool congested_at_submit = false;
  std::size_t backlog_at_return = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f, 300);
    for (std::uint32_t p = 0; p < 300; p += 2) co_await x.fs().write(*f, p, 1);
    // The call's own submission congests the queue; nothing else does.
    congested_at_submit = blk.congested();
    const FsStatus st = co_await x.fs().sync(*f, Syscall::kFdatabarrier);
    backlog_at_return = blk.scheduler(0).size();
    EXPECT_EQ(st, FsStatus::kOk);
  };
  const sim::Thread app = x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_FALSE(congested_at_submit);
  EXPECT_LE(backlog_at_return, blk::kNrRequests / 2);
  EXPECT_GT(app->blocks, 0u) << "the throttle put the caller to sleep";
  EXPECT_FALSE(blk.congested());
}

/// Pages of `f` whose writeback carrier has completed but is still held.
std::size_t pages_holding_completed_carriers(PageCache& cache,
                                             const Inode& f) {
  std::size_t n = 0;
  for (std::uint32_t p = 0; p < f.extent_blocks; ++p) {
    const PageCache::PageState* st = cache.find(f.ino, p);
    if (st != nullptr && st->writeback != nullptr &&
        st->writeback->completion.is_set())
      ++n;
  }
  return n;
}

TEST(FilesystemTest, OrderedSyncReleasesCompletedCarriers) {
  // A file that only ever gets fdatabarrier order points (SQLite's
  // database file on BarrierFS): each ordered sync sweeps the carriers
  // that finished since the last one, so no page keeps a finished request
  // out of the pool until it is rewritten.
  StackFixture x(StackKind::kBfsDR);
  std::size_t held_before = 0;
  std::size_t held_after = 0;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f, 16);
    for (std::uint32_t round = 0; round < 4; ++round) {
      for (std::uint32_t p = round; p < 16; p += 4)
        co_await x.fs().write(*f, p, 1);
      EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFdatabarrier),
                FsStatus::kOk);
    }
    // Let the device drain: every carrier has completed.
    while (x.stack->blk().backlog() > 0 || x.dev().queue_depth() > 0 ||
           x.dev().cache().dirty_count() > 0)
      co_await x.sim().delay(100_us);
    held_before = pages_holding_completed_carriers(x.fs().page_cache(), *f);
    EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFdatabarrier), FsStatus::kOk);
    held_after = pages_holding_completed_carriers(x.fs().page_cache(), *f);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(held_before, 16u) << "every page kept its last carrier";
  EXPECT_EQ(held_after, 0u) << "the ordered sync swept no carrier";
}

TEST(FilesystemTest, OrderedSyncSweepRaisesTheFloorAFsyncMustClear) {
  // The carrier an fdatabarrier swept can no longer be waited on: the
  // inode's persist floor is what tells a later fsync that the data may
  // still sit in the volatile cache. Here the fsync commits a transaction
  // that an earlier flush already made durable, before the carrier
  // transferred, so only the floor makes it flush.
  core::StackConfig cfg = core::StackConfig::make(
      StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
  StackFixture x(cfg.kind, &cfg);
  bool transferred_unpersisted = false;
  bool durable = false;
  auto body = [&]() -> Task {
    Inode* f = nullptr;
    co_await x.fs().create("a", f, 4);
    co_await x.fs().write(*f, 0, 1);
    EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFsync), FsStatus::kOk);
    // A new timer tick: the overwrite dirties the inode (mtime) in the
    // running transaction, which commits durably with its own flush while
    // the page stays dirty and the inode's flags stay set.
    co_await x.sim().delay(kTimerTick);
    co_await x.fs().write(*f, 0, 1);
    EXPECT_TRUE(f->meta_dirty);
    co_await x.fs().journal().commit(f->txn_id, Journal::WaitMode::kDurable);
    // The page goes out under an order point, transfers, and is swept by
    // the next one.
    EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFdatabarrier), FsStatus::kOk);
    const PageCache::PageState* page = x.fs().page_cache().find(f->ino, 0);
    const flash::Version version = page->version;
    const blk::RequestPtr carrier = page->writeback;
    if (carrier == nullptr) {
      ADD_FAILURE() << "the order point wrote nothing back";
      co_return;
    }
    co_await carrier->completion.wait();
    const std::uint64_t through = carrier->cmd.persist_through;
    EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFdatabarrier), FsStatus::kOk);
    EXPECT_TRUE(x.fs().page_cache().find(f->ino, 0)->writeback == nullptr)
        << "the order point kept the finished carrier";
    transferred_unpersisted = !x.dev().persisted_through(through);
    EXPECT_EQ(co_await x.fs().sync(*f, Syscall::kFsync), FsStatus::kOk);
    const auto state = x.dev().durable_state();
    const auto it = state.find(f->lba_of_page(0));
    durable = it != state.end() && it->second == version;
  };
  x.sim().spawn("t", body());
  x.sim().run();
  ASSERT_TRUE(transferred_unpersisted)
      << "the carrier drained before the fsync: nothing left to prove";
  EXPECT_TRUE(durable) << "fsync acked data still in the volatile cache";
}

TEST(FilesystemTest, StatsCountSyscalls) {
  // The whole sync table through Vfs::sync, one stack per journal: a
  // supported call bumps exactly its own per-call counters (OptFS also
  // counts the osync it runs fsync, fdatasync and fbarrier as); an
  // unsupported one, kNone included, answers EINVAL and counts nothing.
  using S = Filesystem::Stats;
  using Counters = std::vector<std::uint64_t S::*>;  // empty: EINVAL
  const Counters per_call = {&S::fsyncs,        &S::fdatasyncs, &S::fbarriers,
                             &S::fdatabarriers, &S::osyncs,     &S::dsyncs};
  struct Row {
    Syscall call;
    Counters jbd2, barrierfs, optfs;
  };
  const Row rows[] = {
      {Syscall::kNone, {}, {}, {}},
      {Syscall::kFsync, {&S::fsyncs}, {&S::fsyncs}, {&S::fsyncs, &S::osyncs}},
      {Syscall::kFdatasync, {&S::fdatasyncs}, {&S::fdatasyncs},
       {&S::fdatasyncs, &S::osyncs}},
      {Syscall::kFbarrier, {}, {&S::fbarriers}, {&S::fbarriers, &S::osyncs}},
      {Syscall::kFdatabarrier, {}, {&S::fdatabarriers}, {}},
      {Syscall::kOsync, {}, {}, {&S::osyncs}},
      {Syscall::kDsync, {}, {}, {&S::dsyncs}},
  };
  for (StackKind kind :
       {StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kOptFs}) {
    StackFixture x(kind);
    api::Vfs vfs(*x.stack);
    auto body = [&]() -> Task {
      api::File f = api::must(co_await vfs.open("a", {.create = true}));
      for (const Row& row : rows) {
        const Counters& bumps = kind == StackKind::kExt4DR ? row.jbd2
                                : kind == StackKind::kBfsDR ? row.barrierfs
                                                            : row.optfs;
        api::must(co_await f.pwrite(0, 1));
        const S before = x.fs().stats();
        const api::Status st = co_await f.sync(row.call);
        const std::string cell =
            std::string(core::to_string(kind)) + ' ' + api::to_string(row.call);
        EXPECT_STREQ(api::to_string(st.error()),
                     api::to_string(bumps.empty() ? api::Errno::kInval
                                                  : api::Errno::kOk))
            << cell;
        for (std::uint64_t S::*counter : per_call)
          EXPECT_EQ(x.fs().stats().*counter - before.*counter,
                    static_cast<std::uint64_t>(
                        std::count(bumps.begin(), bumps.end(), counter)))
              << cell;
      }
      api::must(f.close());
    };
    x.sim().spawn("t", body());
    x.sim().run();
    EXPECT_EQ(x.fs().stats().writes, std::size(rows));
  }
}

}  // namespace
}  // namespace bio::fs
