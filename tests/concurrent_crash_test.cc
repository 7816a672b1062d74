// Concurrent multi-writer crash sweep (DESIGN.md §9): N writer coroutines
// share files through independent fds, interleave pwrite/append with the
// full sync-syscall matrix plus rename/unlink and fd churn, and the
// per-writer observations merge into one cross-writer contract (the
// chk::Flavour::kConc sweep).
//
// The sweeps here are the regression net that caught (and now guards) the
// PR 5 stack bugs — the lost i_sync_tid/i_datasync_tid wait under group
// commit, the durability proof that missed swept writeback carriers, the
// OptFS journaled-data transaction misattribution, and the journal-space
// abort under concurrent group commit (DESIGN.md §9.2 has the ledger).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "chk/crash_check.h"
#include "fs/page_cache.h"
#include "fs/recovery.h"
#include "fs_test_util.h"

namespace bio {
namespace {

using namespace bio::sim::literals;
using chk::CrashCheckResult;
using chk::CrashSweepResult;
using core::StackKind;

constexpr chk::Flavour kConc = chk::Flavour::kConc;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += "\n  " + s;
  return out;
}

// ---- 1. the main concurrent sweep: every stack keeps its contract ----------

class ConcurrentCrashSweepTest : public testing::TestWithParam<StackKind> {};

TEST_P(ConcurrentCrashSweepTest, CrossWriterContractHoldsAcross200Points) {
  const CrashSweepResult r =
      chk::run_sweep({.flavour = kConc, .volumes = {GetParam()}}, 200);
  EXPECT_EQ(r.points, 200);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
  // Both crash regimes must be exercised.
  EXPECT_GT(r.quiesced_points, 0) << "no post-quiescence crash points";
  EXPECT_LT(r.quiesced_points, r.points) << "no mid-workload crash points";
  // The cross-writer facts must really be checked: ordering everywhere,
  // durable acks on every kind that claims them (incl. OptFS dsync).
  EXPECT_GT(r.order_writes_checked, 5000u);
  EXPECT_GT(r.acked_pages_checked,
            GetParam() == StackKind::kOptFs ? 500u : 2000u);
  EXPECT_GT(r.namespace_facts_checked, 500u);
  EXPECT_GT(r.renames_done, 100u) << "namespace churn went dark";
  EXPECT_GT(r.unlinks_done, 50u);
  // Concurrency-specific coverage: syncs recorded across writers/fds, fd
  // close/reopen cycles, and close() racing an in-flight sync.
  EXPECT_GT(r.syncs_recorded, 2000u);
  EXPECT_GT(r.fd_cycles, 300u) << "fd churn went dark";
  EXPECT_GT(r.closes_during_sync, 150u) << "close-during-sync went dark";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, ConcurrentCrashSweepTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---- 2. the legacy stack must fail under concurrency too -------------------

TEST(ConcurrentNobarrierTest, LegacyStackViolatesItsClaimedContract) {
  const CrashSweepResult r = chk::run_sweep(
      {.flavour = kConc, .volumes = {StackKind::kExt4OD}}, 120);
  EXPECT_GT(r.failed_points, 0)
      << "the nobarrier stack survived 120 concurrent power cuts — "
         "checker too weak";
}

// ---- 3. directed regressions: the configurations that caught the bugs ------

// Each of these is the exact (config, seed, crash instant) under which the
// concurrent sweep first caught a stack bug; see DESIGN.md §9.2.

TEST(ConcurrentRegressionTest, GroupCommitDatasyncWaitBfsDR) {
  // Bug 1: a concurrent fsync's commit_metadata cleared the dirty flags;
  // a later fdatasync skipped both commit and wait while the size-bearing
  // commit was still in flight and returned — the acked size was lost.
  const CrashCheckResult r =
      chk::run_check({.flavour = kConc, .volumes = {StackKind::kBfsDR}}, 42,
                     4'434'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, GroupCommitDatasyncWaitExt4DR) {
  const CrashCheckResult r =
      chk::run_check({.flavour = kConc, .volumes = {StackKind::kExt4DR}}, 110,
                     2'578'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, SweptWritebackCarrierProofBfsDR) {
  // Bug 2: a concurrent order-point's carrier transferred and completed
  // right before a durable sync started; the lazy sweep dropped it, the
  // sync's durability proof never covered it, and no flush was issued.
  const CrashCheckResult r =
      chk::run_check({.flavour = kConc,
                      .volumes = {StackKind::kBfsDR},
                      .journal_blocks = 64,
                      .writers = 8},
                     76, 4'708'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, JournaledDataTxnAttributionOptFs) {
  // Bug 3: osync journaled a file's pages into the then-running
  // transaction but recorded nothing on the inode; a concurrent dsync
  // committed an older transaction and flushed before the data-carrying
  // records transferred — the acked data ended up behind a torn log.
  const CrashCheckResult r =
      chk::run_check({.flavour = kConc,
                      .volumes = {StackKind::kOptFs},
                      .journal_blocks = 64,
                      .writers = 8},
                     94, 2'943'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, WriteJoinsTxnBeforeGrowingSizeExt4DR) {
  // DESIGN.md §10.4: write() grew i_size before joining the running
  // transaction; a second writer re-dirtying the pages in that window
  // skipped registration and a concurrent fsync acked a size no commit
  // covered. With the write() ordering reverted this ring point recovers
  // w4.p0 at 41 pages after an fsync acked 42.
  const CrashCheckResult r =
      chk::run_check({.flavour = chk::Flavour::kRing,
                      .volumes = {StackKind::kExt4DR},
                      .writers = 6},
                     44, 79'446'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, InFlightNamespaceOpMayCommitBeforeReturn) {
  // Oracle soundness, not a stack bug: a namespace op removing s1's name
  // was still in flight at this cut when another writer's sync
  // group-committed its transaction, so s1 legally recovers nameless
  // although its name was durably synced and the op never returned.
  const CrashCheckResult r =
      chk::run_check(
          {.flavour = kConc, .volumes = {StackKind::kExt4DR}, .writers = 6},
          137, 6'290'000)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
}

TEST(ConcurrentRegressionTest, JournalSpaceSurvivesConcurrentGroupCommit) {
  // Bug 4: a group commit over 8 writers builds JD records that approach
  // the journal size; pre-fix the reserve path aborted the process
  // ("journal accounting corrupt" / "transaction larger than the journal")
  // instead of restarting the lap and bounding the running transaction.
  for (StackKind kind : {StackKind::kExt4DR, StackKind::kBfsDR,
                         StackKind::kOptFs}) {
    const CrashSweepResult r = chk::run_sweep({.flavour = kConc,
                                               .volumes = {kind},
                                               .journal_blocks = 48,
                                               .ops = 60,
                                               .writers = 8},
                                              40, 77);
    EXPECT_EQ(r.failed_points, 0)
        << core::to_string(kind) << join(r.sample_violations);
    EXPECT_GT(r.journal_wraps, 0u)
        << core::to_string(kind) << ": scenario never wrapped";
  }
}

TEST(ConcurrentRegressionTest, OversizedOsyncBatchSplitsAcrossTxns) {
  // A fully-dirty 48-page extent over a 48-block journal: a single osync
  // batch's JD (descriptor + one log block per overwrite page) would
  // exceed the journal; the batch must split across transactions instead
  // of aborting on "transaction larger than the journal".
  core::StackConfig cfg =
      fs::testutil::test_stack_config(StackKind::kOptFs);
  cfg.fs.journal_blocks = 48;
  fs::testutil::StackFixture x(StackKind::kOptFs, &cfg);
  api::Vfs vfs(*x.stack);
  auto body = [&]() -> sim::Task {
    api::File f = api::must(
        co_await vfs.open("big", {.create = true, .extent_blocks = 48}));
    api::must(co_await f.pwrite(0, 48));   // allocating: fills the extent
    api::must(co_await f.sync_file());     // osync; in-place writes
    api::must(co_await f.pwrite(0, 48));   // all 48 pages now overwrites
    api::must(co_await f.sync_file());     // must journal in split batches
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run_until(500'000 * 1_us);  // quiesce

  EXPECT_GE(x.fs().journal().stats().commits, 3u)
      << "the oversized batch must have split across transactions";
  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_EQ(report.files.front().size_blocks, 48u);
}

// ---- 4. directed concurrent fsync-vs-append ordering (all four kinds) ------

class ConcurrentFsyncAppendTest : public testing::TestWithParam<StackKind> {};

TEST_P(ConcurrentFsyncAppendTest, FsyncVsAppendOrderingOnSharedFile) {
  // Writer A appends to a shared file; writer B concurrently syncs it
  // through an INDEPENDENT descriptor. For each crash instant:
  //   * durable-ack kinds (EXT4-DR, BFS-DR; direct fsync on any
  //     BarrierFS): every append completed before a returned fsync
  //     started must survive, and the recovered size must cover them;
  //   * every kind: ordering — if any append made after a returned sync
  //     survives, every append that completed before that sync started
  //     survives (the cross-writer epoch prefix).
  const StackKind kind = GetParam();
  const bool durable_acks =
      kind == StackKind::kExt4DR || kind == StackKind::kBfsDR;

  for (const sim::SimTime crash_at :
       {2'000 * 1_us, 6'000 * 1_us, 12'000 * 1_us, 25'000 * 1_us,
        60'000 * 1_us, 400'000 * 1_us}) {
    fs::testutil::StackFixture x(kind);
    api::Vfs vfs(*x.stack);

    struct Oracle {
      std::vector<flash::Version> versions;  // per page, at completion
      std::uint32_t settled = 0;
      struct Sync {
        std::uint32_t settled_at_start = 0;
        bool durable = false;
      };
      std::vector<Sync> syncs;
      fs::Inode* inode = nullptr;
    } oracle;

    auto appender = [&]() -> sim::Task {
      api::File fa = api::must(
          co_await vfs.open("shared", {.create = true, .extent_blocks = 64}));
      oracle.inode = x.fs().lookup("shared");
      // settle the create
      api::must(co_await vfs.sync(fa.fd(), api::Syscall::kFsync));
      for (int i = 0; i < 40; ++i) {
        api::Result<std::uint32_t> r = co_await fa.append(1);
        if (!r.ok()) break;
        const std::uint32_t page = static_cast<std::uint32_t>(
            vfs.offset(fa.fd()).value() - 1);
        const fs::PageCache::PageState* st =
            x.fs().page_cache().find(oracle.inode->ino, page);
        BIO_CHECK(st != nullptr);  // gtest ASSERT cannot run in a coroutine
        oracle.versions.resize(
            std::max<std::size_t>(oracle.versions.size(), page + 1), 0);
        oracle.versions[page] = st->version;
        oracle.settled = std::max(oracle.settled, page + 1);
        co_await x.sim().delay(300 * 1_us);
      }
    };
    auto syncer = [&]() -> sim::Task {
      co_await x.sim().delay(700 * 1_us);  // let the create land
      api::Result<api::File> rb = co_await vfs.open("shared", {});
      if (!rb.ok()) co_return;
      api::File fb = rb.value();
      for (int i = 0; i < 12; ++i) {
        const std::uint32_t at_start = oracle.settled;
        // Direct fsync: durable on EXT4/BarrierFS, osync semantics (order
        // + delayed durability) on OptFS.
        api::Status s = co_await fb.fsync();
        if (s.ok())
          oracle.syncs.push_back({at_start, durable_acks});
        co_await x.sim().delay(900 * 1_us);
      }
    };
    x.sim().spawn("appender", appender());
    x.sim().spawn("syncer", syncer());
    x.sim().run_until(crash_at);

    const bool quiesced = x.dev().cache().dirty_count() == 0 &&
                          x.dev().queue_depth() == 0;
    const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                                x.fs().config());
    const fs::RecoveryReport report =
        recovery.recover(x.dev().durable_state());
    if (oracle.inode == nullptr) continue;  // crashed before the create

    auto present = [&](std::uint32_t page) {
      auto it = report.data.find(oracle.inode->lba_of_page(page));
      return it != report.data.end() && oracle.versions[page] != 0 &&
             it->second >= oracle.versions[page];
    };

    // Durable acks: everything settled before a returned fsync started.
    std::uint32_t acked = 0;
    for (const Oracle::Sync& s : oracle.syncs)
      if (s.durable) acked = std::max(acked, s.settled_at_start);
    for (std::uint32_t p = 0; p < acked; ++p)
      EXPECT_TRUE(present(p)) << core::to_string(kind) << " crash="
                              << crash_at << ": acked append page " << p
                              << " lost";
    if (acked > 0) {
      const fs::RecoveryReport::RecoveredFile* rf = nullptr;
      for (const auto& cand : report.files)
        if (cand.extent_base == oracle.inode->extent_base) rf = &cand;
      ASSERT_NE(rf, nullptr)
          << core::to_string(kind) << ": fsynced file missing";
      EXPECT_GE(rf->size_blocks, acked)
          << core::to_string(kind) << " crash=" << crash_at;
    }

    // Ordering: a surviving later append proves every pre-sync append.
    std::uint32_t max_surviving = 0;
    for (std::uint32_t p = 0; p < oracle.versions.size(); ++p)
      if (present(p)) max_surviving = p + 1;
    for (const Oracle::Sync& s : oracle.syncs) {
      if (max_surviving > s.settled_at_start) {
        for (std::uint32_t p = 0; p < s.settled_at_start; ++p)
          EXPECT_TRUE(present(p))
              << core::to_string(kind) << " crash=" << crash_at
              << ": append " << p << " lost although a later append "
              << "survived past the order point covering it";
      }
    }

    // Delayed durability: after quiescence every synced append is on
    // media regardless of kind.
    if (quiesced) {
      std::uint32_t synced = 0;
      for (const Oracle::Sync& s : oracle.syncs)
        synced = std::max(synced, s.settled_at_start);
      for (std::uint32_t p = 0; p < synced; ++p)
        EXPECT_TRUE(present(p)) << core::to_string(kind)
                                << ": synced append not durable after "
                                   "quiescence";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, ConcurrentFsyncAppendTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace bio
