// Full-stack crash-recovery tests (DESIGN.md §6): random Vfs workloads,
// power cuts at swept instants, fs::Recovery over the durable image, a
// remount on a fresh stack, and per-stack guarantee verification through
// the single-writer chk::SweepSpec flavour (chk::run_check / run_sweep).
//
// These sweeps are the regression net that caught (and now guards) real
// stack bugs: the journal-wrap space lifetime, the group-commit fsync that
// skipped its data flush, GC relocation truncating the recovery prefix,
// and the page-cache write-after-write hazard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/vfs.h"
#include "chk/crash_check.h"
#include "fs/recovery.h"
#include "fs_test_util.h"

namespace bio {
namespace {

using namespace bio::sim::literals;
using chk::CrashCheckResult;
using chk::CrashSweepResult;
using core::StackKind;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += "\n  " + s;
  return out;
}

// ---- 1. the main sweep: every stack keeps its contract ---------------------

class CrashSweepTest : public testing::TestWithParam<StackKind> {};

TEST_P(CrashSweepTest, GuaranteesHoldAcross200CrashPoints) {
  const CrashSweepResult r = chk::run_sweep({.volumes = {GetParam()}}, 200);
  EXPECT_EQ(r.points, 200);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
  // The sweep must actually exercise both regimes.
  EXPECT_GT(r.quiesced_points, 0) << "no post-quiescence crash points";
  EXPECT_LT(r.quiesced_points, r.points) << "no mid-workload crash points";
  EXPECT_GT(r.order_writes_checked, 1000u);
  if (GetParam() == StackKind::kExt4DR || GetParam() == StackKind::kBfsDR) {
    EXPECT_GT(r.acked_pages_checked, 1000u);
  }
  // The namespace-churn half of the workload must really run and be
  // verified: rename/unlink ops happened and their facts were checked.
  EXPECT_GT(r.renames_done, 100u) << "workload stopped renaming";
  EXPECT_GT(r.unlinks_done, 50u) << "workload stopped unlinking";
  EXPECT_GT(r.namespace_facts_checked, 400u)
      << "namespace consistency checks went dark";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, CrashSweepTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---- 1b. the same contracts on a heterogeneous multi-volume node -----------

TEST(MultiVolumeCrashTest, HeterogeneousNodeKeepsPerVolumeContracts) {
  // BFS-DR and EXT4-DR side by side behind one Vfs: one power cut hits
  // both; each volume recovers from its own journal and must keep its own
  // contract — >= 200 crash points per volume.
  const std::vector<StackKind> kinds = {StackKind::kBfsDR,
                                        StackKind::kExt4DR};
  const CrashSweepResult r = chk::run_sweep({.volumes = kinds}, 200);
  EXPECT_EQ(r.points, 200);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
  ASSERT_EQ(r.volumes.size(), 2u);
  for (std::size_t v = 0; v < r.volumes.size(); ++v) {
    const chk::CrashSweepResult& agg = r.volumes[v];
    EXPECT_EQ(agg.points, 200) << "volume " << v;
    EXPECT_EQ(agg.failed_points, 0) << "volume " << v;
    EXPECT_GT(agg.quiesced_points, 0) << "volume " << v;
    EXPECT_LT(agg.quiesced_points, agg.points) << "volume " << v;
    // Both kinds promise durable acks; both must have been exercised.
    EXPECT_GT(agg.acked_pages_checked, 1000u) << "volume " << v;
    EXPECT_GT(agg.order_writes_checked, 1000u) << "volume " << v;
    EXPECT_GT(agg.namespace_facts_checked, 400u) << "volume " << v;
    EXPECT_GT(agg.renames_done, 100u) << "volume " << v;
    EXPECT_GT(agg.unlinks_done, 50u) << "volume " << v;
  }
}

// ---- 2. the legacy stack must fail -----------------------------------------

TEST(NobarrierCrashTest, LegacyStackViolatesItsClaimedContract) {
  // EXT4 mounted nobarrier on an orderless device claims the EXT4-DR
  // contract and cannot keep it. If this sweep ever comes back clean, the
  // checker has lost its teeth (and the paper's Fig 1 motivation with it).
  const CrashSweepResult r =
      chk::run_sweep({.volumes = {StackKind::kExt4OD}}, 200);
  EXPECT_GT(r.failed_points, 0)
      << "the nobarrier stack survived 200 power cuts — checker too weak";
}

// ---- 3. journal-wrap regression --------------------------------------------

class JournalWrapTest : public testing::TestWithParam<StackKind> {};

TEST_P(JournalWrapTest, TinyJournalHeavyChurnSurvivesMidWrapCrashes) {
  // A 48-block journal with metadata-heavy ops wraps constantly; before the
  // tail-tracking fix a wrap handed out blocks still owned by committed but
  // un-checkpointed transactions, clobbering the records recovery needs.
  const CrashSweepResult r = chk::run_sweep(
      {.volumes = {GetParam()}, .journal_blocks = 48, .ops = 100}, 60, 1000);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
  EXPECT_GT(r.journal_wraps, 0u)
      << "scenario never wrapped — the regression test tests nothing";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, JournalWrapTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(JournalWrapTest, SpacePressureStallsInsteadOfClobbering) {
  // Crash far past the workload so every commit ran: with a journal this
  // small the reserve path must have stalled (and flushed checkpoints to
  // advance the tail) rather than silently reusing live records.
  const CrashCheckResult r =
      chk::run_check(
          {.volumes = {StackKind::kOptFs}, .journal_blocks = 32, .ops = 120},
          7, 400'000 * 1_us)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
  EXPECT_TRUE(r.workload_finished);
  EXPECT_GT(r.journal_wraps, 0u);
  EXPECT_GT(r.journal_stalls, 0u)
      << "journal never stalled under pressure — space accounting inert";
  EXPECT_GT(r.checkpoint_flushes, 0u)
      << "tail advanced without making checkpoints durable";
}

// ---- 4. OptFS osync: prefix now, everything after the delay ----------------

TEST(OptFsOsyncCrashTest, DelayedDurabilityPrefixSemantics) {
  const chk::SweepSpec kOptFs{.volumes = {StackKind::kOptFs}};
  int mid_points = 0;
  int quiesced_points = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Mid-workload cut: recovered state must be an ordered prefix.
    CrashCheckResult mid =
        chk::run_check(kOptFs, seed, (500 + seed * 700) * 1_us).front();
    EXPECT_TRUE(mid.ok()) << join(mid.violations);
    if (!mid.workload_finished) ++mid_points;
    // Late cut (device quiesced): every osync'd write must be durable.
    CrashCheckResult late =
        chk::run_check(kOptFs, seed, 400'000 * 1_us).front();
    EXPECT_TRUE(late.ok()) << join(late.violations);
    if (late.quiesced) ++quiesced_points;
  }
  EXPECT_GT(mid_points, 5) << "mid-workload crash points all missed";
  EXPECT_GT(quiesced_points, 35) << "late crash points did not quiesce";
}

// ---- 4b. directed namespace-churn recovery ---------------------------------

TEST(NamespaceChurnRecoveryTest, DurableRenameRecoversUnderNewName) {
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  api::Vfs vfs(*x.stack);
  auto body = [&]() -> sim::Task {
    api::File f = api::must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 32}));
    api::must(co_await f.pwrite(0, 4));
    api::must(co_await f.sync_file());
    api::must(co_await vfs.rename("a", "b"));
    api::must(co_await f.sync_file());  // commits the rename durably
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run_until(500'000'000);  // quiesce

  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_EQ(report.files.front().name, "b")
      << "the durably-synced rename must stick";
  EXPECT_EQ(report.files.front().size_blocks, 4u);
}

TEST(NamespaceChurnRecoveryTest, ReplaceRenameIsCrashAtomicAndRecovers) {
  // POSIX: renaming onto an existing name displaces it atomically — after
  // a durable sync, recovery must show exactly the renamed file under the
  // target name, never a vanished or doubled name.
  fs::testutil::StackFixture x(StackKind::kExt4DR);
  api::Vfs vfs(*x.stack);
  auto body = [&]() -> sim::Task {
    api::File a = api::must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 32}));
    api::must(co_await a.pwrite(0, 2));
    api::must(co_await a.sync_file());
    api::File b = api::must(
        co_await vfs.open("b", {.create = true, .extent_blocks = 32}));
    api::must(co_await b.pwrite(0, 4));
    api::must(co_await b.sync_file());
    api::must(co_await vfs.rename("a", "b"));  // displaces the old "b"
    api::must(co_await a.sync_file());
    api::must(a.close());
    api::must(b.close());
  };
  x.sim().spawn("app", body());
  x.sim().run_until(500'000'000);  // quiesce

  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.files.size(), 1u)
      << "exactly the renamed file must survive under the target name";
  EXPECT_EQ(report.files.front().name, "b");
  EXPECT_EQ(report.files.front().size_blocks, 2u)
      << "the name must resolve to the renamed file's content";
}

TEST(NamespaceChurnRecoveryTest, DurableUnlinkStaysGone) {
  fs::testutil::StackFixture x(StackKind::kExt4DR);
  api::Vfs vfs(*x.stack);
  auto body = [&]() -> sim::Task {
    api::File f = api::must(
        co_await vfs.open("victim", {.create = true, .extent_blocks = 32}));
    api::must(co_await f.pwrite(0, 2));
    api::must(co_await f.sync_file());
    api::must(co_await vfs.unlink("victim"));
    api::must(co_await f.fsync());  // commits the unlink durably
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run_until(500'000'000);  // quiesce

  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.files.empty())
      << "a durably-committed unlink must not resurrect the file";
}

// ---- 5. recovery against a live quiesced stack -----------------------------

TEST(RecoveryTest, QuiescedRecoveryMatchesLiveState) {
  // Run a workload to completion on BFS-DR, let the device drain, recover,
  // and compare the recovered namespace against the live filesystem.
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  auto body = [&]() -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      fs::Inode* f = nullptr;
      co_await x.fs().create("file" + std::to_string(i), f, 32);
      co_await x.fs().write(*f, 0, static_cast<std::uint32_t>(4 + 2 * i));
      co_await x.fs().fsync(*f);
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(500'000 * 1_us);  // far past completion: fully drained

  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.files.size(), 3u);
  for (const auto& rf : report.files) {
    const fs::Inode* live = x.fs().lookup(rf.name);
    ASSERT_NE(live, nullptr) << rf.name;
    EXPECT_EQ(rf.ino, live->ino);
    EXPECT_EQ(rf.extent_base, live->extent_base);
    EXPECT_EQ(rf.size_blocks, live->size_blocks) << rf.name;
  }
  EXPECT_GT(report.txns_replayed + report.txns_discarded, 0u);
}

TEST(RecoveryTest, EmptyImageRecoversEmptyFilesystem) {
  fs::testutil::StackFixture x(StackKind::kExt4DR);
  x.sim().run_until(1_ms);  // no workload at all
  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.files.empty());
  EXPECT_EQ(report.txns_replayed, 0u);
}

// ---- 6. remount is part of every checker pass, but verify it directly ------

TEST(RemountTest, RecoveredImageRemountsAndRunsWorkloads) {
  // run_check remounts internally; this asserts the scenario facts so a
  // silently-disabled remount cannot go unnoticed.
  const CrashCheckResult r =
      chk::run_check({.volumes = {StackKind::kExt4DR}}, 3, 300'000 * 1_us)
          .front();
  EXPECT_TRUE(r.ok()) << join(r.violations);
  EXPECT_TRUE(r.workload_finished);
  EXPECT_GT(r.files_recovered, 0u);
}

}  // namespace
}  // namespace bio
