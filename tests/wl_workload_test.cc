// Workload-generator tests: each workload runs end-to-end on a small stack
// and reports sane, internally-consistent results; cross-stack comparisons
// reproduce the paper's directional claims in miniature.
#include <gtest/gtest.h>

#include "fs_test_util.h"
#include "wl/fxmark.h"
#include "wl/oltp.h"
#include "wl/random_write.h"
#include "wl/sqlite.h"
#include "wl/varmail.h"

namespace bio::wl {
namespace {

using core::Stack;
using core::StackConfig;
using core::StackKind;

StackConfig small_config(StackKind kind) {
  StackConfig cfg = fs::testutil::test_stack_config(kind);
  cfg.fs.max_inodes = 1024;
  cfg.fs.journal_blocks = 1024;
  return cfg;
}

TEST(RandomWriteTest, FdatasyncModeCompletesAllOps) {
  Stack stack(small_config(StackKind::kExt4DR));
  RandomWriteParams p;
  p.mode = RandomWriteParams::Mode::kFdatasync;
  p.ops = 50;
  p.working_set_pages = 32;
  auto r = run_random_write(stack, p, sim::Rng(1));
  EXPECT_EQ(r.ops_done, 50u);
  EXPECT_GT(r.iops, 0.0);
  EXPECT_GT(r.elapsed, 0u);
}

TEST(RandomWriteTest, BufferedModeFasterThanSync) {
  Stack sync_stack(small_config(StackKind::kExt4DR));
  Stack buf_stack(small_config(StackKind::kExt4DR));
  RandomWriteParams p;
  p.ops = 60;
  p.working_set_pages = 32;
  p.mode = RandomWriteParams::Mode::kFdatasync;
  auto synced = run_random_write(sync_stack, p, sim::Rng(2));
  p.mode = RandomWriteParams::Mode::kBuffered;
  auto buffered = run_random_write(buf_stack, p, sim::Rng(2));
  EXPECT_GT(buffered.iops, 2.0 * synced.iops);
}

TEST(RandomWriteTest, BarrierModeBeatsWaitOnTransfer) {
  Stack x_stack(small_config(StackKind::kExt4OD));
  Stack b_stack(small_config(StackKind::kBfsOD));
  RandomWriteParams p;
  p.ops = 200;
  p.working_set_pages = 64;
  p.mode = RandomWriteParams::Mode::kFdatasync;
  auto x = run_random_write(x_stack, p, sim::Rng(3));
  p.mode = RandomWriteParams::Mode::kFdatabarrier;
  auto b = run_random_write(b_stack, p, sim::Rng(3));
  EXPECT_GT(b.iops, 1.5 * x.iops) << "fdatabarrier must beat Wait-on-Transfer";
  EXPECT_GT(b.avg_queue_depth, x.avg_queue_depth);
}

TEST(RandomWriteTest, MultiFileRotationUsesAllFiles) {
  Stack stack(small_config(StackKind::kBfsOD));
  RandomWriteParams p;
  p.mode = RandomWriteParams::Mode::kFdatabarrier;
  p.allocating = true;
  p.ops = 40;
  p.files = 4;
  auto r = run_random_write(stack, p, sim::Rng(4));
  EXPECT_EQ(r.ops_done, 40u);
  for (int i = 0; i < 4; ++i) {
    fs::Inode* f = stack.fs().lookup("bench" + std::to_string(i));
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->size_blocks, 10u);
  }
}

TEST(RandomWriteTest, ContextSwitchAccountingMatchesStack) {
  Stack ext4(small_config(StackKind::kExt4DR));
  RandomWriteParams p;
  p.mode = RandomWriteParams::Mode::kSyncFile;
  p.ops = 100;
  p.working_set_pages = 64;
  auto r = run_random_write(ext4, p, sim::Rng(5));
  EXPECT_NEAR(r.context_switches_per_op, 2.0, 0.15)
      << "EXT4-DR: two blocking points per fsync";
}

TEST(SqliteTest, PersistModeRunsTransactions) {
  Stack stack(small_config(StackKind::kExt4DR));
  SqliteParams p;
  p.transactions = 20;
  p.db_pages = 128;
  auto r = run_sqlite(stack, p, sim::Rng(6));
  EXPECT_EQ(r.tx_done, 20u);
  EXPECT_GT(r.tx_per_sec, 0.0);
  // PERSIST: 4 sync points per txn drive >= 4 journal-or-flush operations.
  EXPECT_GE(stack.fs().stats().fdatasyncs, 4 * 20u);
}

TEST(SqliteTest, BarrierStackUsesFdatabarrierForOrderingPoints) {
  Stack stack(small_config(StackKind::kBfsDR));
  SqliteParams p;
  p.transactions = 10;
  p.db_pages = 128;
  auto r = run_sqlite(stack, p, sim::Rng(7));
  EXPECT_EQ(r.tx_done, 10u);
  // 3 ordering points per txn -> fdatabarrier; 1 durability -> fdatasync.
  EXPECT_GE(stack.fs().stats().fdatabarriers, 3 * 10u);
  EXPECT_GE(stack.fs().stats().fdatasyncs, 10u);
}

TEST(SqliteTest, WalModeSyncsOncePerCommit) {
  Stack stack(small_config(StackKind::kExt4DR));
  SqliteParams p;
  p.mode = SqliteParams::Mode::kWal;
  p.transactions = 15;
  p.db_pages = 128;
  auto r = run_sqlite(stack, p, sim::Rng(8));
  EXPECT_EQ(r.tx_done, 15u);
  // Setup adds a couple of fsyncs; WAL adds exactly one sync per commit.
  EXPECT_LE(stack.fs().stats().fdatasyncs, 15u + 2u);
}

TEST(SqliteTest, RelaxedDurabilityIsFaster) {
  Stack dr(small_config(StackKind::kBfsDR));
  Stack od(small_config(StackKind::kBfsOD));
  SqliteParams p;
  p.transactions = 30;
  p.db_pages = 128;
  auto r_dr = run_sqlite(dr, p, sim::Rng(9));
  auto r_od = run_sqlite(od, p, sim::Rng(9));
  EXPECT_GT(r_od.tx_per_sec, r_dr.tx_per_sec);
}

TEST(VarmailTest, RunsAndCountsFlowops) {
  Stack stack(small_config(StackKind::kExt4DR));
  VarmailParams p;
  p.threads = 4;
  p.files = 24;
  p.iterations = 5;
  p.file_pages = 2;
  auto r = run_varmail(stack, p, sim::Rng(10));
  EXPECT_GT(r.ops_done, 4u * 5u);
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_GT(stack.fs().stats().unlinks, 0u);
  EXPECT_GT(stack.fs().stats().creates, 24u);
}

TEST(VarmailTest, BarrierStackOutperformsLegacy) {
  auto cfg_dr = small_config(StackKind::kExt4DR);
  auto cfg_bfs = small_config(StackKind::kBfsDR);
  Stack ext4(cfg_dr);
  Stack bfs(cfg_bfs);
  VarmailParams p;
  p.threads = 4;
  p.files = 24;
  p.iterations = 8;
  p.file_pages = 2;
  auto r_ext4 = run_varmail(ext4, p, sim::Rng(11));
  auto r_bfs = run_varmail(bfs, p, sim::Rng(11));
  EXPECT_GT(r_bfs.ops_per_sec, r_ext4.ops_per_sec)
      << "BFS-DR should beat EXT4-DR on fsync-heavy varmail";
}

TEST(OltpTest, RunsTransactionsAcrossThreads) {
  Stack stack(small_config(StackKind::kExt4DR));
  OltpParams p;
  p.threads = 3;
  p.transactions_per_thread = 8;
  p.table_pages = 256;
  auto r = run_oltp_insert(stack, p, sim::Rng(12));
  EXPECT_EQ(r.tx_done, 24u);
  EXPECT_GT(r.tx_per_sec, 0.0);
}

/// The overwrite-heavy OLTP run on EXT4-OD and on OptFS, both on a
/// `journal_blocks` journal: (EXT4-OD tx/s, OptFS tx/s), and the OptFS
/// journal it left.
struct OltpPair {
  double od_tx_per_sec = 0;
  double opt_tx_per_sec = 0;
  std::uint64_t journaled = 0;  // data blocks in OptFS's unreleased txns
  std::uint64_t wraps = 0;
};

OltpPair run_oltp_pair(std::uint32_t journal_blocks) {
  auto cfg_od = small_config(StackKind::kExt4OD);
  auto cfg_opt = small_config(StackKind::kOptFs);
  cfg_od.fs.journal_blocks = cfg_opt.fs.journal_blocks = journal_blocks;
  Stack ext4od(cfg_od);
  Stack optfs(cfg_opt);
  OltpParams p;
  p.threads = 2;
  p.transactions_per_thread = 40;
  p.table_pages = 256;
  p.rows_pages_per_tx = 6;   // heavy overwrite traffic
  p.checkpoint_every = 2;    // frequent checkpoints -> data journaling
  OltpPair out;
  out.od_tx_per_sec = run_oltp_insert(ext4od, p, sim::Rng(13)).tx_per_sec;
  out.opt_tx_per_sec = run_oltp_insert(optfs, p, sim::Rng(13)).tx_per_sec;
  for (const fs::Txn* t : fs::testutil::retired_txns(optfs.fs().journal()))
    out.journaled += t->journaled_data.size();
  out.wraps = optfs.fs().journal().stats().journal_wraps;
  return out;
}

TEST(OltpTest, OptFsSuffersFromDataJournaling) {
  // Journaled data is copied in place only when the journal needs its
  // space (lazy checkpointing), so data journaling's second write is paid
  // by a run that wraps the journal: a 256-block one.
  const OltpPair r = run_oltp_pair(256);
  EXPECT_GT(r.wraps, 0u);
  EXPECT_GT(r.journaled, 0u) << "the journal carried no data blocks";
  EXPECT_LT(r.opt_tx_per_sec, r.od_tx_per_sec)
      << "selective data journaling should hurt OptFS on overwrites";
}

TEST(OltpTest, OptFsDefersDataJournalingWithinALap) {
  // The same run on small_config's 1024-block journal stays within one
  // lap: OptFS journals its data, but no reservation needs the space, so
  // none of it is copied in place before the run ends and OptFS outruns
  // EXT4-OD here (1,846 against 997 tx/s; ROADMAP item 7 notes the
  // deferred cost).
  const OltpPair r = run_oltp_pair(1024);
  EXPECT_EQ(r.wraps, 0u);
  EXPECT_GT(r.journaled, 0u) << "the journal carried no data blocks";
}

TEST(FxmarkTest, ScalesWithCores) {
  auto one = small_config(StackKind::kBfsDR);
  auto four = small_config(StackKind::kBfsDR);
  Stack s1(one);
  Stack s4(four);
  FxmarkParams p;
  p.writes_per_thread = 30;
  p.cores = 1;
  auto r1 = run_fxmark_dwsl(s1, p);
  p.cores = 4;
  auto r4 = run_fxmark_dwsl(s4, p);
  EXPECT_EQ(r1.ops_done, 30u);
  EXPECT_EQ(r4.ops_done, 120u);
  EXPECT_GT(r4.ops_per_sec, r1.ops_per_sec)
      << "group commit must give some concurrency scaling";
}

TEST(ShardedFxmarkTest, StripesFilesAcrossVolumesAndCompletesAllOps) {
  Stack node(core::NodeConfig::from(
      std::vector<core::StackConfig>(2, small_config(StackKind::kBfsDR))));
  auto r = run_fxmark_dwsl_sharded(node,
                                   {.cores = 4, .writes_per_thread = 25});
  EXPECT_EQ(r.ops_done, 100u);
  ASSERT_EQ(r.volume_ops.size(), 2u);
  EXPECT_EQ(r.volume_ops[0], 50u) << "round-robin striping: 2 cores each";
  EXPECT_EQ(r.volume_ops[1], 50u);
  EXPECT_GT(r.volume_ops_per_sec[0], 0.0);
  // The files really landed on their own volumes.
  EXPECT_NE(node.volume(0).fs().lookup("dwsl0"), nullptr);
  EXPECT_EQ(node.volume(0).fs().lookup("dwsl1"), nullptr);
  EXPECT_NE(node.volume(1).fs().lookup("dwsl1"), nullptr);
  EXPECT_GT(node.volume(0).device().stats().writes, 0u);
  EXPECT_GT(node.volume(1).device().stats().writes, 0u);
}

TEST(ShardedFxmarkTest, SaturatedJournalThroughputScalesWithVolumes) {
  // Weak scaling at journal saturation: enough cores per volume that one
  // commit pipeline is the bottleneck, then doubling the volumes (and the
  // offered load with them) must scale total simulated throughput.
  auto run = [](std::uint32_t nvol) {
    Stack node(core::NodeConfig::from(std::vector<core::StackConfig>(
        nvol, small_config(StackKind::kBfsDR))));
    return run_fxmark_dwsl_sharded(
        node, {.cores = 24 * nvol, .writes_per_thread = 20});
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_GT(two.ops_per_sec, 1.6 * one.ops_per_sec)
      << "independent journals must give near-linear volume scaling";
}

TEST(FxmarkTest, BfsPipelinesBetterThanExt4) {
  auto cfg_e = small_config(StackKind::kExt4DR);
  auto cfg_b = small_config(StackKind::kBfsDR);
  Stack ext4(cfg_e);
  Stack bfs(cfg_b);
  FxmarkParams p;
  p.cores = 6;
  p.writes_per_thread = 40;
  auto r_e = run_fxmark_dwsl(ext4, p);
  auto r_b = run_fxmark_dwsl(bfs, p);
  EXPECT_GT(r_b.ops_per_sec, r_e.ops_per_sec);
}

}  // namespace
}  // namespace bio::wl
