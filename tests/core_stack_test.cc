// Tests for the public Stack API: configuration wiring, the syscall
// substitution table, and cross-stack latency orderings that the paper's
// results depend on.
//
// Sync intents resolve through api::SyncPolicy (the paper's §5 table as
// data); these tests run the policy rows directly on Filesystem::sync.
#include <gtest/gtest.h>

#include "api/sync_policy.h"
#include "fs_test_util.h"

namespace bio::core {
namespace {

using namespace bio::sim::literals;
using fs::Syscall;
using fs::testutil::StackFixture;
using fs::testutil::test_stack_config;
using sim::Task;

/// Issues the policy-resolved syscall for `kind`'s row and `intent`.
sim::Task issue_intent(StackFixture& x, fs::Inode& f, api::SyncIntent intent) {
  const api::SyncPolicy policy = api::SyncPolicy::for_stack(x.stack->kind());
  EXPECT_EQ(co_await x.fs().sync(f, policy.resolve(intent)),
            fs::FsStatus::kOk);
}

TEST(StackConfigTest, Ext4WiresLegacyLayers) {
  StackConfig c = StackConfig::make(StackKind::kExt4DR,
                                    flash::DeviceProfile::plain_ssd());
  EXPECT_EQ(c.device.barrier_mode, flash::BarrierMode::kNone);
  EXPECT_EQ(c.fs.journal, fs::JournalKind::kJbd2);
  EXPECT_FALSE(c.fs.nobarrier);
}

TEST(StackConfigTest, Ext4OdSetsNobarrier) {
  StackConfig c = StackConfig::make(StackKind::kExt4OD,
                                    flash::DeviceProfile::plain_ssd());
  EXPECT_TRUE(c.fs.nobarrier);
}

TEST(StackConfigTest, BfsWiresBarrierLayers) {
  StackConfig c =
      StackConfig::make(StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
  EXPECT_EQ(c.device.barrier_mode, flash::BarrierMode::kInOrderRecovery);
  EXPECT_EQ(c.fs.journal, fs::JournalKind::kBarrierFs);
}

TEST(StackConfigTest, MobileDevicesGetJournalChecksums) {
  StackConfig ufs =
      StackConfig::make(StackKind::kExt4DR, flash::DeviceProfile::ufs());
  StackConfig ssd = StackConfig::make(StackKind::kExt4DR,
                                      flash::DeviceProfile::plain_ssd());
  EXPECT_TRUE(ufs.fs.journal_checksum) << "§6.3: smartphone EXT4 setup";
  EXPECT_FALSE(ssd.fs.journal_checksum);
}

TEST(StackConfigTest, BarrierPenaltyOnlyWithBarrierSupport) {
  // §6.1: plain-SSD pays 5% tPROG when barrier support is simulated.
  StackConfig bfs =
      StackConfig::make(StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
  StackConfig ext4 = StackConfig::make(StackKind::kExt4DR,
                                       flash::DeviceProfile::plain_ssd());
  EXPECT_GT(bfs.device.barrier_program_penalty, 0.0);
  EXPECT_EQ(bfs.device.barrier_mode, flash::BarrierMode::kInOrderRecovery);
  EXPECT_EQ(ext4.device.barrier_mode, flash::BarrierMode::kNone);
}

TEST(StackConfigTest, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(StackKind::kExt4DR), "EXT4-DR");
  EXPECT_STREQ(to_string(StackKind::kExt4OD), "EXT4-OD");
  EXPECT_STREQ(to_string(StackKind::kBfsDR), "BFS-DR");
  EXPECT_STREQ(to_string(StackKind::kBfsOD), "BFS-OD");
  EXPECT_STREQ(to_string(StackKind::kOptFs), "OptFS");
}

TEST(NodeTest, MultiVolumeNodeSharesOneSimulator) {
  core::NodeConfig cfg = fs::testutil::test_node_config(
      {StackKind::kBfsDR, StackKind::kExt4DR, StackKind::kOptFs});
  Stack node(cfg);
  ASSERT_EQ(node.volume_count(), 3u);
  EXPECT_EQ(node.volume(0).kind(), StackKind::kBfsDR);
  EXPECT_EQ(node.volume(1).kind(), StackKind::kExt4DR);
  EXPECT_EQ(node.volume(2).kind(), StackKind::kOptFs);
  // One simulator drives every volume; devices/journals stay per-volume.
  EXPECT_EQ(&node.volume(0).sim(), &node.sim());
  EXPECT_EQ(&node.volume(2).sim(), &node.sim());
  EXPECT_NE(&node.volume(0).device(), &node.volume(1).device());
  EXPECT_NE(&node.volume(0).fs(), &node.volume(1).fs());
  // Heterogeneous wiring per volume.
  EXPECT_EQ(node.volume(0).config().device.barrier_mode,
            flash::BarrierMode::kInOrderRecovery);
  EXPECT_EQ(node.volume(1).config().device.barrier_mode,
            flash::BarrierMode::kNone);
  EXPECT_EQ(node.volume(2).config().fs.journal, fs::JournalKind::kOptFs);
  // Name lookup and the volume-0 compat accessors.
  EXPECT_EQ(node.find_volume("v1"), &node.volume(1));
  EXPECT_EQ(node.find_volume("nope"), nullptr);
  EXPECT_EQ(node.kind(), StackKind::kBfsDR);
  EXPECT_EQ(&node.fs(), &node.volume(0).fs());
}

TEST(NodeTest, VolumesRunIndependentWorkloadsOnOneClock) {
  fs::testutil::NodeFixture x({StackKind::kBfsDR, StackKind::kExt4DR});
  auto writer = [&](std::size_t v) -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs(v).create("a", f);
    for (int i = 0; i < 4; ++i) {
      co_await x.fs(v).write(*f, static_cast<std::uint32_t>(i), 1);
      co_await x.fs(v).sync(*f, Syscall::kFsync);
    }
    EXPECT_TRUE(x.vol(v).device().durable_state().contains(
        f->lba_of_page(3)));
  };
  x.sim().spawn("w0", writer(0));
  x.sim().spawn("w1", writer(1));
  x.sim().run();
  EXPECT_EQ(x.fs(0).stats().fsyncs, 4u);
  EXPECT_EQ(x.fs(1).stats().fsyncs, 4u);
  EXPECT_GT(x.vol(0).device().stats().writes, 0u);
  EXPECT_GT(x.vol(1).device().stats().writes, 0u);
}

TEST(StackTest, OrderPointMapsToFdatabarrierOnBfs) {
  StackFixture x(StackKind::kBfsDR);
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await issue_intent(x, *f, api::SyncIntent::kOrder);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().fdatabarriers, 1u);
  EXPECT_EQ(x.fs().stats().fdatasyncs, 0u);
}

TEST(StackTest, OrderPointMapsToFdatasyncOnExt4) {
  StackFixture x(StackKind::kExt4DR);
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await issue_intent(x, *f, api::SyncIntent::kOrder);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().fdatasyncs, 1u);
}

TEST(StackTest, DurabilityPointRelaxedOnlyOnBfsOd) {
  for (StackKind kind : {StackKind::kExt4DR, StackKind::kBfsDR}) {
    StackFixture x(kind);
    auto body = [&]() -> Task {
      fs::Inode* f = nullptr;
      co_await x.fs().create("a", f);
      co_await x.fs().write(*f, 0, 1);
      co_await issue_intent(x, *f, api::SyncIntent::kDurability);
      // Data must be durable at return for DR stacks.
      EXPECT_TRUE(x.dev().durable_state().contains(f->lba_of_page(0)))
          << to_string(kind);
    };
    x.sim().spawn("t", body());
    x.sim().run();
  }
}

TEST(StackTest, SyncFileUsesFbarrierOnBfsOd) {
  StackFixture x(StackKind::kBfsOD);
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f);
    co_await x.fs().write(*f, 0, 1);
    co_await issue_intent(x, *f, api::SyncIntent::kFullSync);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().fbarriers, 1u);
  EXPECT_EQ(x.fs().stats().fsyncs, 0u);
}

TEST(StackTest, FsyncLatencyOrderingAcrossStacks) {
  // The core latency claim: BFS-DR fsync < EXT4-DR fsync on the same
  // device, and the ordering-only commit is cheapest of all.
  auto measure = [](StackKind kind) {
    StackFixture x(kind);
    sim::SimTime result = 0;
    auto body = [&x, &result]() -> Task {
      fs::Inode* f = nullptr;
      co_await x.fs().create("a", f);
      for (int i = 0; i < 20; ++i) {
        co_await x.sim().delay(5_ms);  // fresh tick: metadata commit per op
        co_await x.fs().write(*f, static_cast<std::uint32_t>(i), 1);
        const sim::SimTime t0 = x.sim().now();
        co_await issue_intent(x, *f, api::SyncIntent::kFullSync);
        result += x.sim().now() - t0;
      }
    };
    x.sim().spawn("t", body());
    x.sim().run();
    return result / 20;
  };
  const sim::SimTime ext4_dr = measure(StackKind::kExt4DR);
  const sim::SimTime bfs_dr = measure(StackKind::kBfsDR);
  const sim::SimTime bfs_od = measure(StackKind::kBfsOD);
  EXPECT_LT(bfs_dr, ext4_dr);
  EXPECT_LT(bfs_od, bfs_dr / 2);
}

TEST(StackTest, SupercapMakesDurabilityCheap) {
  core::StackConfig cfg = test_stack_config(StackKind::kExt4DR);
  cfg.device.plp = true;
  StackFixture plp(StackKind::kExt4DR, &cfg);
  StackFixture noplp(StackKind::kExt4DR);
  auto measure = [](StackFixture& x) {
    sim::SimTime latency = 0;
    auto body = [&x, &latency]() -> Task {
      fs::Inode* f = nullptr;
      co_await x.fs().create("a", f);
      co_await x.fs().write(*f, 0, 1);
      co_await x.fs().sync(*f, Syscall::kFsync);
      co_await x.fs().write(*f, 0, 1);
      const sim::SimTime t0 = x.sim().now();
      co_await x.fs().sync(*f, Syscall::kFdatasync);
      latency = x.sim().now() - t0;
    };
    x.sim().spawn("t", body());
    x.sim().run();
    return latency;
  };
  EXPECT_LT(measure(plp), measure(noplp) / 2)
      << "PLP flush must be far cheaper than a full drain";
}

}  // namespace
}  // namespace bio::core
