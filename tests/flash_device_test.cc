// Tests for the barrier-compliant storage device: SCSI priority semantics,
// epochs, FUA/flush behaviour, per-mode durability and queue accounting.
#include <gtest/gtest.h>

#include "flash/device.h"
#include "flash_test_util.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;
using testutil::make_flush;
using testutil::make_read;
using testutil::make_write;
using testutil::submit_retry;
using testutil::test_profile;

TEST(DeviceTest, WriteCompletesAfterDma) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  sim::SimTime done_at = 0;
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    done_at = sim.now();
  };
  sim.spawn("t", body());
  sim.run();
  // Completion after overhead + DMA, far before the page program finishes.
  EXPECT_GE(done_at, 15_us);
  EXPECT_LT(done_at, 200_us);
  EXPECT_EQ(dev.stats().writes, 1u);
  // After the run drains, the block is durable.
  EXPECT_EQ(dev.durable_state().at(1), 1u);
}

TEST(DeviceTest, MultiBlockWriteInsertsAllBlocks) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}, {2, 2}, {3, 3}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(dev.stats().blocks_written, 3u);
  auto durable = dev.durable_state();
  EXPECT_EQ(durable.size(), 3u);
}

TEST(DeviceTest, FlushMakesPrecedingWritesDurable) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  bool flushed = false;
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    EXPECT_EQ(dev.durable_state().count(1), 0u) << "not yet programmed";
    auto f = make_flush(sim);
    EXPECT_TRUE(dev.try_submit(f.cmd));
    co_await f.done->wait();
    flushed = true;
    EXPECT_EQ(dev.durable_state().at(1), 1u);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(dev.stats().flushes, 1u);
}

TEST(DeviceTest, PlpFlushIsConstantTime) {
  Simulator sim;
  StorageDevice dev(sim,
                    test_profile(BarrierMode::kInOrderRecovery, /*plp=*/true));
  dev.start();
  sim::SimTime flush_latency = 0;
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    const sim::SimTime t0 = sim.now();
    auto f = make_flush(sim);
    EXPECT_TRUE(dev.try_submit(f.cmd));
    co_await f.done->wait();
    flush_latency = sim.now() - t0;
  };
  sim.spawn("t", body());
  sim.run();
  // Overhead + flush_overhead + plp latency, no program wait.
  EXPECT_LT(flush_latency, 100_us);
}

TEST(DeviceTest, PlpWriteIsDurableOnArrival) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kNone, /*plp=*/true));
  dev.start();
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{7, 42}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    EXPECT_EQ(dev.durable_state().at(7), 42u)
        << "supercap: transferred == durable";
  };
  sim.spawn("t", body());
  sim.run();
}

TEST(DeviceTest, FuaWritePersistsBeforeCompletion) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}}, Priority::kSimple, false, /*fua=*/true);
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    EXPECT_EQ(dev.durable_state().at(1), 1u);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_GE(sim.now(), 200_us) << "FUA waited for the program";
}

TEST(DeviceTest, BarrierWriteAdvancesEpoch) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  WritebackCache::TransferRecorder h;
  dev.install_transfer_recorder(&h);
  dev.start();
  auto body = [&]() -> Task {
    auto w1 = make_write(sim, {{1, 1}}, Priority::kOrdered, /*barrier=*/true);
    EXPECT_TRUE(dev.try_submit(w1.cmd));
    co_await w1.done->wait();
    auto w2 = make_write(sim, {{2, 2}});
    EXPECT_TRUE(dev.try_submit(w2.cmd));
    co_await w2.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(dev.current_epoch(), 1u);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].epoch, 0u);
  EXPECT_TRUE(h[0].barrier);
  EXPECT_EQ(h[1].epoch, 1u);
}

TEST(DeviceTest, LegacyDeviceIgnoresBarrierFlag) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kNone));
  dev.start();
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{1, 1}}, Priority::kSimple, /*barrier=*/true);
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(dev.current_epoch(), 0u);
}

TEST(DeviceTest, OrderedPriorityFencesTransferOrder) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  WritebackCache::TransferRecorder h;
  dev.install_transfer_recorder(&h);
  dev.start();
  auto body = [&]() -> Task {
    // One epoch {1,2}, barrier on 3 (ordered), next epoch {4}.
    auto a = make_write(sim, {{1, 1}});
    auto b = make_write(sim, {{2, 2}});
    auto c = make_write(sim, {{3, 3}}, Priority::kOrdered, /*barrier=*/true);
    auto d = make_write(sim, {{4, 4}});
    EXPECT_TRUE(dev.try_submit(a.cmd));
    EXPECT_TRUE(dev.try_submit(b.cmd));
    EXPECT_TRUE(dev.try_submit(c.cmd));
    EXPECT_TRUE(dev.try_submit(d.cmd));
    co_await a.done->wait();
    co_await b.done->wait();
    co_await c.done->wait();
    co_await d.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  ASSERT_EQ(h.size(), 4u);
  // The barrier write transferred after both epoch-0 writes and before the
  // epoch-1 write.
  EXPECT_EQ(h[2].lba, 3u);
  EXPECT_EQ(h[3].lba, 4u);
  EXPECT_EQ(h[3].epoch, 1u);
}

TEST(DeviceTest, QueueFullRejectsSubmission) {
  Simulator sim;
  auto profile = test_profile(BarrierMode::kInOrderRecovery);
  profile.queue_depth = 2;
  StorageDevice dev(sim, profile);
  dev.start();
  int rejected = 0;
  auto body = [&]() -> Task {
    std::vector<testutil::Submission> subs;
    for (int i = 0; i < 4; ++i)
      subs.push_back(make_write(sim, {{static_cast<Lba>(i), 1}}));
    for (auto& s : subs)
      if (!dev.try_submit(s.cmd)) ++rejected;
    for (int i = 0; i < 2; ++i) co_await subs[i].done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(dev.stats().busy_rejections, 2u);
}

TEST(DeviceTest, ReadHitsCacheBeforeFlash) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  sim::SimTime read_latency = 0;
  auto body = [&]() -> Task {
    auto w = make_write(sim, {{9, 1}});
    EXPECT_TRUE(dev.try_submit(w.cmd));
    co_await w.done->wait();
    const sim::SimTime t0 = sim.now();
    auto r = make_read(sim, 9);
    EXPECT_TRUE(dev.try_submit(r.cmd));
    co_await r.done->wait();
    read_latency = sim.now() - t0;
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_GT(dev.stats().cache_read_hits, 0u);
  EXPECT_LT(read_latency, 50_us);
}

TEST(DeviceTest, InOrderRecoveryDurableStateIsTransferPrefix) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  WritebackCache::TransferRecorder history;
  dev.install_transfer_recorder(&history);
  dev.start();
  auto body = [&]() -> Task {
    for (int i = 0; i < 6; ++i) {
      auto w = make_write(sim, {{static_cast<Lba>(i), Version(i + 1)}});
      co_await submit_retry(sim, dev, w.cmd);
      co_await w.done->wait();
    }
  };
  sim.spawn("t", body());
  // Stop mid-flight: some programs are still outstanding.
  sim.run_until(300_us);
  auto durable = dev.durable_state();
  // Prefix property: if history[i] is durable with its version, every
  // earlier history entry must be durable too (last-write-wins aside, all
  // lbas here are distinct).
  bool seen_missing = false;
  for (const auto& e : history) {
    const bool present =
        durable.contains(e.lba) && durable.at(e.lba) == e.version;
    if (!present) seen_missing = true;
    EXPECT_FALSE(present && seen_missing)
        << "hole in the durable prefix at lba " << e.lba;
  }
}

TEST(DeviceTest, QueueDepthAccounting) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.enable_qd_trace();
  dev.start();
  auto body = [&]() -> Task {
    std::vector<testutil::Submission> subs;
    for (int i = 0; i < 4; ++i) {
      subs.push_back(make_write(sim, {{static_cast<Lba>(i), 1}}));
      co_await submit_retry(sim, dev, subs.back().cmd);
    }
    for (auto& s : subs) co_await s.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_GT(dev.average_queue_depth(), 0.0);
  EXPECT_FALSE(dev.qd_trace().points().empty());
  EXPECT_GE(dev.qd_trace().max_value(), 2.0);
  EXPECT_EQ(dev.queue_depth(), 0u) << "all commands retired";
}

TEST(DeviceTest, SimpleWritesBehindOrderedWait) {
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  WritebackCache::TransferRecorder h;
  dev.install_transfer_recorder(&h);
  dev.start();
  auto body = [&]() -> Task {
    auto a = make_write(sim, {{1, 1}}, Priority::kOrdered, true);
    auto b = make_write(sim, {{2, 2}});  // simple, behind the barrier
    EXPECT_TRUE(dev.try_submit(a.cmd));
    EXPECT_TRUE(dev.try_submit(b.cmd));
    co_await a.done->wait();
    co_await b.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].lba, 1u) << "simple write must not pass the ordered one";
  EXPECT_EQ(h[1].lba, 2u);
}

// ---- multi-port dispatch and cross-queue epoch fencing ---------------------

TEST(DeviceTest, EpochTagFencesTransfersAcrossPorts) {
  // A later-epoch write submitted on port 1 BEFORE the epoch-0 barrier on
  // port 0 (so with the lower seq): the (fence_epoch, seq) comparison must
  // still transfer the barrier first.
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  WritebackCache::TransferRecorder h;
  dev.install_transfer_recorder(&h);
  dev.start();
  auto body = [&]() -> Task {
    auto late = make_write(sim, {{9, 9}});
    late.cmd->port = 1;
    late.cmd->fence_epoch = 1;
    auto b = make_write(sim, {{3, 3}}, Priority::kOrdered, /*barrier=*/true);
    b.cmd->port = 0;
    b.cmd->fence_epoch = 0;
    EXPECT_TRUE(dev.try_submit(late.cmd));
    EXPECT_TRUE(dev.try_submit(b.cmd));
    co_await late.done->wait();
    co_await b.done->wait();
  };
  sim.spawn("t", body());
  sim.run();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].lba, 3u) << "barrier transferred first despite later seq";
  EXPECT_EQ(h[1].lba, 9u);
  EXPECT_EQ(h[1].epoch, 1u) << "post-barrier write landed in the next epoch";
}

TEST(DeviceTest, PortsTransferInParallel) {
  // Each port has its own host bus: two simple writes on distinct ports
  // both complete in one overhead + DMA, where a shared bus would put the
  // second at overhead + 2 * DMA (>= 25 us in the test profile).
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  sim::SimTime last_done = 0;
  auto body = [&]() -> Task {
    auto w0 = make_write(sim, {{1, 1}});
    w0.cmd->port = 0;
    auto w1 = make_write(sim, {{2, 2}});
    w1.cmd->port = 1;
    EXPECT_TRUE(dev.try_submit(w0.cmd));
    EXPECT_TRUE(dev.try_submit(w1.cmd));
    co_await w0.done->wait();
    co_await w1.done->wait();
    last_done = sim.now();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_LT(last_done, 25_us) << "second port must not queue on the first's "
                                 "host bus";
  EXPECT_EQ(dev.port_submissions(0), 1u);
  EXPECT_EQ(dev.port_submissions(1), 1u);
}

TEST(DeviceTest, FlushOnOnePortDrainsAllChannels) {
  // The flush contract is device-wide: a flush arriving on port 0 completes
  // only once writes transferred through every port are durable.
  Simulator sim;
  StorageDevice dev(sim, test_profile(BarrierMode::kInOrderRecovery));
  dev.start();
  bool flushed = false;
  auto body = [&]() -> Task {
    auto w0 = make_write(sim, {{1, 1}});
    w0.cmd->port = 0;
    auto w1 = make_write(sim, {{2, 2}});
    w1.cmd->port = 1;
    EXPECT_TRUE(dev.try_submit(w0.cmd));
    EXPECT_TRUE(dev.try_submit(w1.cmd));
    co_await w0.done->wait();
    co_await w1.done->wait();
    auto f = make_flush(sim, Priority::kHeadOfQueue);
    f.cmd->port = 0;
    EXPECT_TRUE(dev.try_submit(f.cmd));
    co_await f.done->wait();
    flushed = true;
    EXPECT_EQ(dev.durable_state().at(1), 1u);
    EXPECT_EQ(dev.durable_state().at(2), 2u) << "flush must cover port 1";
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(flushed);
}

}  // namespace
}  // namespace bio::flash
