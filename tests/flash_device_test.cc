// Tests for the barrier-compliant storage device: SCSI priority semantics,
// epochs, FUA/flush behaviour, per-mode durability and queue accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flash/device.h"
#include "flash_test_util.h"
#include "sim/rng.h"
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

TEST(DeviceTest, SeededMixesKeepTheTransferFence) {
  // The §3.4 transfer fence over random traffic: four ports submit SIMPLE
  // and ORDERED multi-block writes and head-of-queue flushes, retrying busy
  // submissions, so every window stays near its depth limit. Each port's
  // fence epoch never decreases but drifts ahead of and behind the others,
  // so a later submission often precedes an earlier one in (fence_epoch,
  // seq). The device fences only what it has seen (the block layer's
  // submission gate covers the rest, DESIGN §14.1), so each check pairs a
  // write with the writes submitted before it.
  constexpr std::uint32_t kPorts = 4;
  constexpr int kCommandsPerPort = 60;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    auto profile = test_profile(BarrierMode::kInOrderRecovery);
    profile.geometry.channels = kPorts;
    profile.geometry.blocks_per_chip = 64;
    profile.geometry.pages_per_block = 16;
    StorageDevice dev(sim, profile);
    WritebackCache::TransferRecorder rec;
    dev.install_transfer_recorder(&rec);
    dev.start();
    ASSERT_EQ(dev.port_count(), kPorts);

    struct Sent {
      testutil::Submission sub;
      Version first_version = 0;
    };
    std::vector<Sent> sent;
    sent.reserve(kPorts * kCommandsPerPort);
    Version next_version = 1;
    sim::Rng rng(seed);
    auto submitter = [&](std::uint32_t port, sim::Rng r) -> Task {
      std::uint64_t fence_epoch = 0;
      for (int i = 0; i < kCommandsPerPort; ++i) {
        if (r.chance(0.3)) fence_epoch += r.uniform(1, 2);
        testutil::Submission sub;
        Version first = 0;
        if (r.chance(0.1)) {
          sub = make_flush(sim, Priority::kHeadOfQueue);
        } else {
          std::vector<std::pair<Lba, Version>> blocks;
          first = next_version;
          const std::uint64_t n = r.uniform(1, 4);
          for (std::uint64_t b = 0; b < n; ++b)
            blocks.emplace_back(r.uniform(0, 63), next_version++);
          const bool ordered = r.chance(0.3);
          sub = make_write(sim, std::move(blocks),
                           ordered ? Priority::kOrdered : Priority::kSimple,
                           /*barrier=*/ordered);
        }
        sub.cmd->port = port;
        sub.cmd->fence_epoch = fence_epoch;
        while (!dev.try_submit(sub.cmd)) co_await dev.queue_activity().wait();
        sent.push_back(Sent{std::move(sub), first});
        if (r.chance(0.5)) co_await sim.delay(r.uniform(0, 3) * 1_us);
      }
    };
    for (std::uint32_t p = 0; p < kPorts; ++p)
      sim.spawn("submit", submitter(p, rng.fork()));
    sim.run();

    // Every command completed, and every written block was transferred.
    std::unordered_map<Version, std::size_t> pos;  // version -> arrival
    for (std::size_t i = 0; i < rec.size(); ++i) pos[rec[i].version] = i;
    ASSERT_EQ(sent.size(), kPorts * kCommandsPerPort);
    ASSERT_EQ(rec.size(), next_version - 1);
    EXPECT_GT(dev.stats().busy_rejections, 0u) << "windows never filled";
    struct Span {
      std::uint64_t epoch, seq;
      Priority priority;
      std::size_t first, last;  // arrival positions of its blocks
    };
    std::vector<Span> writes;
    for (const Sent& s : sent) {
      ASSERT_TRUE(s.sub.done->is_set()) << "command never completed";
      const Command& c = *s.sub.cmd;
      if (c.op != OpCode::kWrite) continue;
      Span sp{c.fence_epoch, c.seq, c.priority, rec.size(), 0};
      for (std::size_t b = 0; b < c.blocks.size(); ++b) {
        const std::size_t at = pos.at(s.first_version + b);
        sp.first = std::min(sp.first, at);
        sp.last = std::max(sp.last, at);
      }
      writes.push_back(sp);
    }
    std::size_t fenced_pairs = 0;
    for (const Span& later : writes) {
      for (const Span& w : writes) {
        if (w.seq >= later.seq) continue;  // `later` or submitted after it
        if (std::pair(w.epoch, w.seq) > std::pair(later.epoch, later.seq))
          continue;  // a port ahead of `later`'s: not fenced by it
        // An ORDERED write lands after every data write that precedes it,
        // and a SIMPLE one after every ORDERED write that precedes it.
        if (later.priority == Priority::kOrdered ||
            w.priority == Priority::kOrdered) {
          ++fenced_pairs;
          EXPECT_LT(w.last, later.first)
              << "seq " << later.seq << " passed seq " << w.seq;
        }
      }
    }
    EXPECT_GT(fenced_pairs, 0u);
  }
}

}  // namespace
}  // namespace bio::flash
