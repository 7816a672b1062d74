// Integration tests: block layer + dispatcher + device.
#include <gtest/gtest.h>

#include "blk/block_layer.h"
#include "flash_test_util.h"
#include "sim/simulator.h"

namespace bio::blk {
namespace {

using namespace bio::sim::literals;
using flash::BarrierMode;
using flash::Lba;
using flash::StorageDevice;
using flash::testutil::one_block;
using flash::Version;
using sim::Simulator;
using sim::Task;

/// A one-block write request (the pool builds requests from spans).
RequestPtr write_of(RequestPool& pool, Lba lba, Version v,
                    bool ordered = false, bool barrier = false) {
  const Block block[1] = {{lba, v}};
  return pool.make_write(block, ordered, barrier);
}

struct Stack {
  Simulator sim;
  StorageDevice dev;
  BlockLayer blk;

  explicit Stack(BlockLayerConfig cfg = {},
                 BarrierMode mode = BarrierMode::kInOrderRecovery,
                 bool plp = false)
      : dev(sim, flash::testutil::test_profile(mode, plp)),
        blk(sim, dev, std::move(cfg)) {
    dev.start();
    blk.start();
  }
};

TEST(BlockLayerTest, WriteAndWaitCompletes) {
  Stack s;
  bool done = false;
  auto body = [&]() -> Task {
    co_await s.blk.write_and_wait(one_block(1, s.blk.next_version()));
    done = true;
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.blk.stats().dispatched, 1u);
  EXPECT_EQ(s.dev.stats().writes, 1u);
}

TEST(BlockLayerTest, FlushMakesWritesDurable) {
  Stack s;
  auto body = [&]() -> Task {
    co_await s.blk.write_and_wait(one_block(1, 7));
    co_await s.blk.flush_and_wait();
    EXPECT_EQ(s.dev.durable_state().at(1), 7u);
  };
  s.sim.spawn("t", body());
  s.sim.run();
}

TEST(BlockLayerTest, ReadCompletes) {
  Stack s;
  auto body = [&]() -> Task {
    co_await s.blk.write_and_wait(one_block(5, 1));
    RequestPtr r = s.blk.pool().make_read(5);
    s.blk.submit(r);
    co_await r->completion.wait();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(s.dev.stats().reads, 1u);
}

TEST(BlockLayerTest, BarrierWriteReachesDeviceAsOrderedBarrier) {
  Stack s;
  auto body = [&]() -> Task {
    co_await s.blk.write_and_wait(one_block(1, 1), /*ordered=*/true,
                                  /*barrier=*/true);
    co_await s.blk.write_and_wait(one_block(2, 2));
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(s.dev.current_epoch(), 1u) << "barrier flag reached the device";
  EXPECT_EQ(s.dev.stats().barrier_writes, 1u);
}

// ---- ordering mode derived from the device ----------------------------------

TEST(BlockLayerModeTest, LegacyDeviceGetsTheOrderlessStack) {
  // A kNone device ignores barriers, so the layer runs the orderless stack:
  // the bare elevator on every queue, no fence even with several queues,
  // and ordering attributes stripped before dispatch.
  for (std::uint32_t nr_queues : {1u, 4u}) {
    BlockLayerConfig cfg;
    cfg.nr_queues = nr_queues;
    Stack s(cfg, BarrierMode::kNone);
    for (std::uint32_t q = 0; q < nr_queues; ++q)
      EXPECT_NE(dynamic_cast<const ElevatorScheduler*>(&s.blk.scheduler(q)),
                nullptr)
          << "q" << q;
    EXPECT_EQ(s.blk.epoch_fence(), nullptr) << nr_queues << " queues";
    auto body = [&]() -> Task {
      co_await s.blk.write_and_wait(one_block(1, 1), true, /*barrier=*/true);
    };
    s.sim.spawn("t", body());
    s.sim.run();
    EXPECT_EQ(s.dev.stats().barrier_writes, 0u)
        << "no barrier flag reaches a legacy device";
  }
}

TEST(BlockLayerModeTest, BarrierDeviceGetsTheEpochScheduler) {
  // A barrier-compliant device: every queue runs the epoch scheduler over
  // its elevator, and several queues share a fence.
  for (std::uint32_t nr_queues : {1u, 4u}) {
    BlockLayerConfig cfg;
    cfg.nr_queues = nr_queues;
    Stack s(cfg, BarrierMode::kInOrderRecovery);
    ASSERT_EQ(s.blk.nr_queues(), nr_queues);
    for (std::uint32_t q = 0; q < nr_queues; ++q)
      EXPECT_NE(dynamic_cast<const EpochScheduler*>(&s.blk.scheduler(q)),
                nullptr)
          << "q" << q;
    // A single queue has nothing to fence across.
    EXPECT_EQ(s.blk.epoch_fence() != nullptr, nr_queues > 1)
        << nr_queues << " queues";
  }
}

TEST(BlockLayerTest, MergedRequestFansOutCompletions) {
  Stack s;
  int completions = 0;
  auto body = [&]() -> Task {
    const Block ab[] = {{10, 1}, {11, 2}};
    RequestPtr a = s.blk.pool().make_write(ab);
    RequestPtr b = write_of(s.blk.pool(), 12, 3);
    s.blk.submit(a);
    s.blk.submit(b);  // merges into a at the scheduler
    co_await a->completion.wait();
    ++completions;
    co_await b->completion.wait();
    ++completions;
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(s.dev.stats().writes, 1u) << "one merged command at the device";
  EXPECT_EQ(s.dev.stats().blocks_written, 3u);
}

TEST(BlockLayerTest, BusyDeviceEventuallyDispatchesEverything) {
  Stack s;
  int done = 0;
  auto body = [&]() -> Task {
    std::vector<RequestPtr> reqs;
    for (int i = 0; i < 20; ++i) {
      // Distinct non-contiguous LBAs: no merging, 20 commands through a
      // QD=4 device.
      reqs.push_back(write_of(s.blk.pool(), Lba(i * 2), Version(i)));
      s.blk.submit(reqs.back());
    }
    for (auto& r : reqs) {
      co_await r->completion.wait();
      ++done;
    }
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(s.dev.stats().writes, 20u);
  EXPECT_GT(s.blk.stats().busy_retries, 0u) << "QD=4 forces busy retries";
}

TEST(BlockLayerTest, EpochOrderingPreservedThroughFullStack) {
  Stack s;
  flash::WritebackCache::TransferRecorder h;
  s.dev.install_transfer_recorder(&h);
  auto body = [&]() -> Task {
    // Epoch 0: lba 1,2 + barrier on 3. Epoch 1: lba 4.
    RequestPtr w1 = write_of(s.blk.pool(), 1, 1, true);
    RequestPtr w2 = write_of(s.blk.pool(), 2, 2, true);
    RequestPtr w3 = write_of(s.blk.pool(), 3, 3, true, true);
    s.blk.submit(w1);
    s.blk.submit(w2);
    s.blk.submit(w3);
    RequestPtr w4 = write_of(s.blk.pool(), 4, 4, true);
    s.blk.submit(w4);
    co_await w4->completion.wait();
    co_await w3->completion.wait();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  // Transfer history: epoch of lba 4 must be greater than epoch of 1..3.
  std::uint64_t epoch_of_4 = 0, max_epoch_123 = 0;
  for (const auto& e : h) {
    if (e.lba == 4)
      epoch_of_4 = e.epoch;
    else
      max_epoch_123 = std::max(max_epoch_123, e.epoch);
  }
  EXPECT_GT(epoch_of_4, max_epoch_123);
}

TEST(BlockLayerTest, VersionsAreUnique) {
  Stack s;
  flash::Version a = s.blk.next_version();
  flash::Version b = s.blk.next_version();
  EXPECT_NE(a, b);
}

// ---- multi-queue (blk-mq) mode ---------------------------------------------

BlockLayerConfig mq_config(std::uint32_t nr_queues) {
  BlockLayerConfig cfg;
  cfg.nr_queues = nr_queues;
  return cfg;
}

TEST(BlockLayerMqTest, BarrierOnQueue0FencesLaterWriteOnQueue1) {
  // The cross-queue contract: a write issued on queue 1 *after* queue 0's
  // barrier closed the epoch must transfer (and land in a device epoch)
  // after it — and the peer's pre-barrier write must drain below it.
  Stack s(mq_config(4));
  flash::WritebackCache::TransferRecorder h;
  s.dev.install_transfer_recorder(&h);
  auto body = [&]() -> Task {
    RequestPtr pre = write_of(s.blk.pool(), 1, 1, /*ordered=*/true);
    RequestPtr b = write_of(s.blk.pool(), 2, 2, true, /*barrier=*/true);
    RequestPtr post = write_of(s.blk.pool(), 3, 3, true);
    s.blk.submit_on(1, pre);   // peer queue, same epoch as the barrier
    s.blk.submit_on(0, b);     // closes epoch 0
    s.blk.submit_on(1, post);  // enqueued after the barrier: epoch 1
    co_await pre->completion.wait();
    co_await b->completion.wait();
    co_await post->completion.wait();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  ASSERT_NE(s.blk.epoch_fence(), nullptr);
  EXPECT_EQ(s.blk.epoch_fence()->epochs_closed(), 1u);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].lba, 1u) << "peer's pre-barrier write transferred below";
  EXPECT_EQ(h[1].lba, 2u);
  EXPECT_EQ(h[2].lba, 3u) << "post-barrier write transferred above";
  EXPECT_EQ(h[2].epoch, 1u) << "and landed in the next device epoch";
}

TEST(BlockLayerMqTest, OrderlessPeerWriteEnqueuedBeforeBarrierTransfersBelow) {
  // An *orderless* write on queue 1 enqueued before queue 0's barrier: the
  // barrier's gate must wait for it (any write may carry ordered payload
  // after a merge) and the device must fence it below — it carries the
  // epoch it was enqueued under, not a stale 0 that would jump the fence.
  Stack s(mq_config(4));
  flash::WritebackCache::TransferRecorder h;
  s.dev.install_transfer_recorder(&h);
  RequestPtr pre = write_of(s.blk.pool(), 1, 1);  // orderless
  RequestPtr b = write_of(s.blk.pool(), 2, 2, true, /*barrier=*/true);
  RequestPtr post = write_of(s.blk.pool(), 3, 3);  // orderless
  auto body = [&]() -> Task {
    s.blk.submit_on(1, pre);   // peer queue, enqueued before the barrier
    s.blk.submit_on(0, b);     // closes epoch 0
    s.blk.submit_on(1, post);  // enqueued after: epoch 1, fenced behind it
    co_await pre->completion.wait();
    co_await b->completion.wait();
    co_await post->completion.wait();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(pre->fence_epoch, 0u);
  EXPECT_EQ(post->fence_epoch, 1u);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].lba, 1u) << "pre-barrier orderless write transferred below";
  EXPECT_EQ(h[1].lba, 2u);
  EXPECT_EQ(h[2].lba, 3u) << "post-barrier orderless write fenced above";
  EXPECT_EQ(h[2].epoch, 1u) << "and landed in the next device epoch";
}

TEST(BlockLayerMqTest, IdleQueuesNeverStallABarrier) {
  // Three of the four queues never see a request; the barrier's submission
  // gate must treat them as drained and complete promptly.
  Stack s(mq_config(4));
  sim::SimTime done_at = 0;
  auto body = [&]() -> Task {
    RequestPtr b = write_of(s.blk.pool(), 1, 1, true, /*barrier=*/true);
    s.blk.submit_on(0, b);
    co_await b->completion.wait();
    done_at = s.sim.now();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_GT(done_at, 0u);
  EXPECT_LT(done_at, 100_us) << "idle peers must not delay the gate";
  EXPECT_EQ(s.dev.stats().barrier_writes, 1u);
}

TEST(BlockLayerMqTest, QueuesMapToDevicePorts) {
  // Four software queues over the test device's two channels: queue q feeds
  // port q % 2, so queues 0 and 2 share port 0 and queue 1 drives port 1.
  Stack s(mq_config(4));
  auto body = [&]() -> Task {
    RequestPtr a = write_of(s.blk.pool(), 1, 1);
    RequestPtr b = write_of(s.blk.pool(), 2, 2);
    RequestPtr c = write_of(s.blk.pool(), 3, 3);
    s.blk.submit_on(0, a);
    s.blk.submit_on(1, b);
    s.blk.submit_on(2, c);
    co_await a->completion.wait();
    co_await b->completion.wait();
    co_await c->completion.wait();
  };
  s.sim.spawn("t", body());
  s.sim.run();
  EXPECT_EQ(s.dev.port_submissions(0), 2u);
  EXPECT_EQ(s.dev.port_submissions(1), 1u);
}

TEST(BlockLayerMqTest, SubmitRoutesByThreadOrdinal) {
  // Two writer coroutines spawned back to back get consecutive thread ids,
  // so plain submit() routes them to different queues — and hence ports.
  Stack s(mq_config(2));
  auto writer = [&](Lba lba) -> Task {
    co_await s.blk.write_and_wait(one_block(lba, 1));
  };
  s.sim.spawn("w0", writer(1));
  s.sim.spawn("w1", writer(2));
  s.sim.run();
  EXPECT_EQ(s.dev.port_submissions(0), 1u);
  EXPECT_EQ(s.dev.port_submissions(1), 1u);
}

}  // namespace
}  // namespace bio::blk
