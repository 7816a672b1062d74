// Tests for the device write-back cache.
#include <gtest/gtest.h>

#include "flash/cache.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;

/// A DMA landing as StorageDevice::handle_write does it: wait for a free
/// slot, then record the block.
Task land(WritebackCache& cache, Lba lba, Version version, std::uint64_t epoch,
          bool barrier) {
  co_await cache.acquire_slot();
  cache.insert(lba, version, epoch, barrier);
}

/// A claim as StorageDevice::drain_loop does it: wait for an insert while
/// everything is claimed.
Task claim(WritebackCache& cache, WritebackCache::Entry& out) {
  while (!cache.try_claim(out)) co_await cache.inserted().wait();
}

TEST(WritebackCacheTest, InsertAssignsDenseOrders) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  WritebackCache::TransferRecorder h;
  cache.install_transfer_recorder(&h);
  auto body = [&]() -> Task {
    co_await land(cache, 10, 1, 0, false);
    co_await land(cache, 20, 2, 0, false);
    co_await land(cache, 30, 3, 1, true);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.next_order(), 3u);
  EXPECT_EQ(cache.dirty_count(), 3u);
  EXPECT_EQ(h[0].order, 0u);
  EXPECT_EQ(h[2].epoch, 1u);
  EXPECT_TRUE(h[2].barrier);
}

TEST(WritebackCacheTest, ClaimReturnsFifoOrder) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  std::vector<Lba> claimed;
  auto body = [&]() -> Task {
    co_await land(cache, 10, 1, 0, false);
    co_await land(cache, 20, 2, 0, false);
    WritebackCache::Entry e;
    co_await claim(cache, e);
    claimed.push_back(e.lba);
    co_await claim(cache, e);
    claimed.push_back(e.lba);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(claimed, (std::vector<Lba>{10, 20}));
}

TEST(WritebackCacheTest, TryClaimFailsOnceEveryEntryIsClaimed) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  WritebackCache::Entry e;
  EXPECT_FALSE(cache.try_claim(e));
  auto body = [&]() -> Task { co_await land(cache, 7, 1, 0, false); };
  sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(cache.try_claim(e));
  EXPECT_EQ(e.lba, 7u);
  EXPECT_FALSE(cache.try_claim(e));
}

TEST(WritebackCacheTest, ClaimBlocksUntilInsert) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  sim::SimTime claimed_at = 0;
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await claim(cache, e);
    claimed_at = sim.now();
  };
  auto writer = [&]() -> Task {
    co_await sim.delay(40_us);
    co_await land(cache, 1, 1, 0, false);
  };
  sim.spawn("d", drainer());
  sim.spawn("w", writer());
  sim.run();
  EXPECT_EQ(claimed_at, 40_us);
}

TEST(WritebackCacheTest, FullCacheBackpressuresInsert) {
  Simulator sim;
  WritebackCache cache(sim, 2);
  sim::SimTime third_insert_at = 0;
  auto writer = [&]() -> Task {
    co_await land(cache, 1, 1, 0, false);
    co_await land(cache, 2, 2, 0, false);
    co_await land(cache, 3, 3, 0, false);  // blocks: capacity 2
    third_insert_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    co_await sim.delay(100_us);
    WritebackCache::Entry e;
    co_await claim(cache, e);
    cache.mark_drained(e.order);
  };
  sim.spawn("w", writer());
  sim.spawn("d", drainer());
  sim.run();
  EXPECT_EQ(third_insert_at, 100_us);
}

TEST(WritebackCacheTest, DrainedThroughTracksContiguousPrefix) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    for (int i = 0; i < 3; ++i)
      co_await land(cache, static_cast<Lba>(i), 1, 0, false);
    WritebackCache::Entry e;
    for (int i = 0; i < 3; ++i) co_await claim(cache, e);
    // Drain out of order: 2 then 0; order 1 still pending.
    cache.mark_drained(2);
    cache.mark_drained(0);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(cache.drained_through(1));
  EXPECT_FALSE(cache.drained_through(2));
  EXPECT_FALSE(cache.drained_through(3));
  cache.mark_drained(1);
  EXPECT_TRUE(cache.drained_through(3));
}

TEST(WritebackCacheTest, WaitDrainedThroughWakes) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  sim::SimTime woke_at = 0;
  auto waiter = [&]() -> Task {
    co_await land(cache, 1, 1, 0, false);
    while (!cache.drained_through(1)) co_await cache.drained().wait();
    woke_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await claim(cache, e);
    co_await sim.delay(77_us);
    cache.mark_drained(e.order);
  };
  sim.spawn("w", waiter());
  sim.spawn("d", drainer());
  sim.run();
  EXPECT_EQ(woke_at, 77_us);
}

TEST(WritebackCacheTest, LookupReturnsNewestDirtyVersion) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await land(cache, 5, 1, 0, false);
    co_await land(cache, 5, 2, 0, false);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.lookup(5), Version{2});
  EXPECT_EQ(cache.lookup(6), std::nullopt);
}

TEST(WritebackCacheTest, LookupDropsWhenNewestDrained) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await land(cache, 5, 1, 0, false);
    WritebackCache::Entry e;
    co_await claim(cache, e);
    cache.mark_drained(e.order);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.lookup(5), std::nullopt);
}

TEST(WritebackCacheTest, UndrainedEntriesSnapshotInArrivalOrder) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await land(cache, 1, 1, 0, false);
    co_await land(cache, 2, 2, 0, false);
    co_await land(cache, 3, 3, 1, false);
    WritebackCache::Entry e;
    co_await claim(cache, e);
    cache.mark_drained(e.order);
  };
  sim.spawn("t", body());
  sim.run();
  auto entries = cache.undrained_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].lba, 2u);
  EXPECT_EQ(entries[1].lba, 3u);
}

TEST(WritebackCacheTest, RingGrowsWhenOutOfOrderDrainsStretchTheSpan) {
  Simulator sim;
  WritebackCache cache(sim, 2);
  auto body = [&]() -> Task {
    co_await land(cache, 1, 1, 0, false);
    co_await land(cache, 2, 2, 0, false);
    WritebackCache::Entry e;
    co_await claim(cache, e);
    co_await claim(cache, e);
    // Order 1 programs first: a slot frees while order 0 is still live,
    // so orders [0, 3) no longer fit the two-entry ring.
    cache.mark_drained(1);
    co_await land(cache, 3, 3, 1, false);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.lookup(1), Version{1});
  EXPECT_EQ(cache.lookup(2), std::nullopt);
  EXPECT_EQ(cache.lookup(3), Version{3});
  auto entries = cache.undrained_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].order, 0u);
  EXPECT_EQ(entries[1].order, 2u);
  EXPECT_EQ(entries[1].epoch, 1u);
  cache.mark_drained(0);
  EXPECT_TRUE(cache.drained_through(2));
  EXPECT_FALSE(cache.drained_through(3));
  EXPECT_EQ(cache.lookup(1), std::nullopt);
}

}  // namespace
}  // namespace bio::flash
