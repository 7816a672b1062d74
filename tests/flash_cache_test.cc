// Tests for the device write-back cache.
#include <gtest/gtest.h>

#include "flash/cache.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;

TEST(WritebackCacheTest, InsertAssignsDenseOrders) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  WritebackCache::TransferRecorder h;
  cache.install_transfer_recorder(&h);
  auto body = [&]() -> Task {
    co_await cache.insert(10, 1, 0, false);
    co_await cache.insert(20, 2, 0, false);
    co_await cache.insert(30, 3, 1, true);
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
    co_await cache.insert(10, 1, 0, false);
    co_await cache.insert(20, 2, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    claimed.push_back(e.lba);
    co_await cache.claim_next(e);
    claimed.push_back(e.lba);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(claimed, (std::vector<Lba>{10, 20}));
}

TEST(WritebackCacheTest, ClaimBlocksUntilInsert) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  sim::SimTime claimed_at = 0;
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    claimed_at = sim.now();
  };
  auto writer = [&]() -> Task {
    co_await sim.delay(40_us);
    co_await cache.insert(1, 1, 0, false);
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
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    co_await cache.insert(3, 3, 0, false);  // blocks: capacity 2
    third_insert_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    co_await sim.delay(100_us);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
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
      co_await cache.insert(static_cast<Lba>(i), 1, 0, false);
    WritebackCache::Entry e;
    for (int i = 0; i < 3; ++i) co_await cache.claim_next(e);
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
    co_await cache.insert(1, 1, 0, false);
    co_await cache.wait_drained_through(1);
    woke_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
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
    co_await cache.insert(5, 1, 0, false);
    co_await cache.insert(5, 2, 0, false);
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
    co_await cache.insert(5, 1, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
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
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    co_await cache.insert(3, 3, 1, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
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
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    co_await cache.claim_next(e);
    // Order 1 programs first: a slot frees while order 0 is still live,
    // so orders [0, 3) no longer fit the two-entry ring.
    cache.mark_drained(1);
    co_await cache.insert(3, 3, 1, false);
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
