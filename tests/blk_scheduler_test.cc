// Tests for the elevator and request merging.
#include <gtest/gtest.h>

#include "blk/io_scheduler.h"
#include "blk/request_pool.h"
#include "sim/simulator.h"

namespace bio::blk {
namespace {

using flash::Lba;
using sim::Simulator;

RequestPtr wr(RequestPool& pool, Lba lba, std::size_t n = 1,
              bool ordered = false, bool barrier = false, bool flush = false,
              bool fua = false) {
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < n; ++i) blocks.emplace_back(lba + i, 1);
  return pool.make_write(std::span<const Block>(blocks), ordered, barrier,
                         flush, fua);
}

TEST(ElevatorSchedulerTest, DispatchesInAscendingLbaOrder) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 100));
  s.enqueue(wr(pool, 20));
  s.enqueue(wr(pool, 60));
  EXPECT_EQ(s.dequeue()->first_lba(), 20u);
  EXPECT_EQ(s.dequeue()->first_lba(), 60u);
  EXPECT_EQ(s.dequeue()->first_lba(), 100u);
}

TEST(ElevatorSchedulerTest, CscanWrapsAround) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 100));
  EXPECT_EQ(s.dequeue()->first_lba(), 100u);  // head now at 101
  s.enqueue(wr(pool, 50));
  s.enqueue(wr(pool, 200));
  EXPECT_EQ(s.dequeue()->first_lba(), 200u) << "continues upward first";
  EXPECT_EQ(s.dequeue()->first_lba(), 50u) << "then wraps";
}

TEST(ElevatorSchedulerTest, FrontAndBackMerge) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10, 2));  // 10,11
  s.enqueue(wr(pool, 14, 2));  // 14,15
  s.enqueue(wr(pool, 12, 2));  // 12,13 -> back-merges into [10..13]
  EXPECT_EQ(s.size(), 2u);
  s.enqueue(wr(pool, 8, 2));  // 8,9 -> front-merges into [8..13]? No:
  // front merge means the new request absorbs the existing [10..13].
  EXPECT_EQ(s.size(), 2u);
  RequestPtr r = s.dequeue();
  EXPECT_EQ(r->first_lba(), 8u);
  EXPECT_EQ(r->blocks.size(), 6u);
}

TEST(ElevatorSchedulerTest, FrontMergeOfACarrierKeepsTheListFlat) {
  // Front-merges absorb carriers that already hold merged requests. The
  // survivor's list is flat, in merge-tree preorder, and completions fire
  // in that order.
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  RequestPtr a = wr(pool, 20, 2);  // 20,21
  RequestPtr b = wr(pool, 22);     // back-merges into a
  RequestPtr c = wr(pool, 18, 2);  // 18,19: front-merges, absorbing a
  RequestPtr d = wr(pool, 16, 2);  // 16,17: front-merges, absorbing c
  RequestPtr e = wr(pool, 23);     // back-merges into d
  for (const RequestPtr& r : {a, b, c, d, e}) s.enqueue(r);
  EXPECT_EQ(s.stats().merges, 4u);
  RequestPtr carrier = s.dequeue();
  ASSERT_EQ(carrier, d);
  EXPECT_EQ(carrier->blocks.size(), 8u);
  std::vector<Request*> list;
  for (const RequestPtr& r : carrier->absorbed) {
    list.push_back(r.get());
    EXPECT_TRUE(r->absorbed.empty()) << "lba " << r->first_lba();
  }
  EXPECT_EQ(list, (std::vector<Request*>{c.get(), a.get(), b.get(), e.get()}));

  std::vector<Lba> order;
  auto watch = [&](RequestPtr r) -> sim::Task {
    co_await r->completion.wait();
    order.push_back(r->first_lba());
  };
  for (const RequestPtr& r : {e, b, a, c}) sim.spawn("w", watch(r));
  sim.run();
  trigger_absorbed(*carrier);
  sim.run();
  EXPECT_EQ(order, (std::vector<Lba>{18, 20, 22, 23}));
}

TEST(ElevatorSchedulerTest, ReadsDispatchBeforeWrites) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10));
  s.enqueue(pool.make_read(500));
  RequestPtr r = s.dequeue();
  EXPECT_EQ(r->op, ReqOp::kRead);
}

TEST(ElevatorSchedulerTest, BackMergesContiguousWrites) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10, 2));  // 10,11
  s.enqueue(wr(pool, 12, 3));  // 12,13,14 -> merges
  EXPECT_EQ(s.size(), 1u);
  RequestPtr r = s.dequeue();
  EXPECT_EQ(r->blocks.size(), 5u);
  EXPECT_EQ(r->last_lba(), 14u);
  EXPECT_EQ(r->absorbed.size(), 1u);
  EXPECT_EQ(s.stats().merges, 1u);
}

TEST(ElevatorSchedulerTest, NonContiguousDoesNotMerge) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10));
  s.enqueue(wr(pool, 12));
  s.enqueue(wr(pool, 8));  // neither neighbour touches it
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.stats().merges, 0u);
}

TEST(ElevatorSchedulerTest, NoMergeAcrossFlushOrFua) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10, 1, false, false, /*flush=*/true));
  s.enqueue(wr(pool, 11));  // would back-merge behind the flush write
  EXPECT_EQ(s.size(), 2u);
  s.enqueue(wr(pool, 12, 1, false, false, false, /*fua=*/true));
  EXPECT_EQ(s.size(), 3u);
  s.enqueue(wr(pool, 9));  // would front-merge ahead of the flush write
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.stats().merges, 0u);
}

TEST(ElevatorSchedulerTest, MergeInheritsOrderPreservation) {
  // §3.3: a merged request is order-preserving if any constituent is, on
  // either side of the merge.
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 10, 1, /*ordered=*/false));
  s.enqueue(wr(pool, 11, 1, /*ordered=*/true));  // back-merges
  s.enqueue(wr(pool, 21, 1, /*ordered=*/true));
  s.enqueue(wr(pool, 20, 1, /*ordered=*/false));  // front-merges
  ASSERT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.dequeue()->ordered) << "back-merge";
  EXPECT_TRUE(s.dequeue()->ordered) << "front-merge";
}

TEST(ElevatorSchedulerTest, MergeRespectsSizeCap) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  s.enqueue(wr(pool, 0, kMaxMergedBlocks - 1));
  s.enqueue(wr(pool, kMaxMergedBlocks - 1, 1));  // fits exactly
  EXPECT_EQ(s.size(), 1u);
  s.enqueue(wr(pool, kMaxMergedBlocks, 1));  // would exceed the cap
  EXPECT_EQ(s.size(), 2u);
}

TEST(ElevatorSchedulerTest, HasOrderedTracksQueueContents) {
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  EXPECT_FALSE(s.has_ordered());
  s.enqueue(wr(pool, 10, 1, /*ordered=*/true));
  s.enqueue(wr(pool, 20));
  EXPECT_TRUE(s.has_ordered());
  (void)s.dequeue();  // removes the ordered one (lowest LBA)
  EXPECT_FALSE(s.has_ordered());
}

TEST(RequestTest, BarrierImpliesOrdered) {
  Simulator sim;
  RequestPool pool(sim);
  RequestPtr r = wr(pool, 1, 1, /*ordered=*/false, /*barrier=*/true);
  EXPECT_TRUE(r->ordered);
}

TEST(RequestTest, NonContiguousBlocksRejected) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<Block> blocks{{1, 1}, {3, 2}};
  EXPECT_THROW((void)pool.make_write(std::span<const Block>(blocks)),
               bio::CheckFailure);
}

}  // namespace
}  // namespace bio::blk
