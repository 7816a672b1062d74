// Tests for the slab/freelist RequestPool: recycling behaviour, embedded
// completion events, allocation statistics, BlockList and RequestList
// small-buffer storage, and the completion order of flat merge lists.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "blk/request_pool.h"
#include "sim/simulator.h"

namespace bio::blk {
namespace {

using flash::Lba;
using flash::Version;
using sim::Simulator;

TEST(RequestPoolTest, RecyclesReleasedRequests) {
  Simulator sim;
  RequestPool pool(sim);
  Request* raw;
  {
    RequestPtr r = pool.make_write({{10, 1}});
    raw = r.get();
    EXPECT_EQ(pool.stats().acquired, 1u);
    EXPECT_EQ(pool.stats().fresh_requests, 1u);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  EXPECT_EQ(pool.free_count(), 1u) << "released request must park";
  RequestPtr r2 = pool.make_read(42);
  EXPECT_EQ(r2.get(), raw) << "freelist must hand back the same object";
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().fresh_requests, 1u) << "no second slab entry";
  EXPECT_EQ(r2->op, ReqOp::kRead);
  EXPECT_EQ(r2->read_lba, 42u);
  EXPECT_TRUE(r2->blocks.empty()) << "recycled payload must be scrubbed";
  EXPECT_TRUE(r2->absorbed.empty());
}

TEST(RequestPoolTest, SteadyStateCostsNoAllocations) {
  Simulator sim;
  RequestPool pool(sim);
  // Warm-up: one request teaches the pool its slab + control-block sizes.
  { RequestPtr r = pool.make_write({{1, 1}}); }
  const auto warm = pool.stats();
  for (int i = 0; i < 1000; ++i) {
    RequestPtr r = pool.make_write({{Lba(i), Version(i)}});
    r->completion.trigger();
  }
  const auto& s = pool.stats();
  EXPECT_EQ(s.fresh_requests, warm.fresh_requests)
      << "steady-state churn must not grow the slab";
  EXPECT_EQ(s.ctrl_allocs, warm.ctrl_allocs)
      << "control blocks must recycle";
  EXPECT_EQ(s.block_heap_allocs, 0u) << "one-block payloads stay inline";
  EXPECT_LT(s.allocs_per_request(), 0.01);
}

TEST(RequestPoolTest, EmbeddedEventRearmsAcrossReuse) {
  Simulator sim;
  RequestPool pool(sim);
  {
    RequestPtr r = pool.make_flush();
    r->completion.trigger();
    EXPECT_TRUE(r->completion.is_set());
  }
  RequestPtr r2 = pool.make_flush();
  EXPECT_FALSE(r2->completion.is_set())
      << "recycled completion event must be re-armed";
}

TEST(RequestPoolTest, ConcurrentRequestsGetDistinctSlots) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<RequestPtr> live;
  for (int i = 0; i < 64; ++i)
    live.push_back(pool.make_write({{Lba(i * 2), 1}}));
  for (int i = 0; i < 64; ++i)
    for (int j = i + 1; j < 64; ++j) EXPECT_NE(live[i].get(), live[j].get());
  EXPECT_EQ(pool.slab_size(), 64u);
  live.clear();
  EXPECT_EQ(pool.free_count(), 64u);
}

TEST(RequestPoolTest, PoolOutlivesHandleWhileRequestsLive) {
  // The Impl is shared-ownership: dropping the RequestPool object while
  // requests are outstanding must not dangle their slab.
  Simulator sim;
  RequestPtr r;
  {
    RequestPool pool(sim);
    r = pool.make_write({{7, 3}});
  }
  EXPECT_EQ(r->first_lba(), 7u);
  r->completion.trigger();
  r.reset();  // releases into the (still-alive) Impl, then frees everything
}

TEST(RequestPoolTest, ValidatesContiguousBlocks) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<Block> blocks{{1, 1}, {3, 2}};
  EXPECT_THROW((void)pool.make_write(std::span<const Block>(blocks)),
               bio::CheckFailure);
}

TEST(RequestPoolTest, ReleaseParksCarrierThenAbsorbedNewestFirst) {
  // The free list hands back the most recently parked request first, so the
  // release order decides which recycled object each later acquire gets.
  Simulator sim;
  RequestPool pool(sim);
  RequestPtr carrier = pool.make_write({{0, 1}});
  std::vector<Request*> absorbed;
  for (Lba i = 1; i <= 3; ++i) {
    RequestPtr r = pool.make_write({{i, 1}});
    absorbed.push_back(r.get());
    absorb(*carrier, std::move(r));
  }
  Request* const raw = carrier.get();
  carrier.reset();
  ASSERT_EQ(pool.free_count(), 4u) << "the carrier releases its list";
  std::vector<RequestPtr> live;
  std::vector<Request*> handed;
  for (int i = 0; i < 4; ++i) {
    live.push_back(pool.make_flush());
    handed.push_back(live.back().get());
  }
  EXPECT_EQ(handed, (std::vector<Request*>{absorbed[0], absorbed[1],
                                           absorbed[2], raw}));
}

TEST(BlockListTest, SpillsToHeapAndKeepsCapacityAcrossClears) {
  BlockList list;
  for (std::uint32_t i = 0; i < BlockList::kInlineBlocks; ++i)
    list.push_back({i, 1});
  EXPECT_EQ(list.take_heap_allocs(), 0u) << "inline fill must not allocate";
  list.push_back({BlockList::kInlineBlocks, 1});
  EXPECT_EQ(list.size(), BlockList::kInlineBlocks + 1);
  EXPECT_GT(list.take_heap_allocs(), 0u) << "spill must be counted";
  for (std::uint32_t i = 0; i < list.size(); ++i)
    EXPECT_EQ(list[i].first, Lba(i)) << "spill must preserve order";

  const std::size_t n = list.size();
  list.clear();
  EXPECT_TRUE(list.empty());
  for (std::uint32_t i = 0; i < n; ++i) list.push_back({i, 2});
  EXPECT_EQ(list.take_heap_allocs(), 0u)
      << "re-filling to the old size must reuse the retained capacity";
}

TEST(RequestListTest, SpillKeepsOrderAndOwnership) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<Request*> raw;
  {
    RequestList list;
    EXPECT_TRUE(list.empty());
    for (Lba i = 0; i < 3 * RequestList::kInline; ++i) {
      RequestPtr r = pool.make_write({{i, 1}});
      raw.push_back(r.get());
      list.push_back(std::move(r));
    }
    std::vector<Request*> seen;
    for (const RequestPtr& r : list) seen.push_back(r.get());
    EXPECT_EQ(seen, raw) << "spill must preserve order";
    EXPECT_EQ(pool.free_count(), 0u) << "the list owns every request";
  }
  EXPECT_EQ(pool.free_count(), raw.size()) << "destroying it releases all";
}

TEST(TriggerAbsorbedTest, PreservesPreorderTriggerSequence) {
  // Completions fire in merge-tree preorder: a request absorbed together
  // with its own absorbed list completes just before that list, and both
  // before any later merge.
  Simulator sim;
  RequestPool pool(sim);
  RequestPtr root = pool.make_write({{0, 1}});
  RequestPtr a = pool.make_write({{1, 1}});
  RequestPtr a1 = pool.make_write({{2, 1}});
  RequestPtr b = pool.make_write({{3, 1}});
  absorb(*a, a1);
  absorb(*root, a);
  absorb(*root, b);
  EXPECT_TRUE(a->absorbed.empty()) << "a's list moved into root's";

  std::vector<Lba> order;
  auto watch = [&](RequestPtr& r) -> sim::Task {
    co_await r->completion.wait();
    order.push_back(r->first_lba());
  };
  sim.spawn("wa", watch(a));
  sim.spawn("wa1", watch(a1));
  sim.spawn("wb", watch(b));
  sim.run();
  trigger_absorbed(*root);
  sim.run();
  EXPECT_EQ(order, (std::vector<Lba>{1, 2, 3}));
}

}  // namespace
}  // namespace bio::blk
