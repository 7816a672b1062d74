// Tests for epoch-based IO scheduling and barrier reassignment (Fig 5).
#include <gtest/gtest.h>

#include "blk/epoch_scheduler.h"
#include "blk/request_pool.h"
#include "sim/simulator.h"

namespace bio::blk {
namespace {

using flash::Lba;
using flash::Version;
using sim::Simulator;

RequestPtr wr(RequestPool& pool, Lba lba, bool ordered = false,
              bool barrier = false) {
  return pool.make_write({{lba, 1}}, ordered, barrier);
}

TEST(EpochSchedulerTest, PassesThroughWithoutBarriers) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10));
  s.enqueue(wr(pool, 30, true));
  EXPECT_EQ(s.dequeue()->first_lba(), 10u);
  EXPECT_EQ(s.dequeue()->first_lba(), 30u);
  EXPECT_FALSE(s.blocked());
  EXPECT_EQ(s.barrier_reassignments(), 0u);
}

TEST(EpochSchedulerTest, BarrierBlocksQueueAndStagesLaterRequests) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10, true));
  s.enqueue(wr(pool, 30, true, /*barrier=*/true));
  EXPECT_TRUE(s.blocked());
  s.enqueue(wr(pool, 50));  // arrives while blocked: staged
  EXPECT_EQ(s.staged_count(), 1u);
  EXPECT_EQ(s.size(), 3u);
}

TEST(EpochSchedulerTest, BarrierFlagMovesToLastOrderPreservingRequest) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10, true));
  s.enqueue(wr(pool, 30, true, /*barrier=*/true));
  RequestPtr first = s.dequeue();
  EXPECT_EQ(first->first_lba(), 10u);
  EXPECT_FALSE(first->barrier) << "not the last ordered request yet";
  RequestPtr second = s.dequeue();
  EXPECT_EQ(second->first_lba(), 30u);
  EXPECT_TRUE(second->barrier) << "epoch's last ordered request is barrier";
  EXPECT_FALSE(s.blocked());
  EXPECT_EQ(s.barrier_reassignments(), 1u);
}

TEST(EpochSchedulerTest, Fig5ScenarioReassignsBarrierAcrossReordering) {
  // Paper Fig 5: fsync() issues ordered w1, w2 and barrier w4; pdflush
  // issues orderless w3, w5, w6. Arrival: w1 w2 w3 w5 w4^b w6. The elevator
  // reorders; whichever ordered request leaves last carries the barrier.
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  // LBAs chosen so the elevator dispatches w1 last (highest address).
  RequestPtr w1 = wr(pool, 50, true);
  RequestPtr w2 = wr(pool, 10, true);
  RequestPtr w3 = wr(pool, 20);
  RequestPtr w5 = wr(pool, 40);
  RequestPtr w4 = wr(pool, 30, true, /*barrier=*/true);
  RequestPtr w6 = wr(pool, 5);
  s.enqueue(w1);
  s.enqueue(w2);
  s.enqueue(w3);
  s.enqueue(w5);
  s.enqueue(w4);
  EXPECT_TRUE(s.blocked());
  s.enqueue(w6);  // queue is blocked; staged for the next epoch
  EXPECT_EQ(s.staged_count(), 1u);

  std::vector<Lba> dispatch_order;
  std::vector<bool> barrier_flags;
  for (RequestPtr r = s.dequeue(); r != nullptr; r = s.dequeue()) {
    dispatch_order.push_back(r->first_lba());
    barrier_flags.push_back(r->barrier);
  }
  // Elevator order within the epoch: 10,20,30,40,50 then staged w6 (lba 5).
  EXPECT_EQ(dispatch_order,
            (std::vector<Lba>{10, 20, 30, 40, 50, 5}));
  // w4 (lba 30) lost its barrier; w1 (lba 50) carries it now.
  EXPECT_EQ(barrier_flags,
            (std::vector<bool>{false, false, false, false, true, false}));
  EXPECT_EQ(s.barrier_reassignments(), 1u);
}

TEST(EpochSchedulerTest, OrderlessRequestsJoinFollowingEpoch) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10, true, true));  // barrier epoch 0
  s.enqueue(wr(pool, 30));              // staged orderless
  s.enqueue(wr(pool, 50, true));        // staged ordered (next epoch)
  RequestPtr b = s.dequeue();
  EXPECT_TRUE(b->barrier);
  // Unblocked: staged requests entered the base queue.
  EXPECT_EQ(s.staged_count(), 0u);
  EXPECT_EQ(s.dequeue()->first_lba(), 30u);
  EXPECT_EQ(s.dequeue()->first_lba(), 50u);
}

TEST(EpochSchedulerTest, StagedBarrierReblocksQueue) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  // Non-contiguous LBAs so nothing merges.
  s.enqueue(wr(pool, 1, true, true));   // epoch 0 barrier
  s.enqueue(wr(pool, 20, true));        // staged: epoch 1
  s.enqueue(wr(pool, 40, true, true));  // staged: epoch 1 barrier
  s.enqueue(wr(pool, 60, true));        // staged: epoch 2
  RequestPtr b0 = s.dequeue();
  EXPECT_TRUE(b0->barrier);
  EXPECT_TRUE(s.blocked()) << "staged barrier re-blocked the queue";
  EXPECT_EQ(s.staged_count(), 1u) << "lba 60 remains staged behind epoch 1";
  RequestPtr w2 = s.dequeue();
  EXPECT_FALSE(w2->barrier) << "epoch 1 still has an ordered request queued";
  RequestPtr b1 = s.dequeue();
  EXPECT_TRUE(b1->barrier);
  EXPECT_EQ(s.dequeue()->first_lba(), 60u);
  EXPECT_EQ(s.barrier_reassignments(), 2u);
}

TEST(EpochSchedulerTest, ChainOfStagedBarriersUnblocksEpochByEpoch) {
  // Three epochs staged behind one another: each dequeue of a barrier must
  // re-block the queue and admit exactly the next epoch's requests.
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 1, true, true));    // epoch 0 barrier
  s.enqueue(wr(pool, 10, true, true));   // staged: epoch 1 barrier
  s.enqueue(wr(pool, 20, true, true));   // staged: epoch 2 barrier
  s.enqueue(wr(pool, 30, true));         // staged: epoch 3
  EXPECT_EQ(s.staged_count(), 3u);

  RequestPtr b0 = s.dequeue();
  EXPECT_TRUE(b0->barrier);
  EXPECT_TRUE(s.blocked()) << "epoch-1 barrier re-blocked on admission";
  EXPECT_EQ(s.staged_count(), 2u) << "epochs 2 and 3 remain staged";

  RequestPtr b1 = s.dequeue();
  EXPECT_TRUE(b1->barrier);
  EXPECT_EQ(b1->first_lba(), 10u);
  EXPECT_TRUE(s.blocked());
  EXPECT_EQ(s.staged_count(), 1u);

  RequestPtr b2 = s.dequeue();
  EXPECT_TRUE(b2->barrier);
  EXPECT_EQ(b2->first_lba(), 20u);
  EXPECT_FALSE(s.blocked()) << "no staged barrier left";
  EXPECT_EQ(s.dequeue()->first_lba(), 30u);
  EXPECT_EQ(s.barrier_reassignments(), 3u);
}

TEST(EpochSchedulerTest, OrderlessStagedBehindReblockedBarrierEntersBase) {
  // While blocked on a staged barrier, the re-admission loop must admit
  // orderless requests into the base queue (they are epoch-free) but hold
  // back everything behind the next staged barrier.
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 1, true, true));    // epoch 0 barrier
  s.enqueue(wr(pool, 20));               // staged orderless
  s.enqueue(wr(pool, 40, true, true));   // staged: epoch 1 barrier
  s.enqueue(wr(pool, 60));               // staged behind the epoch-1 barrier

  RequestPtr b0 = s.dequeue();
  EXPECT_TRUE(b0->barrier);
  EXPECT_TRUE(s.blocked()) << "epoch-1 barrier re-blocked the queue";
  // The orderless lba-20 request and the (stripped) barrier write joined
  // the base queue; lba 60 is still staged behind the re-blocking barrier.
  EXPECT_EQ(s.staged_count(), 1u);
  EXPECT_EQ(s.dequeue()->first_lba(), 20u);
  RequestPtr b1 = s.dequeue();
  EXPECT_EQ(b1->first_lba(), 40u);
  EXPECT_TRUE(b1->barrier);
  EXPECT_FALSE(s.blocked());
  EXPECT_EQ(s.dequeue()->first_lba(), 60u);
  EXPECT_EQ(s.dequeue(), nullptr);
}

TEST(EpochSchedulerTest, SizeCountsBaseAndStagedThroughReblocking) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 1, true, true));
  s.enqueue(wr(pool, 10, true, true));
  s.enqueue(wr(pool, 20, true));
  EXPECT_EQ(s.size(), 3u);
  (void)s.dequeue();  // epoch 0 barrier out; epoch-1 barrier re-blocks
  EXPECT_TRUE(s.blocked());
  EXPECT_EQ(s.size(), 2u) << "one in base (stripped barrier), one staged";
  (void)s.dequeue();
  EXPECT_EQ(s.size(), 1u);
  (void)s.dequeue();
  EXPECT_EQ(s.size(), 0u);
}

TEST(EpochSchedulerTest, StagedBarrierMayMergeIntoItsOwnEpoch) {
  // Contiguous LBAs: the epoch-1 barrier write merges with the epoch-1
  // request ahead of it. That is legal — both belong to one epoch — and the
  // merged request carries the barrier out.
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 1, true, true));  // epoch 0 barrier
  s.enqueue(wr(pool, 2, true));        // staged: epoch 1
  s.enqueue(wr(pool, 3, true, true));  // staged: epoch 1 barrier (contiguous)
  RequestPtr b0 = s.dequeue();
  EXPECT_TRUE(b0->barrier);
  RequestPtr merged = s.dequeue();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->blocks.size(), 2u);
  EXPECT_TRUE(merged->barrier) << "merged epoch-1 request is the barrier";
  EXPECT_EQ(s.dequeue(), nullptr);
}

TEST(EpochSchedulerTest, BackToBackBarriers) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  for (int i = 0; i < 4; ++i) s.enqueue(wr(pool, 10 + i, true, true));
  for (int i = 0; i < 4; ++i) {
    RequestPtr r = s.dequeue();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->barrier) << "singleton epochs keep their barrier";
  }
  EXPECT_EQ(s.dequeue(), nullptr);
}

TEST(EpochSchedulerTest, MergingWithinEpochKeepsSingleBarrier) {
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10, true));
  s.enqueue(wr(pool, 11, true));       // merges with 10
  s.enqueue(wr(pool, 20, true, true)); // barrier
  RequestPtr merged = s.dequeue();
  EXPECT_EQ(merged->blocks.size(), 2u);
  EXPECT_FALSE(merged->barrier);
  RequestPtr b = s.dequeue();
  EXPECT_TRUE(b->barrier);
}

// ---- cross-queue fence bookkeeping (multi-queue stacks) --------------------

constexpr std::uint64_t kNoPending = ~std::uint64_t{0};

TEST(EpochFenceTest, StampsEveryRequestAndClosesEpochsAtBarriers) {
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr w1 = wr(pool, 10, true);
  RequestPtr b = wr(pool, 30, true, /*barrier=*/true);
  RequestPtr w2 = wr(pool, 50, true);
  RequestPtr orderless = wr(pool, 70);
  RequestPtr rd = pool.make_read(90);
  s.enqueue(w1);
  s.enqueue(b);
  s.enqueue(w2);         // staged behind the barrier, but stamped at enqueue
  s.enqueue(orderless);  // stamped too: epoch order must match enqueue order
  s.enqueue(rd);
  EXPECT_EQ(w1->fence_epoch, 0u);
  EXPECT_EQ(b->fence_epoch, 0u) << "a barrier takes the epoch it closes";
  EXPECT_EQ(w2->fence_epoch, 1u) << "post-barrier enqueue joins the new epoch";
  EXPECT_EQ(orderless->fence_epoch, 1u)
      << "orderless writes carry the open epoch, never a stale 0";
  EXPECT_EQ(rd->fence_epoch, 1u) << "reads are stamped for device fencing";
  EXPECT_EQ(fence.epochs_closed(), 1u);
  EXPECT_EQ(fence.current(), 1u);
}

TEST(EpochFenceTest, MinPendingTracksEnqueueToSubmission) {
  // A stamp gates peer barriers from enqueue until note_submitted() — in
  // particular, a request popped from the scheduler but not yet accepted by
  // the device must still count as pending.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending) << "idle queue";

  s.enqueue(wr(pool, 10, true, /*barrier=*/true));  // epoch 0
  s.enqueue(wr(pool, 30, true));                    // staged, epoch 1
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u);

  RequestPtr b = s.dequeue();
  EXPECT_TRUE(b->barrier);
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "popped is not submitted";
  s.note_submitted(*b);
  EXPECT_EQ(s.min_pending_fence_epoch(), 1u) << "epoch-1 write still queued";

  RequestPtr w = s.dequeue();
  s.note_submitted(*w);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, OrderlessWritesGateUntilSubmission) {
  // Orderless writes are tracked too: a merge can fold ordered payload into
  // one (§3.3 keeps merges ordering-preserving), so every write must gate
  // peer barriers from enqueue until it reaches the device.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  s.enqueue(wr(pool, 10));
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u);
  RequestPtr r = s.dequeue();
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "popped is not submitted";
  s.note_submitted(*r);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, ReadsAreStampedButNeverGate) {
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr rd = pool.make_read(10);
  s.enqueue(rd);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
  RequestPtr r = s.dequeue();
  s.note_submitted(*r);  // must be a no-op, not an untracked-stamp failure
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, FencedBarrierIsHeldNotReassigned) {
  // The last ordered request of the closing window was enqueued under an
  // older epoch than the barrier (a peer queue's barrier closed an epoch in
  // between). Reassigning the flag onto it would make one command both
  // old-epoch data (must transfer before the intervening peer barrier) and
  // the new epoch's delimiter (must transfer after that barrier's payload).
  // Under a fence the barrier is therefore held aside: the older write
  // dispatches first with its true stamp, then the barrier with its own.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr w = wr(pool, 50, true);  // stamped with epoch 0
  s.enqueue(w);
  (void)fence.close_epoch();  // a peer queue's barrier closes epoch 0
  RequestPtr b = wr(pool, 10, true, /*barrier=*/true);  // closes epoch 1
  s.enqueue(b);
  EXPECT_EQ(b->fence_epoch, 1u);
  EXPECT_TRUE(s.blocked());

  RequestPtr first = s.dequeue();
  EXPECT_EQ(first->first_lba(), 50u) << "epoch-0 write drains first";
  EXPECT_FALSE(first->barrier) << "the flag never migrates under a fence";
  EXPECT_EQ(first->fence_epoch, 0u) << "and it keeps its true stamp";
  RequestPtr barrier = s.dequeue();
  EXPECT_EQ(barrier->first_lba(), 10u);
  EXPECT_TRUE(barrier->barrier);
  EXPECT_EQ(barrier->fence_epoch, 1u);
  EXPECT_FALSE(s.blocked());
  EXPECT_EQ(s.barrier_reassignments(), 0u);
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "both popped, none submitted";
  s.note_submitted(*first);
  EXPECT_EQ(s.min_pending_fence_epoch(), 1u)
      << "the old stamp gated peers until the write reached the device";
  s.note_submitted(*barrier);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, HeldBarrierWaitsForOrderlessWritesToo) {
  // The held barrier leaves only once the base queue fully drained: an
  // orderless write enqueued before the barrier holds a (tracked) stamp,
  // and letting the barrier jump it would let a lower-epoch peer barrier
  // gate on work stuck behind this queue's own gating barrier — a cycle.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  s.enqueue(wr(pool, 10));                       // orderless, epoch 0
  s.enqueue(wr(pool, 30, true, /*barrier=*/true));  // closes epoch 0
  RequestPtr first = s.dequeue();
  EXPECT_EQ(first->first_lba(), 10u) << "orderless write leaves first";
  RequestPtr b = s.dequeue();
  EXPECT_TRUE(b->barrier);
  EXPECT_EQ(b->first_lba(), 30u);
}

TEST(EpochFenceTest, MergingNeverCrossesFenceEpochs) {
  // Two contiguous writes separated by a peer queue's epoch close: merging
  // them would give both payloads one stamp — either promoting old-epoch
  // data past the peer barrier or pulling new-epoch data below it. The
  // merge must be refused; both dispatch (and retire) independently.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr w1 = wr(pool, 10, true);  // epoch 0
  s.enqueue(w1);
  (void)fence.close_epoch();          // peer barrier closes epoch 0
  RequestPtr w2 = wr(pool, 11, true);  // contiguous, but epoch 1
  s.enqueue(w2);
  EXPECT_EQ(s.size(), 2u) << "cross-epoch merge refused";
  RequestPtr a = s.dequeue();
  RequestPtr b = s.dequeue();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->fence_epoch, 0u);
  EXPECT_EQ(b->fence_epoch, 1u);
  s.note_submitted(*a);
  EXPECT_EQ(s.min_pending_fence_epoch(), 1u);
  s.note_submitted(*b);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, FrontMergeAcrossEpochsRefused) {
  // Elevator front-merge absorbs the *earlier*-enqueued request into the
  // later one. Across a peer epoch close that would retire the absorbed
  // (lower) stamp at carrier dequeue — before any data reaches the device —
  // and transfer the old-epoch payload under the new stamp. Refused.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr w1 = wr(pool, 11, true);  // epoch 0
  s.enqueue(w1);
  (void)fence.close_epoch();          // peer barrier closes epoch 0
  RequestPtr w2 = wr(pool, 10, true);  // front-merge candidate, epoch 1
  s.enqueue(w2);
  EXPECT_EQ(s.size(), 2u) << "cross-epoch front-merge refused";
  RequestPtr a = s.dequeue();
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->absorbed.empty());
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u)
      << "the epoch-0 stamp still gates peers";
}

TEST(EpochFenceTest, OrderlessCarrierAbsorbingOrderedRetiresCleanly) {
  // An orderless write absorbs a same-epoch ordered write (§3.3 merges keep
  // ordering: the carrier turns ordered). Both stamps are tracked, so the
  // absorbed one retires at dequeue and the carrier's at submission — no
  // untracked-stamp abort, no peer gate opening early.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  RequestPtr carrier = wr(pool, 10);     // orderless, epoch 0
  RequestPtr ordered = wr(pool, 11, true);  // merges into lba 10
  s.enqueue(carrier);
  s.enqueue(ordered);
  EXPECT_EQ(s.size(), 1u) << "same-epoch merge allowed";
  RequestPtr merged = s.dequeue();
  ASSERT_NE(merged, nullptr);
  EXPECT_TRUE(merged->ordered) << "merge keeps ordering";
  EXPECT_EQ(merged->blocks.size(), 2u);
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "carrier still pending";
  s.note_submitted(*merged);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, AbsorbedStampsRetireWithTheirCarrier) {
  // A merged request leaves the queue inside its carrier: its stamp retires
  // at dequeue (it can never be submitted on its own), and only the
  // carrier's own stamp stays pending until submission.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  s.enqueue(wr(pool, 10, true));
  s.enqueue(wr(pool, 11, true));  // merges into lba 10
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u);
  RequestPtr merged = s.dequeue();
  ASSERT_EQ(merged->blocks.size(), 2u);
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "carrier still pending";
  s.note_submitted(*merged);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending)
      << "absorbed stamp retired at dequeue, carrier stamp at submission";
}

TEST(EpochFenceTest, NestedFrontMergesRetireEveryStampOnce) {
  // Front-merges absorb carriers that already hold merged requests; the
  // surviving carrier leaves with four absorbed stamps, each retired once at
  // dequeue, and its own at submission. A later-epoch write shows the
  // epoch-0 count reaching exactly zero.
  Simulator sim;
  RequestPool pool(sim);
  EpochFence fence(sim);
  EpochScheduler s;
  s.set_fence(&fence);
  s.enqueue(wr(pool, 20, true));
  s.enqueue(wr(pool, 21));        // back-merges into 20
  s.enqueue(wr(pool, 19, true));  // front-merges, absorbing 20
  s.enqueue(wr(pool, 18));        // front-merges, absorbing 19
  s.enqueue(wr(pool, 22, true));  // back-merges into 18
  (void)fence.close_epoch();      // a peer barrier closes epoch 0
  s.enqueue(wr(pool, 100));       // epoch 1
  RequestPtr carrier = s.dequeue();
  ASSERT_EQ(carrier->first_lba(), 18u);
  EXPECT_EQ(carrier->absorbed.size(), 4u) << "one flat list";
  EXPECT_EQ(s.min_pending_fence_epoch(), 0u) << "carrier still pending";
  s.note_submitted(*carrier);
  EXPECT_EQ(s.min_pending_fence_epoch(), 1u) << "epoch 0 fully retired";
  RequestPtr later = s.dequeue();
  ASSERT_EQ(later->first_lba(), 100u);
  s.note_submitted(*later);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

TEST(EpochFenceTest, WithoutFenceNothingIsStampedOrTracked) {
  // Single-queue stacks attach no fence: requests keep epoch 0 and the
  // pending map stays empty — the bit-identity precondition.
  Simulator sim;
  RequestPool pool(sim);
  EpochScheduler s;
  s.enqueue(wr(pool, 10, true));
  s.enqueue(wr(pool, 30, true, /*barrier=*/true));
  RequestPtr w = s.dequeue();
  RequestPtr b = s.dequeue();
  EXPECT_EQ(w->fence_epoch, 0u);
  EXPECT_EQ(b->fence_epoch, 0u);
  EXPECT_EQ(s.min_pending_fence_epoch(), kNoPending);
}

}  // namespace
}  // namespace bio::blk
