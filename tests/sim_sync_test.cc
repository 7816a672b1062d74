// Tests for Event, Semaphore, Notify and the WaitQueue they park on.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::sim {
namespace {

using namespace bio::sim::literals;

TEST(EventTest, WaitReturnsImmediatelyWhenSet) {
  Simulator sim;
  Event ev(sim);
  ev.trigger();
  bool done = false;
  auto body = [&]() -> Task {
    co_await ev.wait();
    done = true;
  };
  const Thread t = sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(t->context_switches, 0u) << "no block, no context switch";
}

TEST(EventTest, TriggerWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  int woken = 0;
  auto waiter = [&]() -> Task {
    co_await ev.wait();
    ++woken;
  };
  sim.spawn("w0", waiter());
  sim.spawn("w1", waiter());
  sim.spawn("w2", waiter());
  auto trigger = [&]() -> Task {
    co_await sim.delay(10_us);
    ev.trigger();
  };
  sim.spawn("t", trigger());
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(EventTest, WaitBlocksUntilTrigger) {
  Simulator sim;
  Event ev(sim);
  SimTime woke_at = 0;
  auto waiter = [&]() -> Task {
    co_await ev.wait();
    woke_at = sim.now();
  };
  const Thread w = sim.spawn("w", waiter());
  auto trigger = [&]() -> Task {
    co_await sim.delay(25_us);
    ev.trigger();
  };
  sim.spawn("t", trigger());
  sim.run();
  EXPECT_EQ(woke_at, 25_us);
  EXPECT_EQ(w->context_switches, 1u);
}

TEST(EventTest, DoubleTriggerIsIdempotent) {
  Simulator sim;
  Event ev(sim);
  ev.trigger();
  ev.trigger();
  EXPECT_TRUE(ev.is_set());
}

TEST(EventTest, ResetReArms) {
  Simulator sim;
  Event ev(sim);
  ev.trigger();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

TEST(SemaphoreTest, TryAcquireConsumesPermits) {
  Simulator sim;
  Semaphore sem(sim, 2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(SemaphoreTest, AcquireBlocksWhenExhausted) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto holder = [&]() -> Task {
    co_await sem.acquire();
    order.push_back(1);
    co_await sim.delay(20_us);
    sem.release();
    order.push_back(2);
  };
  auto contender = [&]() -> Task {
    co_await sim.delay(1_us);
    co_await sem.acquire();
    order.push_back(3);
    sem.release();
  };
  sim.spawn("h", holder());
  sim.spawn("c", contender());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SemaphoreTest, FifoHandoffOrder) {
  Simulator sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto waiter = [&](int id) -> Task {
    co_await sem.acquire();
    order.push_back(id);
  };
  sim.spawn("w0", waiter(0));
  sim.spawn("w1", waiter(1));
  sim.spawn("w2", waiter(2));
  auto releaser = [&]() -> Task {
    co_await sim.delay(5_us);
    sem.release(3);
  };
  sim.spawn("r", releaser());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SemaphoreTest, HandoffPreventsBarging) {
  Simulator sim;
  Semaphore sem(sim, 0);
  bool waiter_got_it = false;
  auto waiter = [&]() -> Task {
    co_await sem.acquire();
    waiter_got_it = true;
  };
  sim.spawn("w", waiter());
  auto releaser = [&]() -> Task {
    co_await sim.delay(5_us);
    sem.release();
    // Released permit was handed to the waiter; it is not stealable even
    // though the waiter has not resumed yet.
    EXPECT_FALSE(sem.try_acquire());
  };
  sim.spawn("r", releaser());
  sim.run();
  EXPECT_TRUE(waiter_got_it);
}

TEST(SemaphoreTest, ReleaseBeyondWaitersIncreasesCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.release(5);
  EXPECT_EQ(sem.available(), 5u);
}

TEST(NotifyTest, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  Notify n(sim);
  int woken = 0;
  auto waiter = [&]() -> Task {
    co_await n.wait();
    ++woken;
  };
  sim.spawn("w0", waiter());
  sim.spawn("w1", waiter());
  auto notifier = [&]() -> Task {
    co_await sim.delay(10_us);
    EXPECT_EQ(n.waiting(), 2u);
    n.notify_all();
  };
  sim.spawn("n", notifier());
  sim.run();
  EXPECT_EQ(woken, 2);
}

TEST(NotifyTest, WaitAlwaysBlocksEvenAfterPastNotify) {
  Simulator sim;
  Notify n(sim);
  n.notify_all();  // no one waiting: lost by design
  bool woke = false;
  auto waiter = [&]() -> Task {
    co_await n.wait();
    woke = true;
  };
  sim.spawn("w", waiter());
  sim.run();
  EXPECT_FALSE(woke) << "Notify has no memory";
}

// Same-instant wake order: four threads parked at one instant on an
// Event, a Notify, a Semaphore and a join each resume in park order, after
// exactly one context switch. This is the order any future same-instant
// chooser must reproduce by default.
TEST(WaitQueueTest, SameInstantWaitersResumeInParkOrder) {
  enum Kind { kEvent, kNotify, kSemaphore, kJoin, kKinds };
  Simulator sim;
  Event ev(sim);
  Notify n(sim);
  Semaphore sem(sim, 0);
  auto target_body = [&]() -> Task { co_await sim.delay(10_us); };
  const Thread target = sim.spawn("target", target_body());

  std::array<std::vector<int>, kKinds> parked, woke;
  auto waiter = [&](Kind kind, int id) -> Task {
    parked[kind].push_back(id);
    switch (kind) {
      case kEvent: co_await ev.wait(); break;
      case kNotify: co_await n.wait(); break;
      case kSemaphore: co_await sem.acquire(); break;
      default: co_await sim.join(target); break;
    }
    woke[kind].push_back(id);
  };
  std::vector<Thread> waiters;
  // Ids deliberately out of order: the contract is park order, not id.
  for (int id : {2, 0, 3, 1})
    for (int kind = 0; kind < kKinds; ++kind)
      waiters.push_back(sim.spawn("w", waiter(static_cast<Kind>(kind), id)));
  auto waker = [&]() -> Task {
    co_await sim.delay(10_us);
    ev.trigger();
    n.notify_all();
    for (int i = 0; i < 4; ++i) sem.release();
  };
  sim.spawn("waker", waker());
  sim.run();

  for (int kind = 0; kind < kKinds; ++kind) {
    EXPECT_EQ(parked[kind], (std::vector<int>{2, 0, 3, 1})) << kind;
    EXPECT_EQ(woke[kind], parked[kind]) << kind;
  }
  for (const Thread& w : waiters) {
    EXPECT_EQ(w->blocks, 1u);
    EXPECT_EQ(w->context_switches, 1u);
  }
}

}  // namespace
}  // namespace bio::sim
