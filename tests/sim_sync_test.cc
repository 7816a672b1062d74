// Tests for Event, Semaphore, Mutex, Notify and Channel.
#include <gtest/gtest.h>

#include <optional>
#include <string>
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

TEST(MutexTest, MutualExclusionIsSerialized) {
  Simulator sim;
  Mutex mtx(sim);
  int inside = 0;
  int max_inside = 0;
  auto body = [&]() -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await mtx.lock();
      ++inside;
      max_inside = std::max(max_inside, inside);
      co_await sim.delay(3_us);
      --inside;
      mtx.unlock();
    }
  };
  sim.spawn("a", body());
  sim.spawn("b", body());
  sim.run();
  EXPECT_EQ(max_inside, 1);
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

TEST(NotifyTest, NotifyOneWakesOldestWaiter) {
  Simulator sim;
  Notify n(sim);
  std::vector<int> woken;
  auto waiter = [&](int id) -> Task {
    co_await n.wait();
    woken.push_back(id);
  };
  sim.spawn("w0", waiter(0));
  sim.spawn("w1", waiter(1));
  auto notifier = [&]() -> Task {
    co_await sim.delay(10_us);
    n.notify_one();
    co_await sim.delay(10_us);
    n.notify_one();
  };
  sim.spawn("n", notifier());
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1}));
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

TEST(ChannelTest, PushPopTransfersValues) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  std::vector<int> got;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 5; ++i) co_await ch.push(i);
    ch.close();
  };
  auto consumer = [&]() -> Task {
    for (;;) {
      std::optional<int> v = co_await ch.pop();
      if (!v) break;
      got.push_back(*v);
    }
  };
  sim.spawn("p", producer());
  sim.spawn("c", consumer());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, PushBlocksWhenFull) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  SimTime second_push_done = 0;
  auto producer = [&]() -> Task {
    co_await ch.push(1);
    co_await ch.push(2);  // blocks until consumer pops
    second_push_done = sim.now();
  };
  auto consumer = [&]() -> Task {
    co_await sim.delay(30_us);
    std::optional<int> v = co_await ch.pop();
    EXPECT_EQ(v, 1);
  };
  sim.spawn("p", producer());
  sim.spawn("c", consumer());
  sim.run();
  EXPECT_EQ(second_push_done, 30_us);
}

TEST(ChannelTest, PopBlocksWhenEmptyAndGetsHandoff) {
  Simulator sim;
  Channel<std::string> ch(sim, 2);
  std::optional<std::string> got;
  SimTime got_at = 0;
  auto consumer = [&]() -> Task {
    got = co_await ch.pop();
    got_at = sim.now();
  };
  auto producer = [&]() -> Task {
    co_await sim.delay(12_us);
    co_await ch.push("hello");
  };
  sim.spawn("c", consumer());
  sim.spawn("p", producer());
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(got_at, 12_us);
}

TEST(ChannelTest, CloseWakesBlockedPopper) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  bool saw_close = false;
  auto consumer = [&]() -> Task {
    std::optional<int> v = co_await ch.pop();
    saw_close = !v.has_value();
  };
  auto closer = [&]() -> Task {
    co_await sim.delay(5_us);
    ch.close();
  };
  sim.spawn("c", consumer());
  sim.spawn("x", closer());
  sim.run();
  EXPECT_TRUE(saw_close);
}

TEST(ChannelTest, HandoffPreservesFifoAcrossBlockedPushers) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  std::vector<int> got;
  auto producer = [&](int base) -> Task {
    co_await ch.push(base);
  };
  auto primer = [&]() -> Task { co_await ch.push(0); };
  sim.spawn("p0", primer());    // fills capacity
  sim.spawn("p1", producer(1)); // blocks
  sim.spawn("p2", producer(2)); // blocks
  auto consumer = [&]() -> Task {
    co_await sim.delay(10_us);
    for (int i = 0; i < 3; ++i) {
      std::optional<int> v = co_await ch.pop();
      EXPECT_TRUE(v.has_value());  // ASSERT_* cannot be used in coroutines
      if (v) got.push_back(*v);
    }
  };
  sim.spawn("c", consumer());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(ChannelTest, BlockedPopCountsOneContextSwitch) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  auto consumer = [&]() -> Task { (void)co_await ch.pop(); };
  const Thread c = sim.spawn("c", consumer());
  auto producer = [&]() -> Task {
    co_await sim.delay(5_us);
    co_await ch.push(7);
  };
  sim.spawn("p", producer());
  sim.run();
  EXPECT_EQ(c->context_switches, 1u);
}

}  // namespace
}  // namespace bio::sim
