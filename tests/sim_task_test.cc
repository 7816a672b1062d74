// Tests for the coroutine task machinery and the event loop.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bio::sim {
namespace {

using namespace bio::sim::literals;

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_FALSE(sim.has_pending_events());
}

TEST(SimulatorTest, DelayAdvancesTime) {
  Simulator sim;
  SimTime observed = kSimTimeMax;
  auto body = [&]() -> Task {
    co_await sim.delay(15_us);
    observed = sim.now();
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(observed, 15_us);
  EXPECT_EQ(sim.now(), 15_us);
}

TEST(SimulatorTest, SequentialDelaysAccumulate) {
  Simulator sim;
  std::vector<SimTime> stamps;
  auto body = [&]() -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await sim.delay(10_us);
      stamps.push_back(sim.now());
    }
  };
  sim.spawn("t", body());
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 10_us);
  EXPECT_EQ(stamps[1], 20_us);
  EXPECT_EQ(stamps[2], 30_us);
}

TEST(SimulatorTest, TwoThreadsInterleaveByTimestamp) {
  Simulator sim;
  std::vector<int> order;
  auto mk = [&](int id, SimTime step) -> Task {
    for (int i = 0; i < 2; ++i) {
      co_await sim.delay(step);
      order.push_back(id);
    }
  };
  sim.spawn("a", mk(1, 10_us));
  sim.spawn("b", mk(2, 15_us));
  sim.run();
  // a@10, b@15, a@20, b@30.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(SimulatorTest, SameTimestampRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  auto mk = [&](int id) -> Task {
    co_await sim.delay(5_us);
    order.push_back(id);
  };
  sim.spawn("a", mk(1));
  sim.spawn("b", mk(2));
  sim.spawn("c", mk(3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, AwaitedChildRunsInline) {
  Simulator sim;
  std::vector<std::string> log;
  auto child = [&]() -> Task {
    log.push_back("child-start");
    co_await sim.delay(5_us);
    log.push_back("child-end");
  };
  auto parent = [&]() -> Task {
    log.push_back("parent-start");
    co_await child();
    log.push_back("parent-end");
  };
  sim.spawn("p", parent());
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(SimulatorTest, NestedChildrenPropagateTime) {
  Simulator sim;
  auto leaf = [&]() -> Task { co_await sim.delay(7_us); };
  auto mid = [&]() -> Task {
    co_await leaf();
    co_await leaf();
  };
  auto root = [&]() -> Task {
    co_await mid();
    co_await sim.delay(1_us);
  };
  sim.spawn("r", root());
  sim.run();
  EXPECT_EQ(sim.now(), 15_us);
}

TEST(SimulatorTest, ExceptionInChildPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  auto child = [&]() -> Task {
    co_await sim.delay(1_us);
    throw std::runtime_error("boom");
  };
  auto parent = [&]() -> Task {
    try {
      co_await child();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  sim.spawn("p", parent());
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(SimulatorTest, ExceptionInTopLevelRethrownFromRun) {
  Simulator sim;
  auto body = [&]() -> Task {
    co_await sim.delay(1_us);
    throw std::runtime_error("unhandled");
  };
  sim.spawn("t", body());
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTest, RunUntilStopsAtRequestedTime) {
  Simulator sim;
  int ticks = 0;
  auto body = [&]() -> Task {
    for (int i = 0; i < 100; ++i) {
      co_await sim.delay(10_us);
      ++ticks;
    }
  };
  sim.spawn("t", body());
  sim.run_until(35_us);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.now(), 35_us);
  EXPECT_TRUE(sim.has_pending_events());
  sim.run();
  EXPECT_EQ(ticks, 100);
}

TEST(SimulatorTest, RunUntilAdvancesTimeEvenWithNoEvents) {
  Simulator sim;
  sim.run_until(1_ms);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(SimulatorTest, StopBreaksRunLoop) {
  Simulator sim;
  int count = 0;
  auto body = [&]() -> Task {
    for (;;) {
      co_await sim.delay(1_us);
      if (++count == 5) sim.stop();
    }
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(sim.has_pending_events());
}

TEST(SimulatorTest, RunUntilAfterStopKeepsTimeMonotonic) {
  // stop() ends run_until(t) with resumes still due before t: time must
  // stay at the stopping event, not jump to t and later run backwards.
  Simulator sim;
  std::vector<SimTime> stamps;
  auto body = [&]() -> Task {
    for (;;) {
      co_await sim.delay(1_us);
      stamps.push_back(sim.now());
      if (stamps.size() % 3 == 0) sim.stop();
    }
  };
  sim.spawn("t", body());
  sim.run_until(10_us);
  EXPECT_EQ(sim.now(), 3_us);
  EXPECT_TRUE(sim.has_pending_events());
  sim.run_until(10_us);
  EXPECT_EQ(stamps, (std::vector<SimTime>{1_us, 2_us, 3_us, 4_us, 5_us, 6_us}));
  EXPECT_EQ(sim.now(), 6_us);
  sim.run_until(10_us);
  sim.run_until(10_us);
  EXPECT_EQ(stamps.size(), 10u);
  EXPECT_EQ(stamps.back(), 10_us);
  EXPECT_EQ(sim.now(), 10_us);
}

TEST(SimulatorTest, DueResumesRunBeforeSameInstantSchedules) {
  // At 10 us, the resumes scheduled at time 0 for 10 us run first, in
  // schedule order; then everything scheduled during 10 us (wakes and
  // yields), in schedule order.
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  auto waiter = [&](int id) -> Task {
    co_await ev.wait();
    order.push_back(id);
  };
  auto sleeper = [&](int id) -> Task {
    co_await sim.delay(10_us);
    order.push_back(id);
    if (id == 1) ev.trigger();
    co_await sim.yield();
    order.push_back(id + 10);
  };
  for (int id = 1; id <= 3; ++id) sim.spawn("s", sleeper(id));
  sim.spawn("w", waiter(4));
  sim.spawn("w", waiter(5));
  sim.run_until(9_us);
  const std::uint64_t events_before = sim.events_dispatched();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 11, 12, 13}));
  EXPECT_EQ(sim.now(), 10_us);
  EXPECT_EQ(sim.events_dispatched() - events_before, 8u);
}

TEST(SimulatorTest, StopMidInstantLeavesTheRestPending) {
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  auto waiter = [&](int id) -> Task {
    co_await ev.wait();
    order.push_back(id);
  };
  auto sleeper = [&](int id) -> Task {
    co_await sim.delay(5_us);
    order.push_back(id);
    if (id == 1) {
      ev.trigger();
      sim.stop();
    }
  };
  for (int id = 1; id <= 3; ++id) sim.spawn("s", sleeper(id));
  sim.spawn("w", waiter(4));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 5_us);
  EXPECT_TRUE(sim.has_pending_events());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 5_us);
  EXPECT_FALSE(sim.has_pending_events());
}

TEST(SimulatorTest, RunUntilBeforeNowDispatchesNothing) {
  Simulator sim;
  sim.run_until(10_us);
  bool ran = false;
  auto body = [&]() -> Task {
    ran = true;
    co_await sim.delay(5_us);
  };
  sim.spawn("t", body());
  const std::uint64_t events_before = sim.events_dispatched();
  sim.run_until(5_us);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), 10_us);
  EXPECT_EQ(sim.events_dispatched(), events_before);
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 15_us);
}

TEST(SimulatorTest, SameInstantResumesKeepScheduleOrderPastManyEntries) {
  // 60 threads each spawn a child and yield at time 0, so over a hundred
  // resumes are pending at one instant: they still run in schedule order.
  Simulator sim;
  std::vector<int> order;
  auto child = [&](int id) -> Task {
    order.push_back(1000 + id);
    co_return;
  };
  auto parent = [&](int id) -> Task {
    order.push_back(id);
    sim.spawn("c", child(id));
    co_await sim.yield();
    order.push_back(2000 + id);
  };
  constexpr int kThreads = 60;
  for (int id = 0; id < kThreads; ++id) sim.spawn("p", parent(id));
  sim.run();
  std::vector<int> expected;
  for (int id = 0; id < kThreads; ++id) expected.push_back(id);
  for (int id = 0; id < kThreads; ++id) {
    expected.push_back(1000 + id);
    expected.push_back(2000 + id);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulatorTest, JoinWaitsForThreadCompletion) {
  Simulator sim;
  SimTime joined_at = 0;
  auto worker = [&]() -> Task { co_await sim.delay(50_us); };
  const Thread w = sim.spawn("worker", worker());
  auto waiter = [&]() -> Task {
    co_await sim.join(w);
    joined_at = sim.now();
  };
  sim.spawn("waiter", waiter());
  sim.run();
  EXPECT_GE(joined_at, 50_us);
  EXPECT_TRUE(w->finished);
}

TEST(SimulatorTest, JoinOnFinishedThreadIsImmediate) {
  Simulator sim;
  auto worker = [&]() -> Task { co_await sim.delay(1_us); };
  const Thread w = sim.spawn("worker", worker());
  sim.run();
  bool joined = false;
  auto waiter = [&]() -> Task {
    co_await sim.join(w);
    joined = true;
  };
  sim.spawn("waiter", waiter());
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(SimulatorTest, JoinCountsAsContextSwitch) {
  Simulator sim;
  auto worker = [&]() -> Task { co_await sim.delay(50_us); };
  const Thread w = sim.spawn("worker", worker());
  auto waiter = [&]() -> Task { co_await sim.join(w); };
  const Thread wt = sim.spawn("waiter", waiter());
  sim.run();
  EXPECT_EQ(wt->context_switches, 1u);
  EXPECT_EQ(wt->blocks, 1u);
  // Pure delays never count as context switches.
  EXPECT_EQ(w->context_switches, 0u);
}

TEST(SimulatorTest, WakeLatencyChargedOnWakeup) {
  Simulator sim({.wake_latency = 5_us});
  SimTime joined_at = 0;
  auto worker = [&]() -> Task { co_await sim.delay(50_us); };
  const Thread w = sim.spawn("worker", worker());
  auto waiter = [&]() -> Task {
    co_await sim.join(w);
    joined_at = sim.now();
  };
  sim.spawn("waiter", waiter());
  sim.run();
  EXPECT_EQ(joined_at, 55_us);
}

TEST(ThreadTest, HeldHandleOutlivesRecyclingOfOtherContexts) {
  Simulator sim;
  Event ev(sim);
  auto waiter = [&]() -> Task { co_await ev.wait(); };
  const Thread held = sim.spawn("held", waiter());
  auto trigger = [&]() -> Task {
    co_await sim.delay(1_us);
    ev.trigger();
  };
  sim.spawn("t", trigger());
  sim.run();
  ASSERT_TRUE(held->finished);
  const std::uint64_t held_id = held->id;
  // 1,000 later short-lived spawns with discarded handles cycle through
  // the recycled contexts; the held one is never among them.
  int ran = 0;
  auto quick = [&]() -> Task {
    ++ran;
    co_await sim.delay(1_us);
  };
  for (int i = 0; i < 1000; ++i) {
    const Thread t = sim.spawn("quick", quick());
    EXPECT_NE(&*t, &*held);
    sim.run();
  }
  EXPECT_EQ(ran, 1000);
  EXPECT_TRUE(held->finished);
  EXPECT_EQ(held->id, held_id);
  EXPECT_EQ(held->context_switches, 1u);
  EXPECT_EQ(held->blocks, 1u);
  EXPECT_EQ(held->name, "held");
  // join on the finished thread returns at once: no block, no sleep.
  bool joined = false;
  auto joiner = [&]() -> Task {
    co_await sim.join(held);
    joined = true;
  };
  const Thread j = sim.spawn("joiner", joiner());
  const SimTime t0 = sim.now();
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(sim.now(), t0);
  EXPECT_EQ(j->blocks, 0u);
}

TEST(ThreadTest, RecycledContextGetsNextSpawnOrdinal) {
  Simulator sim;
  auto quick = [&]() -> Task { co_await sim.delay(1_us); };
  ThreadCtx* first = nullptr;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Thread t = sim.spawn("q", quick());
    if (first == nullptr) first = &*t;
    // One live thread at a time: every spawn after the first reuses the
    // first spawn's context, yet ids keep counting spawns.
    EXPECT_EQ(&*t, first);
    EXPECT_EQ(t->id, i);
    EXPECT_FALSE(t->finished);
    EXPECT_EQ(t->context_switches, 0u);
    sim.run();
    EXPECT_TRUE(t->finished);
  }
}

TEST(ThreadTest, FrameDestroyedByTeardownUnpinsSafely) {
  auto sim = std::make_unique<Simulator>();
  Simulator& s = *sim;
  auto quick = [&s]() -> Task { co_await s.delay(1_us); };
  auto immortal = [&s](Thread finished, Thread running) -> Task {
    (void)finished;
    (void)running;
    for (;;) co_await s.delay(1_ms);
  };
  Thread done = s.spawn("done", quick());
  Thread peer = s.spawn("peer", immortal(Thread(), Thread()));
  s.run_until(10_us);
  ASSERT_TRUE(done->finished);
  // The holder's frame owns the only handles to a finished context (which
  // teardown's unpin recycles) and to a still-suspended one.
  s.spawn("holder", immortal(std::move(done), std::move(peer)));
  s.run_until(5_ms);
  sim.reset();
  SUCCEED();
}

TEST(SimulatorTest, TeardownWithSuspendedThreadsDoesNotLeakOrCrash) {
  auto sim = std::make_unique<Simulator>();
  auto body = [&s = *sim]() -> Task {
    for (;;) co_await s.delay(1_ms);
  };
  sim->spawn("immortal", body());
  sim->run_until(10_ms);
  // Destroying the simulator with the thread still suspended must be safe.
  sim.reset();
  SUCCEED();
}

TEST(SimulatorTest, YieldInterleavesCoroutinesAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  auto mk = [&](int id) -> Task {
    order.push_back(id);
    co_await sim.yield();
    order.push_back(id + 10);
  };
  sim.spawn("a", mk(1));
  sim.spawn("b", mk(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
  EXPECT_EQ(sim.now(), 0u);
}

TEST(TaskTest, UnstartedTaskIsSafelyDestroyed) {
  Simulator sim;
  bool ran = false;
  {
    auto body = [&]() -> Task {
      ran = true;
      co_return;
    };
    Task t = body();
    EXPECT_TRUE(t.valid());
  }
  EXPECT_FALSE(ran);
}

TEST(TaskTest, MoveTransfersOwnership) {
  Simulator sim;
  auto body = [&]() -> Task { co_return; };
  Task a = body();
  Task b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
}

}  // namespace
}  // namespace bio::sim
