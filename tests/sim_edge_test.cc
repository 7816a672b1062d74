// Edge-case tests for the simulator substrate: wake-latency overrides,
// thread statistics, and stress interleavings.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::sim {
namespace {

using namespace bio::sim::literals;

TEST(WakeLatencyTest, PerThreadOverrideBeatsGlobal) {
  Simulator sim({.wake_latency = 100_us});
  Event ev(sim);
  SimTime hw_woke = 0, sw_woke = 0;
  auto hw = [&]() -> Task {
    co_await ev.wait();
    hw_woke = sim.now();
  };
  auto sw = [&]() -> Task {
    co_await ev.wait();
    sw_woke = sim.now();
  };
  sim.spawn("hw", hw())->wake_latency = 0;  // hardware actor
  sim.spawn("sw", sw());                    // host thread
  auto trigger = [&]() -> Task {
    co_await sim.delay(10_us);
    ev.trigger();
  };
  sim.spawn("t", trigger());
  sim.run();
  EXPECT_EQ(hw_woke, 10_us) << "override: no scheduler latency";
  EXPECT_EQ(sw_woke, 110_us) << "global wake latency applies";
}

TEST(WakeLatencyTest, OverrideCanExceedGlobal) {
  Simulator sim({.wake_latency = 1_us});
  Event ev(sim);
  SimTime woke = 0;
  auto slow = [&]() -> Task {
    co_await ev.wait();
    woke = sim.now();
  };
  sim.spawn("slow", slow())->wake_latency = 50_us;
  auto trigger = [&]() -> Task {
    ev.trigger();
    co_return;
  };
  sim.spawn("t", trigger());
  sim.run();
  EXPECT_EQ(woke, 50_us);
}

TEST(StressTest, ManyThreadsManySemaphores) {
  Simulator sim;
  Semaphore sem(sim, 3);
  int concurrent = 0, max_concurrent = 0, completed = 0;
  auto worker = [&]() -> Task {
    for (int i = 0; i < 20; ++i) {
      co_await sem.acquire();
      ++concurrent;
      max_concurrent = std::max(max_concurrent, concurrent);
      co_await sim.delay(3_us);
      --concurrent;
      sem.release();
    }
    ++completed;
  };
  for (int t = 0; t < 16; ++t) sim.spawn("w" + std::to_string(t), worker());
  sim.run();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(max_concurrent, 3) << "semaphore cap respected under stress";
}

TEST(StressTest, NotifyStormDoesNotLoseWaiters) {
  Simulator sim;
  Notify n(sim);
  int rounds_done = 0;
  bool go = false;
  auto waiter = [&]() -> Task {
    for (int i = 0; i < 100; ++i) {
      while (!go) co_await n.wait();
      go = false;
      ++rounds_done;
    }
  };
  auto notifier = [&]() -> Task {
    for (int i = 0; i < 100; ++i) {
      co_await sim.delay(1_us);
      go = true;
      n.notify_all();
      n.notify_all();  // redundant notifies must be harmless
    }
  };
  sim.spawn("w", waiter());
  sim.spawn("n", notifier());
  sim.run();
  EXPECT_EQ(rounds_done, 100);
}

TEST(StatsTest, TotalContextSwitchesByPrefix) {
  Simulator sim;
  Event ev(sim);
  auto waiter = [&]() -> Task { co_await ev.wait(); };
  const Thread waiters[] = {sim.spawn("app:0", waiter()),
                            sim.spawn("app:1", waiter()),
                            sim.spawn("dev:x", waiter())};
  auto trigger = [&]() -> Task {
    co_await sim.delay(1_us);
    ev.trigger();
  };
  const Thread t = sim.spawn("t", trigger());
  sim.run();
  // Held handles keep each finished waiter's counters readable.
  for (const Thread& w : waiters) {
    EXPECT_TRUE(w->finished);
    EXPECT_EQ(w->context_switches, 1u) << w->name;
  }
  EXPECT_EQ(t->context_switches, 0u);
}

TEST(RunUntilTest, RepeatedSlicingPreservesDeterminism) {
  // Slicing a run into many run_until() windows must produce the same
  // final state as one run() — the crash tests rely on this.
  auto run_sliced = [](bool sliced) {
    Simulator sim;
    std::uint64_t acc = 0;
    auto body = [&]() -> Task {
      for (int i = 0; i < 200; ++i) {
        co_await sim.delay(7_us);
        acc = acc * 31 + static_cast<std::uint64_t>(i);
      }
    };
    sim.spawn("t", body());
    if (sliced) {
      for (SimTime t = 13_us; t < 3_ms; t += 13_us) sim.run_until(t);
    }
    sim.run();
    return acc;
  };
  EXPECT_EQ(run_sliced(true), run_sliced(false));
}

}  // namespace
}  // namespace bio::sim
