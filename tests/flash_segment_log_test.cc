// Tests for the log-structured FTL: append ordering, programmed-prefix
// tracking, durability analyses and garbage collection.
#include <gtest/gtest.h>

#include "flash/segment_log.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;

Geometry small_geom() {
  return Geometry{.channels = 2,
                  .ways_per_channel = 2,
                  .blocks_per_chip = 8,
                  .pages_per_block = 4};
}

NandTiming fast_timing() {
  return NandTiming{.read_page = 50_us,
                    .program_page = 200_us,
                    .erase_block = 1'000_us,
                    .channel_xfer = 10_us};
}

struct Fixture {
  Simulator sim;
  NandArray nand{sim, small_geom(), fast_timing()};
  SegmentLog log{sim, nand};
  Fixture() { log.start(); }
};

TEST(SegmentLogTest, AppendBecomesDurableInOrder) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(10, 1);
    co_await f.log.append(20, 2);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  auto durable = f.log.durable_in_order_recovery();
  EXPECT_EQ(durable.at(10), 1u);
  EXPECT_EQ(durable.at(20), 2u);
  EXPECT_EQ(f.log.programmed_prefix(), 2u);
}

TEST(SegmentLogTest, OverwriteLastWriteWins) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(10, 1);
    co_await f.log.append(10, 2);
    co_await f.log.append(10, 3);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(f.log.durable_in_order_recovery().at(10), 3u);
  EXPECT_EQ(f.log.mapped_version(10), 3u);
}

TEST(SegmentLogTest, PrefixStopsAtInFlightProgram) {
  Fixture f;
  auto writer = [&]() -> Task {
    SegmentLog::Reservation r1, r2, r3;
    co_await f.log.reserve(1, 1, r1);
    co_await f.log.reserve(2, 2, r2);
    co_await f.log.reserve(3, 3, r3);
    // Program out of order: 3 and 1 complete, 2 never starts.
    f.sim.spawn("p3", f.log.program_reserved(r3));
    f.sim.spawn("p1", f.log.program_reserved(r1));
  };
  f.sim.spawn("w", writer());
  f.sim.run();
  // Only entry 1 is in the recovered prefix: entry 2's page is a hole.
  auto durable = f.log.durable_in_order_recovery();
  EXPECT_EQ(durable.size(), 1u);
  EXPECT_EQ(durable.at(1), 1u);
  // The programmed-set analysis (no-barrier device) sees 1 and 3.
  auto programmed = f.log.durable_programmed_set();
  EXPECT_EQ(programmed.size(), 2u);
  EXPECT_TRUE(programmed.contains(3));
}

TEST(SegmentLogTest, ParallelProgramsUseMultipleChips) {
  Fixture f;
  auto writer = [&]() -> Task {
    std::vector<SegmentLog::Reservation> rs(4);
    for (int i = 0; i < 4; ++i)
      co_await f.log.reserve(static_cast<Lba>(i), 1, rs[i]);
    std::vector<sim::ThreadCtx*> ws;
    for (int i = 0; i < 4; ++i)
      ws.push_back(&f.sim.spawn("p", f.log.program_reserved(rs[i])));
    for (auto* w : ws) co_await f.sim.join(*w);
  };
  f.sim.spawn("w", writer());
  f.sim.run();
  // 4 consecutive slots stripe over 4 chips; wall time far below 4x serial.
  EXPECT_LT(f.sim.now(), 2 * (200_us + 4 * 10_us));
  EXPECT_EQ(f.log.programmed_prefix(), 4u);
}

TEST(SegmentLogTest, GcReclaimsInvalidatedSegments) {
  Fixture f;
  // Physical capacity = 128 pages. Overwrite a tiny working set far beyond
  // capacity; GC must reclaim continuously or appends would deadlock.
  auto body = [&]() -> Task {
    for (int i = 0; i < 400; ++i)
      co_await f.log.append(static_cast<Lba>(i % 8), static_cast<Version>(i));
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_GT(f.log.gc_stats().segments_erased, 0u);
  EXPECT_EQ(f.log.append_count() - f.log.gc_stats().pages_copied, 400u);
  // Every lba maps to its latest version.
  for (Lba l = 0; l < 8; ++l)
    EXPECT_EQ(f.log.mapped_version(l), static_cast<Version>(392 + l));
}

TEST(SegmentLogTest, GcPreservesLastWriteWinsInDurableState) {
  Fixture f;
  auto body = [&]() -> Task {
    for (int i = 0; i < 300; ++i)
      co_await f.log.append(static_cast<Lba>(i % 16),
                            static_cast<Version>(i + 1));
  };
  f.sim.spawn("t", body());
  f.sim.run();
  auto durable = f.log.durable_in_order_recovery();
  for (Lba l = 0; l < 16; ++l) {
    // Last write to lba l: largest i < 300 with i % 16 == l; version i+1.
    const Version expect = l < 12 ? 289 + l : 273 + l;
    EXPECT_EQ(durable.at(l), expect) << "lba " << l;
  }
}

TEST(SegmentLogTest, PrefillPopulatesMappingWithoutSimTime) {
  Fixture f;
  sim::Rng rng(1);
  f.log.prefill(0.5, /*lba_span=*/32, rng);
  EXPECT_EQ(f.sim.now(), 0u);
  EXPECT_GT(f.log.append_count(), 40u);
  EXPECT_EQ(f.log.programmed_prefix(), f.log.append_count());
}

TEST(SegmentLogTest, PrefilledDeviceStillAppends) {
  Fixture f;
  sim::Rng rng(1);
  f.log.prefill(0.7, 32, rng);
  auto body = [&]() -> Task {
    for (int i = 0; i < 64; ++i)
      co_await f.log.append(static_cast<Lba>(i % 32), 1000 + i);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(f.log.mapped_version(31), 1000u + 63u);
}

TEST(SegmentLogTest, ReadUnmappedLbaCompletesInstantly) {
  Fixture f;
  auto body = [&]() -> Task { co_await f.log.read(999); };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(sim::SimTime{0}, f.sim.now());
}

TEST(SegmentLogTest, ReadMappedLbaCostsFlashRead) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(5, 1);
    co_await f.log.read(5);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_GE(f.sim.now(), 200_us + 50_us);
}

}  // namespace
}  // namespace bio::flash
