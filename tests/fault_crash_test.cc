// Fault-injection crash sweep (DESIGN.md §11): every point installs a
// seed-derived flash::FaultPlan on the device, runs the single-writer
// checker workload, cuts power, and verifies the fault-mode oracle facts —
// acked durability survives faults, a torn/failed journal write never
// replays as committed, and an aborted (degraded) volume still recovers
// read-consistent and remounts fully usable.
//
// The sweep caught (and now guards) the barrier-retry ordering bug: a
// host-side retry of a transiently-failed JD write re-entered a later
// epoch, so the JC could drain first and a crash in that window left a
// durable commit record over a missing descriptor chain. The fix moved
// transient-program recovery on barrier-mode devices into the device FTL
// (flash/device.cc, in_device_retries).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/crash_check.h"

namespace bio {
namespace {

using chk::CrashSweepResult;
using core::StackKind;

constexpr chk::Flavour kFault = chk::Flavour::kFault;

std::string join(const std::vector<CrashSweepResult::Failure>& v) {
  std::string out;
  for (const auto& f : v)
    out += "\n  point=" + std::to_string(f.point) +
           " seed=" + std::to_string(f.seed) +
           " crash_at=" + std::to_string(f.crash_at) + ": " +
           f.first_violation;
  return out;
}

// ---- 1. the main fault sweep: every honest stack keeps its contract --------

class FaultCrashSweepTest : public testing::TestWithParam<StackKind> {};

TEST_P(FaultCrashSweepTest, FaultOracleHoldsAcross200Points) {
  const CrashSweepResult r =
      chk::run_sweep({.flavour = kFault, .volumes = {GetParam()}}, 200);
  EXPECT_EQ(r.points, 200);
  EXPECT_EQ(r.failed_points, 0) << join(r.failures);
  // The sweep must actually exercise the fault machinery, not tiptoe
  // around it: faults fire, some runs fail through to EIO, some degrade
  // the volume read-only and recover through remount.
  EXPECT_GT(r.faults_injected, 100u) << "fault plans went dark";
  EXPECT_GT(r.io_failures, 20u) << "no hard fail-throughs exercised";
  EXPECT_GT(r.degraded_points, 20u) << "journal abort path went dark";
  EXPECT_GT(r.syncs_failed, 10u) << "no EIO/EROFS acks observed";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, FaultCrashSweepTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      switch (info.param) {
        case StackKind::kExt4DR: return "Ext4DR";
        case StackKind::kBfsDR: return "BfsDR";
        case StackKind::kBfsOD: return "BfsOD";
        default: return "OptFs";
      }
    });

// DESIGN.md §11.4 bug 4: a failed checkpoint copy aborted the journal
// while the commit thread still held transaction 2 as committing_. The
// abort triggers that transaction's durable event without retiring it, so
// a writer re-dirtying one of its blocks looped in jbd2's page-conflict
// wait without ever suspending. With the fix reverted this point never
// returns.
TEST(FaultCrashSweepTest, AbortMidCommitReleasesConflictingWriters) {
  const chk::CrashCheckResult r =
      chk::run_check({.flavour = kFault, .volumes = {StackKind::kExt4DR}},
                     476, chk::sweep_crash_at(1, 475))
          .front();
  EXPECT_TRUE(r.volume_degraded) << "the checkpoint failure no longer aborts";
  EXPECT_TRUE(r.ok()) << r.violations.front();
}

// An osync's data write fails for good: the osync returns EIO, and the
// writer's later dsyncs return success. OptFS's commit checksum covers
// only the data writes that landed, so recovery replays every committed
// transaction. While the checksum also covered the failed write, it never
// matched: recovery discarded that transaction and every later one, so
// acked dsyncs' writes were lost: 14 transactions at point 123 and 8 at
// q4 point 14.
TEST(FaultCrashSweepTest, OptFsChecksumSkipsDataWritesThatFailedForGood) {
  struct Point {
    std::uint32_t nr_queues;
    int point;
  };
  for (const Point p : {Point{1, 123}, Point{4, 14}}) {
    const chk::CrashCheckResult r =
        chk::run_check({.flavour = kFault,
                        .volumes = {StackKind::kOptFs},
                        .nr_queues = p.nr_queues},
                       1 + p.point, chk::sweep_crash_at(1, p.point))
            .front();
    const std::string at = "q" + std::to_string(p.nr_queues) + " point " +
                           std::to_string(p.point);
    EXPECT_EQ(r.io_failures, 1u) << at;
    EXPECT_EQ(r.syncs_failed, 1u) << at;
    EXPECT_FALSE(r.volume_degraded) << at;
    EXPECT_EQ(r.txns_discarded, 0u) << at;
    EXPECT_GT(r.acked_pages_checked, 0u) << at << ": later dsyncs acked";
    EXPECT_TRUE(r.ok()) << at << ": " << r.violations.front();
  }
}

// Host-side bounded retry runs on legacy devices; barrier-mode devices
// absorb transient program faults in the FTL instead (the retry would
// re-enter a later epoch and void the ordering contract).
TEST(FaultCrashSweepTest, RetryPathsSplitByDeviceClass) {
  const CrashSweepResult legacy = chk::run_sweep(
      {.flavour = kFault, .volumes = {StackKind::kExt4DR}}, 100);
  EXPECT_GT(legacy.io_retries, 20u) << "blk bounded retry went dark";
  const CrashSweepResult barrier = chk::run_sweep(
      {.flavour = kFault, .volumes = {StackKind::kBfsDR}}, 100);
  EXPECT_EQ(barrier.io_retries, 0u)
      << "host-side retry on a barrier device breaks epoch ordering";
}

// ---- 2. the dishonest stack is still caught --------------------------------

TEST(FaultNobarrierTest, LegacyNobarrierStackViolatesUnderFaults) {
  // EXT4-OD (nobarrier, orderless device) keeps losing acked data under
  // the fault sweep exactly as it does under the plain crash sweep; the
  // oracle must keep catching it deterministically.
  const CrashSweepResult r = chk::run_sweep(
      {.flavour = kFault, .volumes = {StackKind::kExt4OD}}, 200);
  EXPECT_GT(r.failed_points, 0)
      << "EXT4-OD passed a 200-point fault sweep; the oracle went blind";
}

// ---- 3. negative control: the injected bug is detected ---------------------

TEST(FaultNegativeTest, SwallowedIoErrorsAreDetected) {
  // BlockLayer::set_swallow_io_errors_for_test completes failed requests
  // as successes — acked data silently never lands. The sweep must notice
  // deterministically (same seeds as the clean sweep, which passes).
  const CrashSweepResult r = chk::run_sweep({.flavour = kFault,
                                             .volumes = {StackKind::kExt4DR},
                                             .swallow_io_errors = true},
                                            20);
  EXPECT_GT(r.failed_points, 0)
      << "swallowed EIO went undetected: the oracle is not load-bearing";
}

}  // namespace
}  // namespace bio
