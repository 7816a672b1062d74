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
