// Multi-queue crash sweeps: every stack's crash contract must hold at
// nr_queues = 4, where writers land on different software queues, queues
// map onto different flash channels, and ordering across them rests
// entirely on the cross-queue epoch fence (blk/epoch_fence.h).
//
// These sweeps are the regression net that caught the fence's original
// publish/subscribe design losing cross-queue ordering (staged requests
// invisible to the drain check — DESIGN.md §14 has the ledger); the
// epoch-tag protocol that replaced it is what they now guard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/crash_check.h"

namespace bio {
namespace {

using chk::CrashSweepResult;
using core::StackKind;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += "\n  " + s;
  return out;
}

class MqCrashSweepTest : public testing::TestWithParam<StackKind> {};

TEST_P(MqCrashSweepTest, SingleWriterContractHoldsAtFourQueues) {
  const CrashSweepResult r =
      chk::run_sweep({.volumes = {GetParam()}, .nr_queues = 4}, 100);
  EXPECT_EQ(r.points, 100);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
}

TEST_P(MqCrashSweepTest, ConcurrentContractHoldsAtFourQueues) {
  const CrashSweepResult r = chk::run_sweep(
      {.flavour = chk::Flavour::kConc, .volumes = {GetParam()}, .nr_queues = 4},
      100);
  EXPECT_EQ(r.points, 100);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
}

TEST_P(MqCrashSweepTest, RingChainContractHoldsAtFourQueues) {
  // The ring workload is the sharpest multi-queue probe: each linked chain
  // issues from its own coroutine, so chains spread across all four queues.
  const CrashSweepResult r = chk::run_sweep(
      {.flavour = chk::Flavour::kRing, .volumes = {GetParam()}, .nr_queues = 4},
      100);
  EXPECT_EQ(r.points, 100);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
}

TEST_P(MqCrashSweepTest, FaultContractHoldsAtFourQueues) {
  const CrashSweepResult r = chk::run_sweep(
      {.flavour = chk::Flavour::kFault, .volumes = {GetParam()}, .nr_queues = 4},
      60);
  EXPECT_EQ(r.points, 60);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, MqCrashSweepTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(MqNobarrierTest, Ext4OrderlessStaysBrokenAtFourQueues) {
  // The orderless stack's contract violations must survive the multi-queue
  // refactor: if the mq path accidentally made EXT4-OD look safe, the
  // sweep's oracle (not the stack) would be what broke.
  const CrashSweepResult r = chk::run_sweep({.flavour = chk::Flavour::kRing,
                                             .volumes = {StackKind::kExt4OD},
                                             .nr_queues = 4},
                                            120);
  EXPECT_GT(r.failed_points, 0)
      << "nobarrier EXT4 must still violate its claimed contract";
}

}  // namespace
}  // namespace bio
