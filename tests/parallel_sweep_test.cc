// Determinism regression net for the parallel sweep driver (DESIGN.md
// §13): every sweep flavour run at jobs=1 (the serial path — no thread is
// spawned) and jobs=8 over the same base seed must produce a
// bit-identical CrashSweepResult — every aggregate counter, the failure
// coordinates (point / derived seed / crash instant / first violation)
// and the --repro sample strings. Seed partitioning is by point index and
// results merge in canonical point order, so any divergence here means a
// worker leaked execution-order-dependent state into a result.
//
// Also covers sim::resolve_host_jobs: clamping, the BIO_SWEEP_JOBS ctest
// hook and its strict-decimal parse (garbage must fall through to
// hardware concurrency, never to a silently different thread count).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "chk/crash_check.h"
#include "sim/host_pool.h"

namespace bio {
namespace {

using chk::CrashSweepResult;
using core::StackKind;

/// Field-by-field equality with a readable failure message; EXPECT_EQ on
/// a struct dump would point at "some byte differed" instead of the
/// counter that drifted.
void expect_identical(const CrashSweepResult& serial,
                      const CrashSweepResult& parallel) {
  EXPECT_EQ(serial.points, parallel.points);
  EXPECT_EQ(serial.failed_points, parallel.failed_points);
  EXPECT_EQ(serial.quiesced_points, parallel.quiesced_points);
  EXPECT_EQ(serial.acked_pages_checked, parallel.acked_pages_checked);
  EXPECT_EQ(serial.order_writes_checked, parallel.order_writes_checked);
  EXPECT_EQ(serial.namespace_facts_checked, parallel.namespace_facts_checked);
  EXPECT_EQ(serial.renames_done, parallel.renames_done);
  EXPECT_EQ(serial.unlinks_done, parallel.unlinks_done);
  EXPECT_EQ(serial.journal_wraps, parallel.journal_wraps);
  EXPECT_EQ(serial.journal_stalls, parallel.journal_stalls);
  EXPECT_EQ(serial.files_recovered, parallel.files_recovered);
  EXPECT_EQ(serial.syncs_recorded, parallel.syncs_recorded);
  EXPECT_EQ(serial.fd_cycles, parallel.fd_cycles);
  EXPECT_EQ(serial.closes_during_sync, parallel.closes_during_sync);
  EXPECT_EQ(serial.chain_facts_checked, parallel.chain_facts_checked);
  EXPECT_EQ(serial.faults_injected, parallel.faults_injected);
  EXPECT_EQ(serial.io_retries, parallel.io_retries);
  EXPECT_EQ(serial.io_failures, parallel.io_failures);
  EXPECT_EQ(serial.syncs_failed, parallel.syncs_failed);
  EXPECT_EQ(serial.degraded_points, parallel.degraded_points);

  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].point, parallel.failures[i].point);
    EXPECT_EQ(serial.failures[i].volume, parallel.failures[i].volume);
    EXPECT_EQ(serial.failures[i].seed, parallel.failures[i].seed);
    EXPECT_EQ(serial.failures[i].crash_at, parallel.failures[i].crash_at);
    EXPECT_EQ(serial.failures[i].first_violation,
              parallel.failures[i].first_violation);
  }
  ASSERT_EQ(serial.sample_violations.size(),
            parallel.sample_violations.size());
  for (std::size_t i = 0; i < serial.sample_violations.size(); ++i)
    EXPECT_EQ(serial.sample_violations[i], parallel.sample_violations[i]);
  ASSERT_EQ(serial.volumes.size(), parallel.volumes.size());
  for (std::size_t v = 0; v < serial.volumes.size(); ++v)
    expect_identical(serial.volumes[v], parallel.volumes[v]);
}

// Small but non-trivial sweeps: enough points that jobs=8 actually fans
// out and the work-stealing order differs run to run. One case per
// flavour plus a node, and — the failure-path half of the contract — the
// swallowed-EIO negative control, which fails deterministically, so the
// failure coordinates and --repro strings are compared too.
struct DeterminismCase {
  const char* name;
  chk::SweepSpec spec;
  int points = 24;
  std::uint64_t base = 7;
  bool must_fail = false;
};

class ParallelSweepDeterminism
    : public testing::TestWithParam<DeterminismCase> {};

TEST_P(ParallelSweepDeterminism, SerialAndParallelSweepsAreBitIdentical) {
  const DeterminismCase& c = GetParam();
  const CrashSweepResult serial = chk::run_sweep(c.spec, c.points, c.base, 1);
  const CrashSweepResult parallel =
      chk::run_sweep(c.spec, c.points, c.base, 8);
  if (c.must_fail) {
    ASSERT_GT(serial.failed_points, 0)
        << "negative control stopped failing — the comparison is vacuous";
    EXPECT_FALSE(serial.failures.empty());
    EXPECT_FALSE(serial.sample_violations.empty());
  }
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ParallelSweepDeterminism,
    testing::Values(
        DeterminismCase{"Single", {.volumes = {StackKind::kBfsDR}}},
        DeterminismCase{"Conc",
                        {.flavour = chk::Flavour::kConc,
                         .volumes = {StackKind::kExt4DR}}},
        DeterminismCase{"Ring",
                        {.flavour = chk::Flavour::kRing,
                         .volumes = {StackKind::kBfsOD}}},
        DeterminismCase{"Fault",
                        {.flavour = chk::Flavour::kFault,
                         .volumes = {StackKind::kOptFs}}},
        DeterminismCase{"FailingFault",
                        {.flavour = chk::Flavour::kFault,
                         .volumes = {StackKind::kExt4DR},
                         .swallow_io_errors = true},
                        20,
                        1,
                        true},
        DeterminismCase{"Node",
                        {.volumes = {StackKind::kBfsDR, StackKind::kExt4DR}}}),
    [](const testing::TestParamInfo<DeterminismCase>& info) {
      return std::string(info.param.name);
    });

// ---- jobs resolution --------------------------------------------------------

// Env round-trip helper: gtest runs these in one process, so restore
// whatever BIO_SWEEP_JOBS held.
class JobsEnvTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("BIO_SWEEP_JOBS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  void TearDown() override {
    if (had_)
      ::setenv("BIO_SWEEP_JOBS", saved_.c_str(), 1);
    else
      ::unsetenv("BIO_SWEEP_JOBS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(JobsEnvTest, ExplicitRequestWinsAndClamps) {
  ::setenv("BIO_SWEEP_JOBS", "4", 1);
  EXPECT_EQ(sim::resolve_host_jobs(1), 1);  // explicit beats env
  EXPECT_EQ(sim::resolve_host_jobs(3), 3);
  EXPECT_EQ(sim::resolve_host_jobs(sim::kMaxHostJobs + 100),
            sim::kMaxHostJobs);
}

TEST_F(JobsEnvTest, EnvHookParsesStrictly) {
  ::setenv("BIO_SWEEP_JOBS", "6", 1);
  EXPECT_EQ(sim::resolve_host_jobs(0), 6);
  ::setenv("BIO_SWEEP_JOBS", "999999", 1);  // saturates at the clamp
  EXPECT_EQ(sim::resolve_host_jobs(0), sim::kMaxHostJobs);

  // Garbage falls through to hardware concurrency (>= 1), never to a
  // silently different parse of the same string.
  ::unsetenv("BIO_SWEEP_JOBS");
  const int hw = sim::resolve_host_jobs(0);
  for (const char* bad : {"", "0", "-2", "+4", "8x", " 8", "4 ", "0x8"}) {
    ::setenv("BIO_SWEEP_JOBS", bad, 1);
    EXPECT_EQ(sim::resolve_host_jobs(0), hw)
        << "BIO_SWEEP_JOBS='" << bad << "'";
  }
}

// ---- host pool & frame-pool aggregation -------------------------------------

TEST(HostPool, MapPreservesIndexOrderAcrossThreads) {
  const sim::HostPool pool(8);
  const std::vector<int> out =
      pool.map<int>(100, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(HostPool, SerialPathRunsInline) {
  const sim::HostPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::vector<int> order;
  // jobs=1 must not spawn: appending to a plain vector is race-free only
  // on the inline path, which is exactly what this asserts.
  // iolint: detached-owner(for_each_index joins its workers before
  // returning; the capture cannot outlive this frame)
  pool.for_each_index(5, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(HostPool, WorkerExceptionPropagates) {
  const sim::HostPool pool(4);
  EXPECT_THROW(
      pool.for_each_index(16,
                          [](int i) {
                            if (i == 7) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

}  // namespace
}  // namespace bio
