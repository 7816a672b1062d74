// api::Ring — batched submission/completion rings with linked barrier
// chains (DESIGN.md §10): out-of-order reap, chain serialization vs
// unlinked concurrency, link-error cancellation, submit-time validation,
// registered-buffer slot reuse, sync-op parity with direct Vfs calls,
// the QD-sweep batching win, and the ring-driven concurrent crash sweep
// (including the injected link-ignoring bug the oracle must catch).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/ring.h"
#include "api/vfs.h"
#include "chk/crash_check.h"
#include "fs_test_util.h"

namespace bio {
namespace {

using namespace bio::sim::literals;
using api::Cqe;
using api::Ring;
using api::RingOp;
using api::Sqe;
using core::StackKind;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += "\n  " + s;
  return out;
}

Sqe make_sqe(RingOp op, api::Fd fd, std::uint64_t ud, std::uint32_t page = 0,
             std::uint32_t npages = 0, std::uint8_t flags = 0,
             std::int32_t buf_index = -1) {
  Sqe s;
  s.op = op;
  s.fd = fd;
  s.page = page;
  s.npages = npages;
  s.buf_index = buf_index;
  s.flags = flags;
  s.user_data = ud;
  return s;
}

// ---- 1. out-of-order completion reap ---------------------------------------

TEST(RingTest, CompletionsReapOutOfSubmissionOrder) {
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  api::Vfs vfs(*x.stack);
  std::vector<Cqe> reaped;
  auto body = [&]() -> sim::Task {
    api::File f =
        api::must(co_await vfs.open("a", {.create = true}));
    Ring ring(vfs);
    // Submitted first but slow (write + device DMA)...
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 1, 0, 4)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kFsync, f.fd(), 2)));
    // ...submitted last but instant.
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kNop, api::kInvalidFd, 3)));
    EXPECT_EQ(ring.submit(), 3u);
    for (int i = 0; i < 3; ++i) reaped.push_back(co_await ring.wait_cqe());
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  ASSERT_EQ(reaped.size(), 3u);
  EXPECT_EQ(reaped.front().user_data, 3u) << "nop did not complete first";
  for (const Cqe& c : reaped) EXPECT_GE(c.res, 0);
}

// ---- 2. chain serialization vs unlinked concurrency ------------------------

TEST(RingTest, LinkedChainSerializesWhileUnlinkedOpsRun) {
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  api::Vfs vfs(*x.stack);
  // (user_data, started) event log filled by the hooks.
  struct Ev {
    std::uint64_t ud;
    bool start;
  };
  std::vector<Ev> events;
  auto body = [&]() -> sim::Task {
    api::File f =
        api::must(co_await vfs.open("a", {.create = true}));
    Ring ring(vfs);
    ring.set_on_op_start(
        [&](const Sqe& s) { events.push_back({s.user_data, true}); });
    ring.set_on_op_complete([&](const Sqe& s, std::int32_t) {
      events.push_back({s.user_data, false});
    });
    // Chain: write -> fdatabarrier -> write, plus one unlinked write.
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kWrite, f.fd(), 1, 0, 2, api::kSqeLink)));
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kFdatabarrier, f.fd(), 2, 0, 0, api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 3, 4, 2)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 4, 8, 2)));
    EXPECT_EQ(ring.submit(), 4u);
    for (int i = 0; i < 4; ++i) (void)co_await ring.wait_cqe();
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  ASSERT_EQ(events.size(), 8u);
  auto index_of = [&](std::uint64_t ud, bool start) {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].ud == ud && events[i].start == start)
        return static_cast<std::ptrdiff_t>(i);
    return std::ptrdiff_t{-1};
  };
  // Within the chain: each op starts only after its predecessor completed.
  EXPECT_GT(index_of(2, true), index_of(1, false));
  EXPECT_GT(index_of(3, true), index_of(2, false));
  // The unlinked write did not wait for the chain.
  EXPECT_LT(index_of(4, true), index_of(2, false));
}

// ---- 3. chain cancellation on a runtime error ------------------------------

TEST(RingTest, FailedSqeCancelsChainRemainderWithECanceled) {
  fs::testutil::StackFixture x(StackKind::kExt4DR);
  api::Vfs vfs(*x.stack);
  std::vector<Cqe> reaped;
  auto body = [&]() -> sim::Task {
    api::File f = api::must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    Ring ring(vfs);
    // First write lands past the extent -> ENOSPC at run time; the two
    // linked followers must be cancelled, the unlinked op unaffected.
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kWrite, f.fd(), 1, 100, 2, api::kSqeLink)));
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kFsync, f.fd(), 2, 0, 0, api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 3, 0, 2)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 4, 2, 2)));
    EXPECT_EQ(ring.submit(), 4u);
    for (int i = 0; i < 4; ++i) reaped.push_back(co_await ring.wait_cqe());
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  ASSERT_EQ(reaped.size(), 4u);
  auto res_of = [&](std::uint64_t ud) {
    for (const Cqe& c : reaped)
      if (c.user_data == ud) return c.res;
    return std::int32_t{1000};
  };
  EXPECT_EQ(res_of(1), -28);   // -ENOSPC
  EXPECT_EQ(res_of(2), -125);  // -ECANCELED
  EXPECT_EQ(res_of(3), -125);
  EXPECT_EQ(res_of(4), 2);     // unlinked write unaffected
}

// ---- 4. submit-time validation (fail fast, satellite contract) -------------

TEST(RingTest, SubmitTimeValidationFailsFastWithErrorCqes) {
  fs::testutil::StackFixture x(StackKind::kExt4DR);
  api::Vfs vfs(*x.stack);
  std::vector<Cqe> reaped;
  std::uint32_t fs_ops_started = 0;
  auto body = [&]() -> sim::Task {
    api::File f =
        api::must(co_await vfs.open("a", {.create = true}));
    Ring ring(vfs);
    ring.set_on_op_start([&](const Sqe&) { ++fs_ops_started; });
    // Bad fd; its linked follower cancels.
    EXPECT_TRUE(
        ring.push(make_sqe(RingOp::kWrite, 999, 1, 0, 1, api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 2, 0, 1)));
    // Unregistered buffer index.
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 3, 0, 1, 0,
                                   /*buf_index=*/0)));
    // Barrier op on a non-BarrierFS mount (capability matrix).
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kFdatabarrier, f.fd(), 4)));
    // Zero-length write.
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 5, 0, 0)));
    // Valid chain prefix still runs; the invalid middle cancels the tail.
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kWrite, f.fd(), 6, 0, 2, api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kFdatabarrier, f.fd(), 7, 0, 0,
                                   api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 8, 2, 2)));
    EXPECT_EQ(ring.submit(), 8u);
    for (int i = 0; i < 8; ++i) reaped.push_back(co_await ring.wait_cqe());
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  ASSERT_EQ(reaped.size(), 8u);
  auto res_of = [&](std::uint64_t ud) {
    for (const Cqe& c : reaped)
      if (c.user_data == ud) return c.res;
    return std::int32_t{1000};
  };
  EXPECT_EQ(res_of(1), -9);    // -EBADF
  EXPECT_EQ(res_of(2), -125);  // chained behind the bad fd
  EXPECT_EQ(res_of(3), -22);   // -EINVAL: unregistered buffer
  EXPECT_EQ(res_of(4), -22);   // -EINVAL: fdatabarrier on JBD2
  EXPECT_EQ(res_of(5), -22);   // -EINVAL: zero length
  EXPECT_EQ(res_of(6), 2);     // valid chain prefix ran
  EXPECT_EQ(res_of(7), -22);
  EXPECT_EQ(res_of(8), -125);  // linked behind the invalid barrier
  // Fail-fast means the invalid sqes never reached the filesystem: only
  // the one valid chain-prefix write ever started.
  EXPECT_EQ(fs_ops_started, 1u);
}

// ---- 5. registered buffers: NCQ slot reuse across submits ------------------

TEST(RingTest, RegisteredBuffersReuseAcrossSubmits) {
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  api::Vfs vfs(*x.stack);
  bool saw_in_flight = false;
  std::vector<std::int32_t> unregistered_res;
  auto body = [&]() -> sim::Task {
    api::File f =
        api::must(co_await vfs.open("a", {.create = true}));
    Ring ring(vfs);
    api::must(ring.register_buffers({4, 2}));
    EXPECT_EQ(ring.buffers_registered(), 2u);
    // Re-registering and oversized use are submit-time errors.
    EXPECT_FALSE(ring.register_buffers({1}).ok());
    // The slot is claimed for the duration of the op it backs.
    ring.set_on_op_start([&](const Sqe&) {
      saw_in_flight = saw_in_flight || ring.buffer_in_flight(0);
    });

    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(),
                                     static_cast<std::uint64_t>(round) + 1,
                                     0, 3, 0, /*buf_index=*/0)));
      EXPECT_EQ(ring.submit(), 1u);
      // Registration changes require quiescence while the op holds slot 0.
      EXPECT_FALSE(ring.unregister_buffers().ok());
      Cqe c = co_await ring.wait_cqe();
      EXPECT_EQ(c.res, 3);
    }
    EXPECT_EQ(ring.buffer_issues(0), 3u);  // slot reused, not re-carved
    EXPECT_EQ(ring.buffer_issues(1), 0u);

    // npages beyond the slot's capacity fails fast.
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 10, 0, 3, 0,
                                   /*buf_index=*/1)));
    EXPECT_EQ(ring.submit(), 1u);
    Cqe c = co_await ring.wait_cqe();
    EXPECT_EQ(c.res, -22);

    // Quiescent now: unregister works, after which slot refs are EINVAL.
    api::must(ring.unregister_buffers());
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 11, 0, 1, 0,
                                   /*buf_index=*/0)));
    EXPECT_EQ(ring.submit(), 1u);
    unregistered_res.push_back((co_await ring.wait_cqe()).res);
    api::must(f.close());
  };
  x.sim().spawn("app", body());
  x.sim().run();

  EXPECT_TRUE(saw_in_flight) << "slot ownership never observed in flight";
  ASSERT_EQ(unregistered_res.size(), 1u);
  EXPECT_EQ(unregistered_res.front(), -22);
}

// ---- 6. sync parity: each ring sync op == its Vfs::sync, all four stacks --

class RingSyncParityTest : public testing::TestWithParam<StackKind> {};

/// The fs counter a sync syscall bumps.
std::uint64_t count_of(const fs::Filesystem::Stats& s, api::Syscall call) {
  switch (call) {
    case api::Syscall::kFsync: return s.fsyncs;
    case api::Syscall::kFdatasync: return s.fdatasyncs;
    case api::Syscall::kFbarrier: return s.fbarriers;
    case api::Syscall::kFdatabarrier: return s.fdatabarriers;
    case api::Syscall::kOsync: return s.osyncs;
    case api::Syscall::kDsync: return s.dsyncs;
    case api::Syscall::kNone: break;
  }
  return 0;
}

TEST_P(RingSyncParityTest, RingSyncMatchesDirectVfsSync) {
  // For every sync syscall the stack's journal runs, the same workload —
  // 3 x (pwrite 4 pages + sync) — once through direct Vfs::sync awaits and
  // once through ring_op_for(call) sqes must drive the identical syscall
  // path: same fs-level counters, same journal commits. A dsync cqe must
  // find the written pages on media.
  const StackKind kind = GetParam();
  std::vector<api::Syscall> calls = {api::Syscall::kFsync,
                                     api::Syscall::kFdatasync};
  if (kind == StackKind::kBfsDR || kind == StackKind::kBfsOD)
    calls.insert(calls.end(),
                 {api::Syscall::kFbarrier, api::Syscall::kFdatabarrier});
  if (kind == StackKind::kOptFs)
    calls.insert(calls.end(), {api::Syscall::kOsync, api::Syscall::kDsync});
  struct Outcome {
    fs::Filesystem::Stats stats;
    std::uint64_t commits = 0;
  };
  auto run = [&](api::Syscall call, bool via_ring) {
    fs::testutil::StackFixture x(kind);
    api::Vfs vfs(*x.stack);
    auto body = [&]() -> sim::Task {
      api::File f = api::must(co_await vfs.open("a", {.create = true}));
      Ring ring(vfs);  // idle in the direct run
      for (std::uint64_t i = 0; i < 3; ++i) {
        if (via_ring) {
          EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), i * 2, 0, 4,
                                         api::kSqeLink)));
          EXPECT_TRUE(ring.push(
              make_sqe(api::ring_op_for(call), f.fd(), i * 2 + 1)));
          EXPECT_EQ(ring.submit(), 2u);
          for (int k = 0; k < 2; ++k) {
            Cqe c = co_await ring.wait_cqe();
            EXPECT_GE(c.res, 0) << api::to_string(call);
          }
        } else {
          api::must(co_await f.pwrite(0, 4));
          api::must(co_await vfs.sync(f.fd(), call));
        }
        // Round 0 writes allocate, and OptFS writes them in place; later
        // rounds' overwrites are data-journaled, so their home blocks keep
        // the old version by design.
        if (call != api::Syscall::kDsync || i != 0) continue;
        const fs::Inode* inode = x.fs().lookup("a");
        const auto durable = x.dev().durable_state();
        for (std::uint32_t p = 0; p < 4; ++p) {
          const auto it = durable.find(inode->lba_of_page(p));
          EXPECT_TRUE(it != durable.end() &&
                      it->second ==
                          x.fs().page_cache().find(inode->ino, p)->version)
              << "dsync completed with page " << p << " not on media";
        }
      }
      api::must(f.close());
    };
    x.sim().spawn("app", body());
    x.sim().run();
    return Outcome{x.fs().stats(), x.fs().journal().stats().commits};
  };
  for (const api::Syscall call : calls) {
    const Outcome direct = run(call, false);
    const Outcome ring = run(call, true);
    EXPECT_EQ(count_of(direct.stats, call), 3u) << api::to_string(call);
    EXPECT_TRUE(ring.stats == direct.stats) << api::to_string(call);
    EXPECT_EQ(ring.commits, direct.commits) << api::to_string(call);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, RingSyncParityTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---- 7. the batching win: QD >= 8 beats one-syscall-per-coroutine ----------

TEST(RingTest, BatchedSubmissionBeatsSerialAwaitsAtQd8) {
  // 16 x (pwrite -> fdatabarrier) over 8 files on BFS-DR: issued one at a
  // time through direct awaits vs 8-chain ring batches. The batched chains
  // overlap their device time across channels, so the ring must finish in
  // less simulated time than the one-syscall-per-coroutine loop.
  auto elapsed = [&](bool via_ring) {
    fs::testutil::StackFixture x(StackKind::kBfsDR);
    api::Vfs vfs(*x.stack);
    sim::SimTime io_done = 0;
    auto body = [&]() -> sim::Task {
      std::vector<api::File> files;
      for (int i = 0; i < 8; ++i)
        files.push_back(api::must(co_await vfs.open(
            "f" + std::to_string(i), {.create = true, .extent_blocks = 8})));
      const sim::SimTime io_start = x.sim().now();
      if (via_ring) {
        Ring ring(vfs);
        std::uint64_t ud = 0;
        for (int batch = 0; batch < 2; ++batch) {
          for (int c = 0; c < 8; ++c) {
            api::File& f = files[static_cast<std::size_t>(c)];
            EXPECT_TRUE(ring.push(
                make_sqe(RingOp::kWrite, f.fd(), ud++,
                         static_cast<std::uint32_t>(batch) * 2, 2,
                         api::kSqeLink)));
            EXPECT_TRUE(
                ring.push(make_sqe(RingOp::kFdatabarrier, f.fd(), ud++)));
          }
          EXPECT_EQ(ring.submit(), 16u);
          for (int i = 0; i < 16; ++i) (void)co_await ring.wait_cqe();
        }
      } else {
        for (int batch = 0; batch < 2; ++batch) {
          for (int c = 0; c < 8; ++c) {
            api::File& f = files[static_cast<std::size_t>(c)];
            api::must(co_await f.pwrite(
                static_cast<std::uint32_t>(batch) * 2, 2));
            api::must(co_await f.fdatabarrier());
          }
        }
      }
      io_done = x.sim().now() - io_start;
      for (api::File& f : files) api::must(f.close());
    };
    x.sim().spawn("app", body());
    x.sim().run();
    return io_done;
  };
  const sim::SimTime serial = elapsed(false);
  const sim::SimTime qd8 = elapsed(true);
  EXPECT_LT(qd8, serial)
      << "batched ring submission no faster than serial awaits";
}

// ---- 8. ring-driven concurrent crash sweep ---------------------------------

class RingCrashSweepTest : public testing::TestWithParam<StackKind> {};

TEST_P(RingCrashSweepTest, LinkedChainContractHoldsAcross200Points) {
  const chk::CrashSweepResult r = chk::run_sweep(
      {.flavour = chk::Flavour::kRing, .volumes = {GetParam()}}, 200);
  EXPECT_EQ(r.points, 200);
  EXPECT_EQ(r.failed_points, 0) << join(r.sample_violations);
  EXPECT_GT(r.quiesced_points, 0) << "no post-quiescence crash points";
  EXPECT_LT(r.quiesced_points, r.points) << "no mid-workload crash points";
  // The chain contract must really be exercised, on top of the concurrent
  // facts the direct sweep checks.
  EXPECT_GT(r.chain_facts_checked, 3000u) << "chain claims went dark";
  EXPECT_GT(r.order_writes_checked, 5000u);
  EXPECT_GT(r.syncs_recorded, 3000u);
  if (GetParam() == StackKind::kExt4DR || GetParam() == StackKind::kBfsDR) {
    EXPECT_GT(r.acked_pages_checked, 2000u);
  }
  EXPECT_GT(r.renames_done, 200u) << "namespace churn went dark";
  EXPECT_GT(r.fd_cycles, 200u) << "fd churn went dark";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, RingCrashSweepTest,
    testing::Values(StackKind::kExt4DR, StackKind::kBfsDR, StackKind::kBfsOD,
                    StackKind::kOptFs),
    [](const testing::TestParamInfo<StackKind>& info) {
      std::string name = core::to_string(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(RingCrashSweepTest, NobarrierStackFailsUnderRingWorkload) {
  const chk::CrashSweepResult r = chk::run_sweep(
      {.flavour = chk::Flavour::kRing, .volumes = {StackKind::kExt4OD}}, 120);
  EXPECT_GT(r.failed_points, 0)
      << "the nobarrier stack survived 120 ring-driven power cuts — "
         "checker too weak";
}

// The negative test: a ring that ignores its link flags must be caught by
// the oracle through the submission-structure chain claims — "new
// subsystems extend the oracle, not dodge it" only holds if the oracle
// actually bites.
TEST(RingCrashSweepTest, InjectedLinkIgnoringBugIsCaught) {
  for (const StackKind kind : {StackKind::kExt4DR, StackKind::kBfsDR}) {
    const chk::CrashSweepResult r =
        chk::run_sweep({.flavour = chk::Flavour::kRing,
                        .volumes = {kind},
                        .ignore_links = true},
                       80);
    EXPECT_GT(r.failed_points, 0)
        << core::to_string(kind)
        << ": link-ignoring ring survived 80 power cuts — the chain "
           "contract is not being verified";
    bool chain_violation = false;
    for (const std::string& v : r.sample_violations)
      chain_violation = chain_violation ||
                        v.find("chain") != std::string::npos;
    EXPECT_TRUE(chain_violation)
        << core::to_string(kind)
        << ": failures never mention the chain contract" << join(r.sample_violations);
  }
}

}  // namespace
}  // namespace bio
