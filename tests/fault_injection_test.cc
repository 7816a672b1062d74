// Directed EIO-semantics tests for device fault injection (DESIGN.md §11):
// the full propagation chain flash::FaultPlan -> Command::status -> blk
// bounded retry -> fs::FsStatus -> api::Errno, pinned per stack kind.
//   1. A transient program fault is invisible to the application: the block
//      layer (legacy stacks) or the device FTL (barrier stacks) retries it
//      and the covering sync returns kOk. On a page-cache miss, a transient
//      read fault is retried once by the block layer and the read returns
//      kOk; a hard media read error fails through unretried as kIo.
//   2. A hard media fault on a data write surfaces as EIO on the next
//      fsync of that fd exactly once (errseq), then clears: the redirtied
//      page re-lands on the healthy retry.
//   3. A hard fault on a journal write aborts the journal and degrades the
//      volume read-only: writes and syncs fail EROFS, reads still work,
//      and a remount over the recovered image is fully usable again.
//   4. api::Ring reports failures as negative cqe res and cancels the
//      linked remainder of the chain.
//   5. Errno/to_string stays exhaustive (compile-time switch coverage).
//   6. A plan changes what fails, not when requests complete: an installed
//      plan that fires nothing leaves every simulated time unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/ring.h"
#include "api/vfs.h"
#include "blk/block_layer.h"
#include "flash/fault.h"
#include "fs/recovery.h"
#include "fs_test_util.h"
#include "wl/random_write.h"

namespace bio {
namespace {

using api::Cqe;
using api::Errno;
using api::Ring;
using api::RingOp;
using api::Sqe;
using core::StackKind;
using flash::FaultKind;
using flash::FaultPlan;
using flash::FaultSpec;
using fs::testutil::StackFixture;
using sim::Task;

// The four stack kinds the EIO contract is pinned for (EXT4-OD shares
// EXT4-DR's error plumbing; its weaker ordering is the crash sweep's
// business, not the errno path's).
constexpr StackKind kKinds[] = {StackKind::kExt4DR, StackKind::kBfsDR,
                                StackKind::kBfsOD, StackKind::kOptFs};

// Every Syscall value, kNone included.
constexpr api::Syscall kSyscalls[] = {
    api::Syscall::kNone,      api::Syscall::kFsync,
    api::Syscall::kFdatasync, api::Syscall::kFbarrier,
    api::Syscall::kFdatabarrier, api::Syscall::kOsync,
    api::Syscall::kDsync};

bool is_barrier_stack(StackKind k) {
  return k == StackKind::kBfsDR || k == StackKind::kBfsOD;
}

// ---- 1. transient fault + retry is invisible -------------------------------

class TransientFaultTest : public testing::TestWithParam<StackKind> {};

TEST_P(TransientFaultTest, RetriedTransientWriteFaultKeepsSyncOk) {
  const StackKind kind = GetParam();
  StackFixture x(kind);
  api::Vfs vfs(*x.stack);
  // Any-LBA transient program fault on the very next device write.
  FaultPlan plan;
  plan.add(FaultSpec{FaultKind::kTransientProgram, /*at_op=*/0,
                     flash::kAnyLba, /*torn_keep=*/0, /*count=*/1});
  x.dev().install_fault_plan(&plan);
  auto body = [&]() -> Task {
    api::File f = api::must(co_await vfs.open("a", {.create = true}));
    api::must(co_await vfs.pwrite(f.fd(), 0, 2));
    api::Status st = co_await vfs.sync(f.fd(), api::Syscall::kFsync);
    EXPECT_TRUE(st.ok()) << "transient fault must be retried, got "
                         << api::to_string(st.error());
    api::must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();

  EXPECT_EQ(plan.stats().total(), 1u) << "the fault must actually fire";
  if (is_barrier_stack(kind)) {
    // Barrier device: the FTL absorbs the failure to keep epoch order.
    EXPECT_EQ(x.dev().stats().in_device_retries, 1u);
    EXPECT_EQ(x.stack->blk().stats().io_retries, 0u);
  } else {
    // Legacy device: the block layer's bounded retry re-drives the write.
    EXPECT_EQ(x.stack->blk().stats().io_retries, 1u);
    EXPECT_EQ(x.stack->blk().stats().transient_faults, 1u);
  }
  EXPECT_EQ(x.stack->blk().stats().io_failures, 0u);
  EXPECT_FALSE(x.fs().degraded());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TransientFaultTest,
                         testing::ValuesIn(kKinds));

TEST(TransientFaultRetryTest, RetryIntoAFullWindowWaitsForASlot) {
  // The retry watcher re-dispatches a faulted command itself. 300
  // scattered single-block writes keep the legacy device's NCQ window
  // full for milliseconds, so the first write's retry (1 ms after its
  // fault) finds no free slot and must wait for one, then land.
  StackFixture x(StackKind::kExt4DR);
  blk::BlockLayer& blk = x.stack->blk();
  FaultPlan plan;
  plan.add(FaultSpec{FaultKind::kTransientProgram, /*at_op=*/1,
                     flash::kAnyLba, /*torn_keep=*/0, /*count=*/1});
  x.dev().install_fault_plan(&plan);
  std::vector<blk::RequestPtr> reqs;
  std::uint64_t busy_at_retry = 0;
  auto body = [&]() -> Task {
    for (flash::Lba i = 0; i < 300; ++i) {
      const flash::Lba lba = 400 + 2 * i;  // scattered: nothing merges
      reqs.push_back(blk.pool().make_write({{lba, blk.next_version()}}));
      blk.submit(reqs.back());
    }
    co_await x.sim().delay(blk::kIoRetryBackoff);
    busy_at_retry = x.dev().queue_depth();
    for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(plan.stats().total(), 1u) << "the fault must actually fire";
  EXPECT_EQ(busy_at_retry, x.dev().profile().queue_depth);
  EXPECT_EQ(blk.stats().io_retries, 1u);
  EXPECT_EQ(blk.stats().io_failures, 0u);
  for (const blk::RequestPtr& r : reqs) EXPECT_FALSE(r->failed());
  EXPECT_EQ(x.dev().stats().writes, 301u);
}

// ---- 1b. read faults on a page-cache miss ----------------------------------

class ReadFaultTest : public testing::TestWithParam<StackKind> {};

TEST_P(ReadFaultTest, TransientReadFaultIsRetriedOnce) {
  StackFixture x(GetParam());
  FaultPlan plan;
  fs::FsStatus st = fs::FsStatus::kIo;
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f);
    plan.add(FaultSpec{FaultKind::kTransientRead, /*at_op=*/0, flash::kAnyLba,
                       /*torn_keep=*/0, /*count=*/1});
    x.dev().install_fault_plan(&plan);
    st = co_await x.fs().read(*f, 5, 1);  // never written: page-cache miss
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(st, fs::FsStatus::kOk);
  EXPECT_EQ(plan.stats().transient_read, 1u);
  EXPECT_EQ(x.stack->blk().stats().transient_faults, 1u);
  EXPECT_EQ(x.stack->blk().stats().io_retries, 1u);
  EXPECT_EQ(x.stack->blk().stats().io_failures, 0u);
}

TEST_P(ReadFaultTest, HardMediaReadFailsThroughWithoutRetry) {
  StackFixture x(GetParam());
  FaultPlan plan;
  fs::FsStatus bad = fs::FsStatus::kOk;
  fs::FsStatus next = fs::FsStatus::kIo;
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f);
    plan.add(FaultSpec{FaultKind::kHardMedia, /*at_op=*/0, f->lba_of_page(5),
                       /*torn_keep=*/0, /*count=*/1});
    x.dev().install_fault_plan(&plan);
    bad = co_await x.fs().read(*f, 5, 1);
    next = co_await x.fs().read(*f, 6, 1);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(bad, fs::FsStatus::kIo);
  EXPECT_EQ(next, fs::FsStatus::kOk);
  EXPECT_EQ(plan.stats().hard_media, 1u);
  EXPECT_EQ(x.stack->blk().stats().hard_faults, 1u);
  EXPECT_EQ(x.stack->blk().stats().io_failures, 1u);
  EXPECT_EQ(x.stack->blk().stats().io_retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReadFaultTest, testing::ValuesIn(kKinds));

// ---- 2. hard data fault: EIO once per fd, then clears ----------------------

class HardDataFaultTest : public testing::TestWithParam<StackKind> {};

TEST_P(HardDataFaultTest, FsyncReportsEIOOnceThenRecovers) {
  const StackKind kind = GetParam();
  StackFixture x(kind);
  api::Vfs vfs(*x.stack);
  FaultPlan plan;
  auto body = [&]() -> Task {
    api::File f = api::must(co_await vfs.open("a", {.create = true}));
    // Hard media fault pinned to this file's first data block: the data
    // writeback carrier fails post-retry, the journal is untouched.
    const fs::Inode* ino = x.fs().lookup("a");
    BIO_CHECK(ino != nullptr);
    plan.add(FaultSpec{FaultKind::kHardMedia, /*at_op=*/0,
                       ino->lba_of_page(0), /*torn_keep=*/0, /*count=*/1});
    x.dev().install_fault_plan(&plan);

    api::must(co_await vfs.pwrite(f.fd(), 0, 1));
    // Durability-waiting syncs (DR stacks) see the failed carrier on the
    // first fsync; ordering-only syncs (OD stacks) return before the
    // transfer lands and report it on the next one (errseq). Either way:
    // EIO exactly once, then the redirtied page re-lands and it clears.
    std::vector<Errno> seen;
    for (int i = 0; i < 4; ++i) {
      api::Status st = co_await vfs.sync(f.fd(), api::Syscall::kFsync);
      seen.push_back(st.ok() ? Errno::kOk : st.error());
      co_await x.sim().delay(2'000'000);  // let background carriers land
    }
    int eio_at = -1;
    for (int i = 0; i < 4; ++i) {
      if (seen[i] == Errno::kIo) {
        EXPECT_EQ(eio_at, -1) << "EIO must be reported exactly once per fd";
        eio_at = i;
      } else {
        EXPECT_EQ(seen[i], Errno::kOk) << api::to_string(seen[i]);
      }
    }
    EXPECT_NE(eio_at, -1) << "the failed writeback must surface as EIO";
    EXPECT_LE(eio_at, 1);

    // A data-writeback failure never degrades the volume.
    EXPECT_FALSE(x.fs().degraded());
    api::must(co_await vfs.pwrite(f.fd(), 1, 1));
    api::must(co_await vfs.sync(f.fd(), api::Syscall::kFsync));
    api::must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(plan.stats().hard_media, 1u);
  EXPECT_EQ(x.stack->blk().stats().io_failures, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HardDataFaultTest,
                         testing::ValuesIn(kKinds));

// ---- 2b. closing the fd under an in-flight sync keeps its EIO --------------

Task fsync_into(api::Vfs* vfs, api::Fd fd, api::Status* out) {
  *out = co_await vfs->sync(fd, api::Syscall::kFsync);
}

class ClosedFdSyncFaultTest : public testing::TestWithParam<StackKind> {};

TEST_P(ClosedFdSyncFaultTest, SyncWhoseFdClosedMidFlightStillReportsEIO) {
  // The fsync's own data carrier hard-fails while another thread closes
  // its descriptor. The caller is still waiting on that fsync and must
  // get EIO: Linux's fsync holds the struct file, so close() cannot hide
  // f_wb_err. Before the fix the dead incarnation returned success — a
  // durability lie the fault sweep caught as an acked write that never
  // reached the device.
  const StackKind kind = GetParam();
  StackFixture x(kind);
  api::Vfs vfs(*x.stack);
  FaultPlan plan;
  api::Status synced;
  auto body = [&]() -> Task {
    api::File f = api::must(co_await vfs.open("a", {.create = true}));
    const fs::Inode* ino = x.fs().lookup("a");
    BIO_CHECK(ino != nullptr);
    plan.add(FaultSpec{FaultKind::kHardMedia, /*at_op=*/0,
                       ino->lba_of_page(0), /*torn_keep=*/0, /*count=*/1});
    x.dev().install_fault_plan(&plan);
    api::must(co_await vfs.pwrite(f.fd(), 0, 1));
    // iolint: detached-owner(x.sim().run() below drains the sync before
    // vfs and `synced` leave scope)
    x.sim().spawn("sync", fsync_into(&vfs, f.fd(), &synced));
    co_await x.sim().yield();  // the fsync submits and suspends
    api::must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(plan.stats().hard_media, 1u);
  EXPECT_EQ(synced.error(), Errno::kIo)
      << "got " << api::to_string(synced.error());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ClosedFdSyncFaultTest,
                         testing::ValuesIn(kKinds));

// ---- 3. journal fault: EROFS degradation + remount recovery ----------------

class JournalFaultTest : public testing::TestWithParam<StackKind> {};

TEST_P(JournalFaultTest, JournalAbortDegradesReadOnlyAndRemountRecovers) {
  const StackKind kind = GetParam();
  core::StackConfig cfg = fs::testutil::test_stack_config(kind);
  StackFixture x(kind, &cfg);
  api::Vfs vfs(*x.stack);
  // Hard media faults across the head of the journal area: whichever block
  // the second commit's descriptor chain lands on, it dies (the journal
  // head starts at LBA 0 and only moves forward).
  FaultPlan plan;
  bool committed_first = false;
  auto body = [&]() -> Task {
    api::File f = api::must(co_await vfs.open("a", {.create = true}));
    // First commit is healthy: "a" page 0 becomes the last durable commit
    // the degraded volume must still serve (and remount must recover).
    api::must(co_await vfs.pwrite(f.fd(), 0, 1));
    api::must(co_await vfs.sync(f.fd(), api::Syscall::kFsync));
    committed_first = true;

    for (flash::Lba j = 0; j < 32; ++j)
      plan.add(FaultSpec{FaultKind::kHardMedia, /*at_op=*/0, j,
                         /*torn_keep=*/0, /*count=*/~0u});
    x.dev().install_fault_plan(&plan);

    // Second commit dies in the journal -> abort -> errors=remount-ro.
    api::must(co_await vfs.pwrite(f.fd(), 1, 1));
    api::Status st = co_await vfs.sync(f.fd(), api::Syscall::kFsync);
    if (kind == StackKind::kExt4DR || kind == StackKind::kBfsDR) {
      // Durability-waiting fsync rides the dying commit and must fail.
      EXPECT_FALSE(st.ok());
    }
    if (!st.ok()) {
      EXPECT_TRUE(st.error() == Errno::kIo || st.error() == Errno::kRoFs)
          << api::to_string(st.error());
    }
    // Ordering-only syncs may return before the abort lands; wait for the
    // background commit to die.
    for (int i = 0; i < 1000 && !x.fs().degraded(); ++i)
      co_await x.sim().delay(1'000'000);
    EXPECT_TRUE(x.fs().degraded());

    // Degraded: every mutation fails EROFS...
    api::Result<std::uint32_t> w = co_await vfs.pwrite(f.fd(), 2, 1);
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.error(), Errno::kRoFs);
    api::Result<api::File> c = co_await vfs.open("b", {.create = true});
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(c.error(), Errno::kRoFs);
    api::Status u = co_await vfs.unlink("a");
    EXPECT_FALSE(u.ok());
    EXPECT_EQ(u.error(), Errno::kRoFs);
    // ...every sync the journal runs included, and none of them counts.
    const fs::Filesystem::Stats before = x.fs().stats();
    for (api::Syscall call : kSyscalls) {
      if (!fs::supports(call, x.fs().config().journal)) continue;
      api::Status s = co_await vfs.sync(f.fd(), call);
      EXPECT_EQ(s.error(), Errno::kRoFs) << api::to_string(call);
    }
    EXPECT_EQ(x.fs().stats(), before);

    // ...but reads still work.
    api::Result<std::uint32_t> r = co_await vfs.pread(f.fd(), 0, 1);
    EXPECT_TRUE(r.ok()) << "reads must survive degradation";
    api::must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  ASSERT_TRUE(committed_first);
  ASSERT_TRUE(x.fs().degraded());

  // Remount over the recovered image: back to the last durable commit,
  // fully usable (reads AND writes).
  const fs::Recovery recovery(x.fs().journal(), x.fs().layout(),
                              x.fs().config());
  const fs::RecoveryReport report =
      recovery.recover(x.dev().durable_state());
  EXPECT_TRUE(report.clean());

  auto y = std::make_unique<core::Stack>(cfg);
  y->fs().mount(report);
  y->start();
  api::Vfs vfs2(*y);
  auto verify = [&]() -> Task {
    api::Result<api::File> f = co_await vfs2.open("a", {});
    EXPECT_TRUE(f.ok()) << "the first commit must survive recovery";
    if (!f.ok()) co_return;
    api::File file = f.value();
    api::must(co_await vfs2.pread(file.fd(), 0, 1));
    api::must(co_await vfs2.pwrite(file.fd(), 1, 1));
    api::must(co_await vfs2.sync(file.fd(), api::Syscall::kFsync));
    api::must(file.close());
  };
  y->sim().spawn("t", verify());
  y->sim().run();
  EXPECT_FALSE(y->fs().degraded());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, JournalFaultTest,
                         testing::ValuesIn(kKinds));

// ---- 4. ring: negative res + chain cancellation on EIO ---------------------

Sqe make_sqe(RingOp op, api::Fd fd, std::uint64_t ud, std::uint32_t page = 0,
             std::uint32_t npages = 0, std::uint8_t flags = 0) {
  Sqe s;
  s.op = op;
  s.fd = fd;
  s.page = page;
  s.npages = npages;
  s.flags = flags;
  s.user_data = ud;
  return s;
}

TEST(RingFaultTest, HardFaultYieldsNegativeResAndCancelsChain) {
  StackFixture x(StackKind::kExt4DR);
  api::Vfs vfs(*x.stack);
  FaultPlan plan;
  std::vector<Cqe> reaped;
  auto body = [&]() -> Task {
    api::File f = api::must(co_await vfs.open("a", {.create = true}));
    const fs::Inode* ino = x.fs().lookup("a");
    BIO_CHECK(ino != nullptr);
    plan.add(FaultSpec{FaultKind::kHardMedia, /*at_op=*/0,
                       ino->lba_of_page(0), /*torn_keep=*/0, /*count=*/1});
    x.dev().install_fault_plan(&plan);

    Ring ring(vfs);
    // write -> fsync -> write chain: the fsync sees the hard-faulted
    // writeback (EIO) and the linked tail cancels; the unlinked op runs.
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kWrite, f.fd(), 1, 0, 1, api::kSqeLink)));
    EXPECT_TRUE(ring.push(
        make_sqe(RingOp::kFsync, f.fd(), 2, 0, 0, api::kSqeLink)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kWrite, f.fd(), 3, 1, 1)));
    EXPECT_TRUE(ring.push(make_sqe(RingOp::kNop, f.fd(), 4)));
    EXPECT_EQ(ring.submit(), 4u);
    for (int i = 0; i < 4; ++i) reaped.push_back(co_await ring.wait_cqe());
    api::must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();

  ASSERT_EQ(reaped.size(), 4u);
  auto res_of = [&](std::uint64_t ud) {
    for (const Cqe& c : reaped)
      if (c.user_data == ud) return c.res;
    return std::int32_t{1000};
  };
  EXPECT_EQ(res_of(1), 1);     // the write itself is buffered, succeeds
  EXPECT_EQ(res_of(2), -5);    // -EIO from the failed writeback
  EXPECT_EQ(res_of(3), -125);  // -ECANCELED: linked behind the EIO
  EXPECT_EQ(res_of(4), 0);     // unlinked nop unaffected
}

// ---- 5. Errno table stays exhaustive ----------------------------------------

// Compile-time exhaustiveness: a new Errno enumerator without a row here is
// a -Wswitch error, forcing this test (and to_string) to be extended.
const char* expected_name(Errno e) {
  switch (e) {
    case Errno::kOk: return "OK";
    case Errno::kNoEnt: return "ENOENT";
    case Errno::kBadF: return "EBADF";
    case Errno::kNoSpc: return "ENOSPC";
    case Errno::kExist: return "EEXIST";
    case Errno::kInval: return "EINVAL";
    case Errno::kXDev: return "EXDEV";
    case Errno::kIo: return "EIO";
    case Errno::kRoFs: return "EROFS";
  }
  return nullptr;
}

TEST(ErrnoTest, ToStringCoversEveryEnumerator) {
  const Errno all[] = {Errno::kOk,    Errno::kNoEnt, Errno::kBadF,
                       Errno::kNoSpc, Errno::kExist, Errno::kInval,
                       Errno::kXDev,  Errno::kIo,    Errno::kRoFs};
  for (Errno e : all) {
    ASSERT_NE(expected_name(e), nullptr);
    EXPECT_STREQ(api::to_string(e), expected_name(e));
  }
  // Distinctness: no two errnos share a rendering.
  for (Errno a : all) {
    for (Errno b : all) {
      if (a != b) {
        EXPECT_STRNE(api::to_string(a), api::to_string(b));
      }
    }
  }
}

// ---- 6. a plan that fires nothing moves no completion ----------------------

class EmptyFaultPlanTest : public testing::TestWithParam<StackKind> {};

TEST_P(EmptyFaultPlanTest, EmptyPlanLeavesSyncLatenciesUnchanged) {
  // 400 write + full-sync ops on a plain SSD, once with no plan and once
  // with an installed plan that holds no fault: nothing fails, so every
  // completion must reach its waiters at the same simulated instant.
  wl::RandomWriteParams p;
  p.mode = wl::RandomWriteParams::Mode::kSyncFile;
  p.ops = 400;
  auto run = [&](bool install) {
    FaultPlan plan;
    core::Stack stack(core::StackConfig::make(
        GetParam(), flash::DeviceProfile::plain_ssd()));
    if (install) stack.device().install_fault_plan(&plan);
    return wl::run_random_write(stack, p, sim::Rng(1));
  };
  const wl::RandomWriteResult bare = run(false);
  const wl::RandomWriteResult planned = run(true);
  EXPECT_EQ(planned.ops_done, bare.ops_done);
  EXPECT_EQ(planned.elapsed, bare.elapsed);
  ASSERT_EQ(planned.sync_latency.count(), bare.sync_latency.count());
  for (const double pct : {0.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(planned.sync_latency.percentile(pct),
              bare.sync_latency.percentile(pct))
        << "p" << pct;
}

INSTANTIATE_TEST_SUITE_P(Stacks, EmptyFaultPlanTest,
                         testing::Values(StackKind::kExt4DR,
                                         StackKind::kBfsDR));

}  // namespace
}  // namespace bio
