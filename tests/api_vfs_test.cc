// Tests for the handle-based VFS layer: descriptor lifecycle, per-fd
// offsets, errno paths, and the SyncPolicy substitution table — including
// parity between Vfs-resolved intents and direct policy-row issuance for
// every StackKind.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "api/ring.h"
#include "api/vfs.h"
#include "fs_test_util.h"
#include "sim/sync.h"

namespace bio::api {
namespace {

using core::StackKind;
using fs::testutil::StackFixture;
using sim::Task;

constexpr StackKind kAllKinds[] = {StackKind::kExt4DR, StackKind::kExt4OD,
                                   StackKind::kBfsDR, StackKind::kBfsOD,
                                   StackKind::kOptFs};

// ---- descriptor lifecycle ---------------------------------------------------

TEST(VfsTest, OpenAllocatesLowestFdAndCloseRecyclesIt) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File a = must(co_await vfs.open("a", {.create = true}));
    File b = must(co_await vfs.open("b", {.create = true}));
    EXPECT_EQ(a.fd(), 0);
    EXPECT_EQ(b.fd(), 1);
    EXPECT_EQ(vfs.open_fds(), 2u);

    // Same file again: new fd, shared vnode, still counted.
    File a2 = must(co_await vfs.open("a"));
    EXPECT_EQ(a2.fd(), 2);

    must(a.close());
    File c = must(co_await vfs.open("c", {.create = true}));
    EXPECT_EQ(c.fd(), 0) << "lowest free fd must be recycled";
    EXPECT_EQ(vfs.open_fds(), 3u);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(vfs.stats().opens, 4u);
  EXPECT_EQ(vfs.stats().creates, 3u);
}

TEST(VfsTest, EveryFdSyscallReturnsEbadfAfterClose) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(co_await vfs.open("a", {.create = true}));
    const Fd fd = f.fd();
    must(co_await vfs.pwrite(fd, 0, 1));
    must(f.close());
    EXPECT_FALSE(f.valid());

    EXPECT_EQ((co_await vfs.pwrite(fd, 0, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.pread(fd, 0, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.read(fd, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.write(fd, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.append(fd, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.sync(fd, Syscall::kFsync)).error(), Errno::kBadF);
    EXPECT_EQ((co_await vfs.sync(fd, Syscall::kFdatasync)).error(),
              Errno::kBadF);
    EXPECT_EQ((co_await vfs.sync(fd, SyncIntent::kOrder)).error(),
              Errno::kBadF);
    EXPECT_EQ(vfs.size_blocks(fd).error(), Errno::kBadF);
    EXPECT_EQ(vfs.offset(fd).error(), Errno::kBadF);
    EXPECT_EQ(vfs.seek(fd, 0).error(), Errno::kBadF);
    EXPECT_EQ(vfs.close(fd).error(), Errno::kBadF) << "double close";
    EXPECT_EQ(vfs.close(-1).error(), Errno::kBadF);
    EXPECT_EQ(vfs.close(99).error(), Errno::kBadF);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GT(vfs.stats().errors, 10u);
}

// ---- namespace errno paths --------------------------------------------------

TEST(VfsTest, OpenMissingIsEnoentExclusiveExistingIsEexist) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    EXPECT_EQ((co_await vfs.open("ghost")).error(), Errno::kNoEnt);
    File f = must(co_await vfs.open("a", {.create = true}));
    EXPECT_EQ(
        (co_await vfs.open("a", {.create = true, .exclusive = true})).error(),
        Errno::kExist);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, DoubleUnlinkIsEnoentAndOpenFdSurvivesUnlink) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(co_await vfs.open("a", {.create = true}));
    must(co_await vfs.unlink("a"));
    EXPECT_EQ((co_await vfs.unlink("a")).error(), Errno::kNoEnt)
        << "second unlink of the same name";
    EXPECT_EQ((co_await vfs.open("a")).error(), Errno::kNoEnt)
        << "unlinked name must not resolve";

    // POSIX: the open descriptor keeps the file alive and writable.
    must(co_await f.pwrite(0, 2));
    must(co_await f.fsync());
    EXPECT_EQ(must(f.size_blocks()), 2u);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, OpenFdSurvivesInoRecycling) {
  // While a descriptor is open, unlink must defer recycling: a new file
  // created afterwards must get neither the ino slot's vnode nor the old
  // file's extent, and the old fd keeps addressing the old storage.
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File old_f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    const flash::Lba old_base = x.fs().lookup("a")->extent_base;
    must(co_await vfs.unlink("a"));
    File new_f = must(
        co_await vfs.open("b", {.create = true, .extent_blocks = 8}));
    EXPECT_NE(x.fs().lookup("b")->extent_base, old_base)
        << "extent must not be recycled while the old fd is open";
    must(co_await old_f.pwrite(0, 2));
    must(co_await new_f.pwrite(0, 1));
    EXPECT_EQ(must(old_f.size_blocks()), 2u);
    EXPECT_EQ(must(new_f.size_blocks()), 1u) << "descriptors must not alias";
    must(co_await old_f.fsync());
    must(old_f.close());
    // Last close reclaims: the next create of the same size may now reuse
    // the old extent.
    File c = must(
        co_await vfs.open("c", {.create = true, .extent_blocks = 8}));
    EXPECT_EQ(x.fs().lookup("c")->extent_base, old_base)
        << "reclamation must happen at last close";
    must(c.close());
    must(new_f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, LastCloseDuringUnlinkWaitDoesNotRecycleTheHeldInode) {
  // The filesystem recycles Inode objects. unlink updates the inode after
  // its journal waits, and the last close may reclaim the file while
  // unlink sits in one: the reclaimed object must not reach a create
  // until that unlink has finished with it. EXT4-DR's page-conflict rule
  // parks the unlink behind the committing transaction that holds the
  // victim's directory block.
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  File victim;
  File other;
  const fs::Inode* victim_inode = nullptr;
  auto setup = [&]() -> Task {
    victim = must(co_await vfs.open("victim", {.create = true}));
    other = must(co_await vfs.open("other", {.create = true}));
    victim_inode = x.fs().lookup("victim");
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  const std::uint64_t commits = x.fs().journal().stats().commits;
  bool unlink_returned = false;
  // Commits the running transaction, which holds both creates.
  auto syncer = [&]() -> Task { must(co_await other.fsync()); };
  auto unlinker = [&]() -> Task {
    while (x.fs().journal().stats().commits == commits)
      co_await x.sim().delay(100);
    must(co_await vfs.unlink("victim"));
    unlink_returned = true;
  };
  auto closer = [&]() -> Task {
    while (x.fs().stats().unlinks == 0) co_await x.sim().delay(100);
    must(victim.close());  // the last close reclaims the unlinked file
    EXPECT_FALSE(unlink_returned)
        << "the close and the create must race the unlink's journal wait "
           "for this test to bite";
    // create picks its Inode before its first suspension.
    File fresh = must(co_await vfs.open("fresh", {.create = true}));
    EXPECT_NE(x.fs().lookup("fresh"), victim_inode)
        << "an inode a suspended unlink holds went to a new file";
    must(fresh.close());
  };
  x.sim().spawn("sync", syncer());
  x.sim().spawn("unlink", unlinker());
  x.sim().spawn("close", closer());
  x.sim().run();
  EXPECT_TRUE(unlink_returned);

  // Once the unlink let go of it, the reclaimed object is free again.
  auto after = [&]() -> Task {
    File later = must(co_await vfs.open("later", {.create = true}));
    EXPECT_EQ(x.fs().lookup("later"), victim_inode)
        << "the reclaimed inode went back to the free list";
    must(later.close());
    must(other.close());
  };
  x.sim().spawn("after", after());
  x.sim().run();
}

TEST(VfsTest, CreateUndoneByConcurrentUnlinkIsEnoent) {
  // create publishes the new name before its journal waits. An unlink of
  // that name meanwhile reclaims the file, which no descriptor holds yet:
  // open must not hand out a descriptor on the reclaimed inode. EXT4-DR's
  // page-conflict rule parks the create behind the committing transaction
  // that holds the inode block of the ino it recycles.
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  File other;
  auto setup = [&]() -> Task {
    other = must(co_await vfs.open("other", {.create = true}));
    File old = must(co_await vfs.open("old", {.create = true}));
    must(old.close());
    must(co_await vfs.unlink("old"));  // the next create reuses its ino
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  const std::uint64_t commits = x.fs().journal().stats().commits;
  std::optional<Result<File>> created;
  auto syncer = [&]() -> Task { must(co_await other.fsync()); };
  auto creator = [&]() -> Task {
    while (x.fs().journal().stats().commits == commits)
      co_await x.sim().delay(100);
    created = co_await vfs.open("x", {.create = true});
  };
  auto unlinker = [&]() -> Task {
    while (x.fs().lookup("x") == nullptr) co_await x.sim().delay(100);
    EXPECT_FALSE(created.has_value())
        << "the unlink must race the create's journal wait for this test "
           "to bite";
    must(co_await vfs.unlink("x"));
  };
  x.sim().spawn("sync", syncer());
  x.sim().spawn("create", creator());
  x.sim().spawn("unlink", unlinker());
  x.sim().run();
  ASSERT_TRUE(created.has_value());
  EXPECT_EQ(created->error(), Errno::kNoEnt);
  EXPECT_EQ(x.fs().lookup("x"), nullptr);
  EXPECT_EQ(vfs.open_fds(), 1u) << "only `other` is open";
  must(other.close());
}

TEST(VfsTest, ConcurrentAppendersGetDisjointPages) {
  // Both threads read EOF before either write completes; the append
  // reservation must still hand them disjoint pages (O_APPEND atomicity).
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  Fd fd_a = kInvalidFd;
  Fd fd_b = kInvalidFd;
  auto setup = [&]() -> Task {
    fd_a = must(co_await vfs.open("log",
                                  {.create = true, .extent_blocks = 16}))
               .fd();
    fd_b = must(co_await vfs.open("log")).fd();
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  auto appender = [&vfs](Fd fd) -> Task {
    for (int i = 0; i < 3; ++i) must(co_await vfs.append(fd, 1));
  };
  x.sim().spawn("a", appender(fd_a));
  x.sim().spawn("b", appender(fd_b));
  x.sim().run();
  EXPECT_EQ(must(vfs.size_blocks(fd_a)), 6u)
      << "6 appends must yield 6 pages, not overlapping writes";
}

TEST(VfsTest, HugeOffsetsFailCleanlyInsteadOfWrapping) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    must(co_await f.pwrite(0, 2));
    // uint32 page+npages would wrap to 1 and pass the bounds check.
    EXPECT_EQ((co_await f.pwrite(0xFFFFFFFFu, 2)).error(), Errno::kNoSpc);
    // A seek past 2^32 pages must not truncate to a low page.
    must(vfs.seek(f.fd(), std::uint64_t{1} << 32));
    EXPECT_EQ(must(co_await f.read(1)), 0u) << "far offset reads EOF";
    EXPECT_EQ((co_await f.write(1)).error(), Errno::kNoSpc);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, CloseDuringInflightIoDefersReclamation) {
  // Thread A suspends inside a write; thread B unlinks and closes the only
  // fd. The in-flight syscall pins the vnode, so the extent must not be
  // handed to a new file until A's IO completes.
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  Fd fd = kInvalidFd;
  flash::Lba base = 0;
  auto setup = [&]() -> Task {
    fd = must(co_await vfs.open("victim",
                                {.create = true, .extent_blocks = 8}))
             .fd();
    base = x.fs().lookup("victim")->extent_base;
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  auto writer = [&]() -> Task {
    must(co_await vfs.pwrite(fd, 0, 4));  // suspends in the write syscall
  };
  auto closer = [&]() -> Task {
    must(co_await vfs.unlink("victim"));
    must(vfs.close(fd));
    File fresh = must(
        co_await vfs.open("fresh", {.create = true, .extent_blocks = 8}));
    EXPECT_NE(x.fs().lookup("fresh")->extent_base, base)
        << "extent must stay pinned while A's write is in flight";
    must(fresh.close());
  };
  x.sim().spawn("a", writer());
  x.sim().spawn("b", closer());
  x.sim().run();

  // After everything drains the vnode is gone and the extent is reusable.
  auto after = [&]() -> Task {
    File again = must(
        co_await vfs.open("again", {.create = true, .extent_blocks = 8}));
    EXPECT_EQ(x.fs().lookup("again")->extent_base, base)
        << "reclamation must happen once the in-flight IO finished";
    must(again.close());
  };
  x.sim().spawn("c", after());
  x.sim().run();
  EXPECT_EQ(vfs.open_fds(), 0u);
}

TEST(VfsTest, FdReuseDuringInflightIoDoesNotCorruptNewOffset) {
  // Thread A suspends inside write(fd); thread B closes the fd and reopens
  // the SAME file into the recycled slot. A's completion must not advance
  // the new descriptor's offset (generation check, fd-reuse ABA).
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  Fd fd = kInvalidFd;
  auto setup = [&]() -> Task {
    File f = must(co_await vfs.open("shared",
                                    {.create = true, .extent_blocks = 16}));
    must(co_await f.pwrite(0, 8));  // pre-size so offset-writes stay inside
    fd = f.fd();
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  auto writer = [&]() -> Task {
    (void)co_await vfs.write(fd, 2);  // suspends; fd is recycled meanwhile
  };
  auto recycler = [&]() -> Task {
    must(vfs.close(fd));
    File f2 = must(co_await vfs.open("shared"));
    EXPECT_EQ(f2.fd(), fd) << "slot must be recycled for the test to bite";
  };
  x.sim().spawn("a", writer());
  x.sim().spawn("b", recycler());
  x.sim().run();
  EXPECT_EQ(must(vfs.offset(fd)), 0u)
      << "the reopened descriptor must start at offset 0";
}

TEST(VfsTest, CloseDuringSuspendedSyncKeepsVnodeAlive) {
  // The fd-lifecycle edge of the concurrent sweep, directed: a sync
  // (fsync/fbarrier per capability) suspends against the vnode; the fd is
  // closed — and the whole file unlinked — while the sync is in flight.
  // The pinned vnode must survive until the sync returns; the sync must
  // still complete successfully; reclamation happens afterwards.
  for (StackKind kind : kAllKinds) {
    StackFixture x(kind);
    Vfs vfs(*x.stack);
    Fd fd = kInvalidFd;
    flash::Lba base = 0;
    auto setup = [&]() -> Task {
      File f = must(co_await vfs.open("victim",
                                      {.create = true, .extent_blocks = 8}));
      must(co_await f.pwrite(0, 4));  // dirty data: the sync has work to do
      fd = f.fd();
      base = x.fs().lookup("victim")->extent_base;
    };
    x.sim().spawn("setup", setup());
    x.sim().run();

    bool sync_returned = false;
    auto syncer = [&]() -> Task {
      // fbarrier where the journal supports it, fsync elsewhere — both pin
      // the vnode across their suspensions.
      Status s = kind == StackKind::kBfsDR || kind == StackKind::kBfsOD
                     ? co_await vfs.sync(fd, Syscall::kFbarrier)
                     : co_await vfs.sync(fd, Syscall::kFsync);
      EXPECT_TRUE(s.ok()) << core::to_string(kind);
      sync_returned = true;
    };
    auto closer = [&]() -> Task {
      co_await x.sim().yield();  // let the sync suspend first
      must(co_await vfs.unlink("victim"));
      must(vfs.close(fd));
      EXPECT_FALSE(sync_returned)
          << core::to_string(kind)
          << ": close must have raced the in-flight sync for this test "
             "to bite";
      // Double-close of the now-free slot: EBADF, not a crash and not a
      // foreign descriptor.
      EXPECT_EQ(vfs.close(fd).error(), Errno::kBadF);
    };
    x.sim().spawn("sync", syncer());
    x.sim().spawn("close", closer());
    x.sim().run();
    EXPECT_TRUE(sync_returned) << core::to_string(kind);
    EXPECT_EQ(vfs.open_fds(), 0u);

    // The unlinked file's storage is reclaimed only after the sync's pin
    // dropped — a fresh create now reuses the extent.
    auto after = [&]() -> Task {
      File again = must(
          co_await vfs.open("again", {.create = true, .extent_blocks = 8}));
      EXPECT_EQ(x.fs().lookup("again")->extent_base, base)
          << core::to_string(kind);
      must(again.close());
    };
    x.sim().spawn("after", after());
    x.sim().run();
  }
}

TEST(VfsTest, DoubleCloseIsEbadfOnEveryPath) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(co_await vfs.open("a", {.create = true}));
    const Fd fd = f.fd();
    must(f.close());
    EXPECT_FALSE(f.valid());
    // Handle-level double close: the File already invalidated itself.
    EXPECT_EQ(f.close().error(), Errno::kBadF);
    // Raw-fd double close on the free slot.
    EXPECT_EQ(vfs.close(fd).error(), Errno::kBadF);
    // A copied handle still naming the stale fd is EBADF too.
    File copy = must(co_await vfs.open("a"));
    File alias = copy;
    must(copy.close());
    EXPECT_EQ(alias.close().error(), Errno::kBadF);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(vfs.stats().closes, 2u);
  EXPECT_GE(vfs.stats().errors, 3u);
}

// ---- seek / short-read boundary semantics -----------------------------------

TEST(VfsTest, SeekPastEofReadsShortAndNeverTouchesUnmappedPages) {
  // seek(2) past EOF (even past the extent) is legal; the following read
  // returns 0 at/past EOF and a short count across it — and the device
  // never sees a read of an unmapped page.
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("f", {.create = true, .extent_blocks = 16}));
    must(co_await f.pwrite(0, 4));  // size = 4 pages
    const std::uint64_t reads0 = x.fs().stats().reads;
    const std::uint64_t dev_reads0 = x.dev().stats().reads;

    // At EOF exactly: 0, offset unchanged.
    must(vfs.seek(f.fd(), 4));
    EXPECT_EQ(must(co_await f.read(2)), 0u);
    EXPECT_EQ(must(vfs.offset(f.fd())), 4u);

    // Past EOF but inside the extent: still 0.
    must(vfs.seek(f.fd(), 9));
    EXPECT_EQ(must(co_await f.read(1)), 0u);

    // Past the extent entirely, and a 64-bit offset far past any page the
    // cast-to-page path could alias back into range: still 0, no crash.
    must(vfs.seek(f.fd(), 64));
    EXPECT_EQ(must(co_await f.read(4)), 0u);
    must(vfs.seek(f.fd(), (1ull << 33) + 5));
    EXPECT_EQ(must(co_await f.read(4)), 0u);

    // Short read across EOF: 3 pages from offset 1, not 8.
    must(vfs.seek(f.fd(), 1));
    EXPECT_EQ(must(co_await f.read(8)), 3u);
    EXPECT_EQ(must(vfs.offset(f.fd())), 4u);

    // pread mirrors the same boundaries positionally.
    EXPECT_EQ(must(co_await f.pread(4, 2)), 0u);
    EXPECT_EQ(must(co_await f.pread(100, 2)), 0u);
    EXPECT_EQ(must(co_await f.pread(2, 8)), 2u);

    // Nothing above may have read an unmapped page: every filesystem read
    // stayed within [0, size) (and the boundary reads did no IO at all).
    EXPECT_EQ(x.fs().stats().reads - reads0, 2u)
        << "only the two short reads actually read";
    EXPECT_EQ(x.dev().stats().reads, dev_reads0)
        << "cache-resident pages: the device must see no read";

    // Writing through a past-EOF offset is ENOSPC beyond the extent but
    // legal inside it (sparse-ish allocating write).
    must(vfs.seek(f.fd(), 64));
    EXPECT_EQ((co_await f.write(1)).error(), Errno::kNoSpc);
    must(vfs.seek(f.fd(), 12));
    EXPECT_EQ(must(co_await f.write(2)), 2u);
    EXPECT_EQ(must(f.size_blocks()), 14u);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, DefaultConstructedFileReturnsEbadfNotCrash) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f;  // never opened
    EXPECT_FALSE(f.valid());
    EXPECT_EQ((co_await f.pwrite(0, 1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await f.append(1)).error(), Errno::kBadF);
    EXPECT_EQ((co_await f.fsync()).error(), Errno::kBadF);
    EXPECT_EQ((co_await f.sync_file()).error(), Errno::kBadF);
    EXPECT_EQ(f.size_blocks().error(), Errno::kBadF);
    EXPECT_EQ(f.close().error(), Errno::kBadF);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, WriteBeyondExtentAndInodeExhaustionAreEnospc) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("small", {.create = true, .extent_blocks = 4}));
    must(co_await f.pwrite(0, 4));  // fills the reserved extent
    EXPECT_EQ((co_await f.pwrite(3, 2)).error(), Errno::kNoSpc);
    EXPECT_EQ((co_await f.append(1)).error(), Errno::kNoSpc);
    must(f.close());

    // Exhaust the inode table (max_inodes=64, inos 16..63 usable).
    std::uint32_t created = 0;
    Errno last = Errno::kOk;
    for (int i = 0; i < 100; ++i) {
      Result<File> r = co_await vfs.open(
          "f" + std::to_string(i), {.create = true, .extent_blocks = 1});
      if (!r.ok()) {
        last = r.error();
        break;
      }
      must(r.value().close());
      ++created;
    }
    EXPECT_EQ(last, Errno::kNoSpc);
    EXPECT_GT(created, 16u);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- per-fd offsets ---------------------------------------------------------

TEST(VfsTest, PerFdOffsetsAreIndependentAcrossSimulatedThreads) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  Fd fd_a = kInvalidFd;
  Fd fd_b = kInvalidFd;
  auto setup = [&]() -> Task {
    fd_a = must(co_await vfs.open("shared",
                                  {.create = true, .extent_blocks = 64}))
               .fd();
    fd_b = must(co_await vfs.open("shared")).fd();
  };
  x.sim().spawn("setup", setup());
  x.sim().run();

  auto writer = [&vfs](Fd fd, int n) -> Task {
    for (int i = 0; i < n; ++i) must(co_await vfs.write(fd, 1));
  };
  x.sim().spawn("a", writer(fd_a, 3));
  x.sim().spawn("b", writer(fd_b, 5));
  x.sim().run();

  EXPECT_EQ(must(vfs.offset(fd_a)), 3u)
      << "fd A's offset must not see fd B's writes";
  EXPECT_EQ(must(vfs.offset(fd_b)), 5u);
  EXPECT_EQ(must(vfs.size_blocks(fd_a)), 5u)
      << "both descriptors share one inode";
}

TEST(VfsTest, ReadAdvancesOffsetAndIsShortAtEof) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 16}));
    must(co_await f.pwrite(0, 3));
    EXPECT_EQ(must(co_await f.read(2)), 2u);
    EXPECT_EQ(must(co_await f.read(2)), 1u) << "short read at EOF";
    EXPECT_EQ(must(co_await f.read(2)), 0u) << "at EOF";
    must(vfs.seek(f.fd(), 1));
    EXPECT_EQ(must(co_await f.read(8)), 2u);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(VfsTest, AppendWritesAtEofThroughAnyDescriptor) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File a = must(
        co_await vfs.open("log", {.create = true, .extent_blocks = 16}));
    File b = must(co_await vfs.open("log"));
    must(co_await a.append(2));
    must(co_await b.append(1));
    must(co_await a.append(1));
    EXPECT_EQ(must(a.size_blocks()), 4u);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- SyncPolicy -------------------------------------------------------------

TEST(SyncPolicyTest, TableMatchesPaperSubstitution) {
  const SyncPolicy ext4 = SyncPolicy::for_stack(StackKind::kExt4DR);
  EXPECT_EQ(ext4.order, Syscall::kFdatasync);
  EXPECT_EQ(ext4.durability, Syscall::kFdatasync);
  EXPECT_EQ(ext4.full_sync, Syscall::kFsync);
  EXPECT_EQ(SyncPolicy::for_stack(StackKind::kExt4OD), ext4)
      << "nobarrier changes the mount, not the syscalls";

  const SyncPolicy bfs_dr = SyncPolicy::for_stack(StackKind::kBfsDR);
  EXPECT_EQ(bfs_dr.order, Syscall::kFdatabarrier);
  EXPECT_EQ(bfs_dr.durability, Syscall::kFdatasync);
  EXPECT_EQ(bfs_dr.full_sync, Syscall::kFsync);

  const SyncPolicy bfs_od = SyncPolicy::for_stack(StackKind::kBfsOD);
  EXPECT_EQ(bfs_od.order, Syscall::kFdatabarrier);
  EXPECT_EQ(bfs_od.durability, Syscall::kFdatabarrier);
  EXPECT_EQ(bfs_od.full_sync, Syscall::kFbarrier);

  const SyncPolicy optfs = SyncPolicy::for_stack(StackKind::kOptFs);
  EXPECT_EQ(optfs.order, Syscall::kOsync);
  EXPECT_EQ(optfs.durability, Syscall::kOsync);
  EXPECT_EQ(optfs.full_sync, Syscall::kOsync);
}

/// One write+sync per intent, issuing the policy table's row directly
/// against the filesystem (no Vfs layer in the loop).
fs::Filesystem::Stats run_with_policy_rows(StackKind kind) {
  StackFixture x(kind);
  const SyncPolicy policy = SyncPolicy::for_stack(kind);
  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("a", f, 64);
    co_await x.fs().write(*f, 0, 1);
    EXPECT_EQ(co_await x.fs().sync(*f, policy.order),
              fs::FsStatus::kOk);
    co_await x.fs().write(*f, 1, 1);
    EXPECT_EQ(co_await x.fs().sync(*f, policy.durability),
              fs::FsStatus::kOk);
    co_await x.fs().write(*f, 2, 1);
    EXPECT_EQ(co_await x.fs().sync(*f, policy.full_sync),
              fs::FsStatus::kOk);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  return x.fs().stats();
}

/// The same sequence through Vfs + SyncPolicy intents.
fs::Filesystem::Stats run_with_vfs_policy(StackKind kind) {
  StackFixture x(kind);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 64}));
    must(co_await f.pwrite(0, 1));
    must(co_await f.order_point());
    must(co_await f.pwrite(1, 1));
    must(co_await f.durability_point());
    must(co_await f.pwrite(2, 1));
    must(co_await f.sync_file());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  return x.fs().stats();
}

TEST(SyncPolicyTest, VfsIntentsMatchDirectPolicyIssuance) {
  for (StackKind kind : kAllKinds) {
    const fs::Filesystem::Stats old_path = run_with_policy_rows(kind);
    const fs::Filesystem::Stats new_path = run_with_vfs_policy(kind);
    EXPECT_EQ(old_path.fsyncs, new_path.fsyncs) << core::to_string(kind);
    EXPECT_EQ(old_path.fdatasyncs, new_path.fdatasyncs)
        << core::to_string(kind);
    EXPECT_EQ(old_path.fbarriers, new_path.fbarriers) << core::to_string(kind);
    EXPECT_EQ(old_path.fdatabarriers, new_path.fdatabarriers)
        << core::to_string(kind);
    EXPECT_EQ(old_path.osyncs, new_path.osyncs) << core::to_string(kind);
    EXPECT_EQ(old_path.writes, new_path.writes) << core::to_string(kind);
  }
}

// ---- the OptFS dsync row ----------------------------------------------------

TEST(SyncPolicyTest, DsyncRowMatchesOptFsSubstitution) {
  const SyncPolicy dsync = SyncPolicy::optfs_dsync();
  EXPECT_EQ(dsync.order, Syscall::kOsync)
      << "ordering stays the optimistic osync";
  EXPECT_EQ(dsync.durability, Syscall::kDsync);
  EXPECT_EQ(dsync.full_sync, Syscall::kDsync);
}

TEST(SyncPolicyTest, DsyncVfsIntentsMatchDirectPolicyIssuance) {
  // Parity between direct row issuance and Vfs-resolved intents, as the
  // main table's parity test does — for the dsync row on the OptFS stack.
  auto direct = []() {
    StackFixture x(StackKind::kOptFs);
    const SyncPolicy policy = SyncPolicy::optfs_dsync();
    auto body = [&]() -> Task {
      fs::Inode* f = nullptr;
      co_await x.fs().create("a", f, 64);
      co_await x.fs().write(*f, 0, 1);
      EXPECT_EQ(co_await x.fs().sync(*f, policy.order),
                fs::FsStatus::kOk);
      co_await x.fs().write(*f, 1, 1);
      EXPECT_EQ(co_await x.fs().sync(*f, policy.durability),
                fs::FsStatus::kOk);
      co_await x.fs().write(*f, 2, 1);
      EXPECT_EQ(co_await x.fs().sync(*f, policy.full_sync),
                fs::FsStatus::kOk);
    };
    x.sim().spawn("t", body());
    x.sim().run();
    return x.fs().stats();
  }();
  auto via_vfs = []() {
    StackFixture x(StackKind::kOptFs);
    Vfs vfs(x.fs(), SyncPolicy::optfs_dsync());
    auto body = [&]() -> Task {
      File f = must(
          co_await vfs.open("a", {.create = true, .extent_blocks = 64}));
      must(co_await f.pwrite(0, 1));
      must(co_await f.order_point());
      must(co_await f.pwrite(1, 1));
      must(co_await f.durability_point());
      must(co_await f.pwrite(2, 1));
      must(co_await f.sync_file());
    };
    x.sim().spawn("t", body());
    x.sim().run();
    return x.fs().stats();
  }();
  EXPECT_EQ(direct.osyncs, via_vfs.osyncs);
  EXPECT_EQ(direct.dsyncs, via_vfs.dsyncs);
  EXPECT_EQ(via_vfs.dsyncs, 2u) << "durability and full-sync use dsync";
  EXPECT_EQ(direct.writes, via_vfs.writes);
  EXPECT_EQ(direct.fsyncs, 0u);
  EXPECT_EQ(via_vfs.fsyncs, 0u);
}

TEST(SyncPolicyTest, DsyncMakesDataDurableAtReturnWhereOsyncDoesNot) {
  // The row's point: osync's durability is delayed (data may sit in the
  // device cache at return), dsync's data is on media at return while
  // metadata keeps the optimistic protocol.
  auto durable_after_durability_point = [](SyncPolicy policy,
                                           bool& cache_dirty) {
    StackFixture x(StackKind::kOptFs);
    Vfs vfs(x.fs(), policy);
    bool durable = false;
    auto body = [&]() -> Task {
      File f = must(
          co_await vfs.open("a", {.create = true, .extent_blocks = 16}));
      must(co_await f.pwrite(0, 4));
      must(co_await f.durability_point());
      const fs::Inode* inode = x.fs().lookup("a");
      durable = true;
      for (std::uint32_t p = 0; p < 4; ++p)
        durable = durable &&
                  x.dev().durable_state().contains(inode->lba_of_page(p));
      cache_dirty = x.dev().cache().dirty_count() > 0;
      must(f.close());
    };
    x.sim().spawn("t", body());
    x.sim().run();
    return durable;
  };
  bool osync_cache_dirty = false;
  bool dsync_cache_dirty = false;
  EXPECT_FALSE(durable_after_durability_point(
      SyncPolicy::for_stack(StackKind::kOptFs), osync_cache_dirty))
      << "osync must not flush — durability is delayed by design";
  EXPECT_TRUE(osync_cache_dirty);
  EXPECT_TRUE(durable_after_durability_point(SyncPolicy::optfs_dsync(),
                                             dsync_cache_dirty))
      << "dsync data must be on media at return";
}

TEST(SyncPolicyTest, IncompatiblePolicyRowIsEinvalNotAbort) {
  // The dsync row on a non-OptFS stack: policy-resolved intents must
  // surface the mismatch as a modelled errno, not a simulation abort.
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    must(f.set_policy(SyncPolicy::optfs_dsync()));
    must(co_await f.pwrite(0, 1));
    EXPECT_EQ((co_await f.durability_point()).error(), Errno::kInval);
    EXPECT_EQ((co_await f.sync_file()).error(), Errno::kInval);
    // The osync order point is equally foreign to JBD2.
    EXPECT_EQ((co_await f.order_point()).error(), Errno::kInval);
    // Direct barrier syscalls hit the same capability matrix.
    EXPECT_EQ((co_await f.fbarrier()).error(), Errno::kInval);
    EXPECT_EQ((co_await f.fdatabarrier()).error(), Errno::kInval);
    // Restoring the stack's own row makes the file syncable again.
    must(f.set_policy(SyncPolicy::for_stack(StackKind::kExt4DR)));
    must(co_await f.durability_point());
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().dsyncs, 0u);
}

TEST(SyncPolicyTest, PerFileOverrideBeatsVfsDefault) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 16}));
    // Demote this one file to the BFS-OD row: durability relaxed to
    // ordering — the per-call-site flexibility the paper's §5 argues for.
    must(f.set_policy(SyncPolicy::for_stack(StackKind::kBfsOD)));
    must(co_await f.pwrite(0, 1));
    must(co_await f.durability_point());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().fdatabarriers, 1u)
      << "override must resolve durability to fdatabarrier";
  EXPECT_EQ(x.fs().stats().fdatasyncs, 0u);
}

TEST(SyncPolicyTest, OverrideIsSharedAcrossFdsOfOneFile) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File a = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 16}));
    File b = must(co_await vfs.open("a"));
    must(a.set_policy(SyncPolicy::for_stack(StackKind::kBfsOD)));
    EXPECT_EQ(must(vfs.policy_of(b.fd())),
              SyncPolicy::for_stack(StackKind::kBfsOD))
        << "policy lives on the vnode, not the descriptor";
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- ring chaos: close() and destruction racing in-flight sqes --------------
// The chaos contract (DESIGN.md §10): a Ring never touches freed state when
// the application closes descriptors under it or destroys the ring with
// traffic still outstanding. Late completions surface as -EBADF (dead fd at
// issue time) or -ECANCELED (chain predecessor failed / ring closed), never
// as a crash.

using namespace sim::literals;

TEST(RingChaosTest, CloseBeforeDispatchFailsChainWithEbadfThenEcanceled) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    Ring ring(vfs);
    Sqe w;
    w.op = RingOp::kWrite;
    w.fd = f.fd();
    w.npages = 1;
    w.flags = kSqeLink;
    w.user_data = 1;
    Sqe s;
    s.op = RingOp::kFdatasync;
    s.fd = f.fd();
    s.flags = kSqeLink;
    s.user_data = 2;
    Sqe w2 = w;
    w2.flags = 0;
    w2.user_data = 3;
    EXPECT_TRUE(ring.push(w));
    EXPECT_TRUE(ring.push(s));
    EXPECT_TRUE(ring.push(w2));
    EXPECT_EQ(ring.submit(), 3u);
    // The sqes passed submit-time validation against a live fd; the close
    // lands before the chain driver's first event. Every op must now fail
    // cleanly at issue time — no late write through a recycled descriptor.
    must(f.close());
    const Cqe a = co_await ring.wait_cqe();
    const Cqe b = co_await ring.wait_cqe();
    const Cqe c = co_await ring.wait_cqe();
    EXPECT_EQ(a.user_data, 1u);
    EXPECT_EQ(a.res, -9) << "first op issued against the dead fd";
    EXPECT_EQ(b.user_data, 2u);
    EXPECT_EQ(b.res, kECanceled) << "linked successor cancels";
    EXPECT_EQ(c.user_data, 3u);
    EXPECT_EQ(c.res, kECanceled) << "chain tail cancels too";
    // The file itself is untouched.
    File g = must(co_await vfs.open("a"));
    EXPECT_EQ(must(g.size_blocks()), 0u);
    must(g.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(RingChaosTest, CloseRacingInFlightSqeLetsItFinishThenFailsSuccessor) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  sim::Notify sync_started(x.sim());
  Fd victim = kInvalidFd;
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    Ring ring(vfs);
    // Wake the closer the moment the fdatasync is issued, so the close
    // lands while that sqe is suspended mid-journal-commit — genuinely in
    // flight, not merely queued.
    ring.set_on_op_start([&](const Sqe& sqe) {
      if (sqe.user_data == 2) sync_started.notify_all();
    });
    Sqe w;
    w.op = RingOp::kWrite;
    w.fd = f.fd();
    w.npages = 4;
    w.flags = kSqeLink;
    w.user_data = 1;
    Sqe s;
    s.op = RingOp::kFdatasync;
    s.fd = f.fd();
    s.flags = kSqeLink;
    s.user_data = 2;
    Sqe w2;
    w2.op = RingOp::kWrite;
    w2.fd = f.fd();
    w2.page = 4;
    w2.npages = 1;
    w2.user_data = 3;
    EXPECT_TRUE(ring.push(w));
    EXPECT_TRUE(ring.push(s));
    EXPECT_TRUE(ring.push(w2));
    victim = f.fd();
    EXPECT_EQ(ring.submit(), 3u);
    const Cqe a = co_await ring.wait_cqe();
    EXPECT_EQ(a.user_data, 1u);
    EXPECT_EQ(a.res, 4);
    const Cqe b = co_await ring.wait_cqe();
    const Cqe c = co_await ring.wait_cqe();
    // The in-flight fdatasync pinned the vnode: it completes despite the
    // racing close. Its linked successor issues after the close and fails.
    EXPECT_EQ(b.user_data, 2u);
    EXPECT_EQ(b.res, 0) << "close cannot revoke an issued sync";
    EXPECT_EQ(c.user_data, 3u);
    EXPECT_EQ(c.res, -9) << "successor issued against the dead fd";
    // The synced data survived the descriptor churn.
    File g = must(co_await vfs.open("a"));
    EXPECT_EQ(must(g.size_blocks()), 4u);
    must(g.close());
  };
  auto closer = [&]() -> Task {
    co_await sync_started.wait();
    // Runs strictly after the fdatasync suspended into the journal.
    must(vfs.close(victim));
  };
  x.sim().spawn("closer", closer());
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(RingChaosTest, DestructionWithUnreapedCqesIsClean) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    {
      Ring ring(vfs);
      for (std::uint64_t i = 0; i < 3; ++i) {
        Sqe w;
        w.op = RingOp::kWrite;
        w.fd = f.fd();
        w.page = static_cast<std::uint32_t>(i);
        w.npages = 1;
        w.user_data = i;
        EXPECT_TRUE(ring.push(w));
      }
      EXPECT_EQ(ring.submit(), 3u);
      while (ring.in_flight() > 0) co_await x.sim().delay(10 * 1_us);
      EXPECT_EQ(ring.cq_ready(), 3u);
      // Destroyed with every completion still queued: the cqes die with
      // the ring, the writes they describe do not.
    }
    must(co_await f.fsync());
    EXPECT_EQ(must(f.size_blocks()), 3u);
    must(f.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(RingChaosTest, DestructionWithOpsInFlightOrphansThemSafely) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  sim::Notify write_started(x.sim());
  auto ring = std::make_unique<Ring>(vfs);
  auto body = [&]() -> Task {
    File f = must(
        co_await vfs.open("a", {.create = true, .extent_blocks = 8}));
    ring->set_on_op_start([&](const Sqe& sqe) {
      if (sqe.user_data == 1) write_started.notify_all();
    });
    Sqe w;
    w.op = RingOp::kWrite;
    w.fd = f.fd();
    w.npages = 2;
    w.flags = kSqeLink;
    w.user_data = 1;
    Sqe s;
    s.op = RingOp::kFsync;
    s.fd = f.fd();
    s.user_data = 2;
    EXPECT_TRUE(ring->push(w));
    EXPECT_TRUE(ring->push(s));
    EXPECT_EQ(ring->submit(), 2u);
    EXPECT_EQ(ring->in_flight(), 2u);
    // The killer destroys the ring while the write is suspended mid-issue.
    // The orphaned driver finishes that write against the (live) Vfs, then
    // notices the closed core and abandons the rest of the chain.
    co_await x.sim().delay(5 * 1_ms);
    EXPECT_EQ(must(f.size_blocks()), 2u)
        << "the in-flight write still landed";
    must(f.close());
  };
  auto killer = [&]() -> Task {
    co_await write_started.wait();
    ring.reset();  // mid-flight destruction
  };
  x.sim().spawn("killer", killer());
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(ring, nullptr);
}

TEST(RingChaosTest, WaitCqeOnDestroyedRingReturnsEcanceled) {
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);
  bool waiter_done = false;
  auto ring = std::make_unique<Ring>(vfs);
  auto waiter = [&]() -> Task {
    const Cqe cqe = co_await ring->wait_cqe();
    EXPECT_EQ(cqe.res, kECanceled)
        << "a waiter outliving the ring reaps a canceled cqe, not garbage";
    waiter_done = true;
  };
  auto killer = [&]() -> Task {
    co_await x.sim().delay(1 * 1_ms);
    ring.reset();  // destroys the Ring under the sleeping waiter
  };
  x.sim().spawn("waiter", waiter());
  x.sim().spawn("killer", killer());
  x.sim().run();
  EXPECT_TRUE(waiter_done);
}

}  // namespace
}  // namespace bio::api
