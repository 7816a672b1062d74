// Tests for the api::Vfs mount table over a multi-volume core::Stack node:
// path routing ("/v0/file" -> volume 0's namespace), unknown-prefix ENOENT,
// cross-volume rename EXDEV, per-volume SyncPolicy resolution and per-volume
// statistics isolation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/vfs.h"
#include "fs_test_util.h"

namespace bio::api {
namespace {

using core::StackKind;
using fs::testutil::NodeFixture;
using fs::testutil::StackFixture;
using sim::Task;

const std::vector<StackKind> kHetero = {StackKind::kBfsDR,
                                        StackKind::kExt4DR};

// ---- path routing -----------------------------------------------------------

TEST(MountTest, PathsRouteToTheirVolumeNamespaces) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  ASSERT_EQ(vfs.mount_count(), 2u);
  auto body = [&]() -> Task {
    // The same relative name on both volumes: two distinct files.
    File a = must(co_await vfs.open("/v0/data", {.create = true}));
    File b = must(co_await vfs.open("/v1/data", {.create = true}));
    must(co_await a.pwrite(0, 3));
    must(co_await b.pwrite(0, 1));
    EXPECT_EQ(must(a.size_blocks()), 3u);
    EXPECT_EQ(must(b.size_blocks()), 1u) << "volumes must not share a file";
    EXPECT_NE(x.fs(0).lookup("data"), nullptr);
    EXPECT_NE(x.fs(1).lookup("data"), nullptr);
    EXPECT_EQ(x.fs(0).lookup("data")->size_blocks, 3u);
    EXPECT_EQ(x.fs(1).lookup("data")->size_blocks, 1u);
    must(a.close());
    must(b.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(MountTest, UnknownMountPrefixIsEnoent) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    EXPECT_EQ((co_await vfs.open("/ghost/f", {.create = true})).error(),
              Errno::kNoEnt)
        << "unknown mount prefix must not create anywhere";
    EXPECT_EQ((co_await vfs.open("plain", {.create = true})).error(),
              Errno::kNoEnt)
        << "no root mount: unrouted names have no home";
    EXPECT_EQ((co_await vfs.unlink("/ghost/f")).error(), Errno::kNoEnt);
    EXPECT_EQ((co_await vfs.rename("/ghost/a", "/ghost/b")).error(),
              Errno::kNoEnt);
    // Mount points themselves are not files.
    EXPECT_EQ((co_await vfs.open("/v0", {.create = true})).error(),
              Errno::kInval);
    EXPECT_EQ((co_await vfs.open("/v0/", {.create = true})).error(),
              Errno::kInval);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_GT(vfs.stats().errors, 4u);
}

TEST(MountTest, RootMountCoexistsWithNamedMounts) {
  // A node whose first volume is unnamed: it becomes the root mount and
  // owns every name no named mount claims — the single-volume workloads'
  // names keep resolving while "/v1/..." routes to the second volume.
  core::NodeConfig cfg;
  cfg.volumes.push_back(fs::testutil::test_stack_config(StackKind::kBfsDR));
  cfg.volumes.push_back(fs::testutil::test_stack_config(StackKind::kExt4DR));
  cfg.volumes[1].name = "v1";
  NodeFixture x({}, &cfg);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File r = must(co_await vfs.open("plain", {.create = true}));
    File m = must(co_await vfs.open("/v1/plain", {.create = true}));
    must(co_await r.pwrite(0, 2));
    must(co_await m.pwrite(0, 1));
    EXPECT_NE(x.fs(0).lookup("plain"), nullptr);
    EXPECT_NE(x.fs(1).lookup("plain"), nullptr);
    // An unmatched "/x/y" name falls back to the root mount verbatim.
    File odd = must(co_await vfs.open("/no-such-mount/y", {.create = true}));
    EXPECT_NE(x.fs(0).lookup("/no-such-mount/y"), nullptr);
    must(odd.close());
    must(r.close());
    must(m.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(MountTest, DuplicateMountNameIsEexist) {
  StackFixture x(StackKind::kExt4DR);
  Vfs vfs(*x.stack);  // root mount
  EXPECT_EQ(vfs.mount("", x.stack->fs(),
                      SyncPolicy::for_stack(StackKind::kExt4DR))
                .error(),
            Errno::kExist);
  must(vfs.mount("extra", x.stack->fs(),
                 SyncPolicy::for_stack(StackKind::kExt4DR)));
  EXPECT_EQ(vfs.mount("extra", x.stack->fs(),
                      SyncPolicy::for_stack(StackKind::kExt4DR))
                .error(),
            Errno::kExist);
}

// ---- rename -----------------------------------------------------------------

TEST(MountTest, CrossVolumeRenameIsExdev) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File f = must(co_await vfs.open("/v0/a", {.create = true}));
    must(f.close());
    EXPECT_EQ((co_await vfs.rename("/v0/a", "/v1/a")).error(), Errno::kXDev)
        << "a file must not silently migrate between volumes";
    // Source untouched by the failed rename.
    EXPECT_NE(x.fs(0).lookup("a"), nullptr);
    EXPECT_EQ(x.fs(1).lookup("a"), nullptr);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(vfs.stats().renames, 0u);
}

TEST(MountTest, SameVolumeRenameMovesTheFile) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File f = must(co_await vfs.open("/v0/old", {.create = true}));
    must(co_await f.pwrite(0, 2));
    must(co_await vfs.rename("/v0/old", "/v0/new"));
    EXPECT_EQ((co_await vfs.open("/v0/old")).error(), Errno::kNoEnt);
    File g = must(co_await vfs.open("/v0/new"));
    EXPECT_EQ(must(g.size_blocks()), 2u) << "rename must keep the data";
    // The descriptor opened before the rename stays usable.
    must(co_await f.pwrite(2, 1));
    EXPECT_EQ(must(g.size_blocks()), 3u);
    must(f.close());
    must(g.close());
    EXPECT_EQ((co_await vfs.rename("/v0/ghost", "/v0/x")).error(),
              Errno::kNoEnt);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(vfs.stats().renames, 1u);
  EXPECT_EQ(x.fs(0).stats().renames, 1u);
}

TEST(MountTest, RenameReplacesTargetAndDefersItsReclamation) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File victim = must(
        co_await vfs.open("/v0/target", {.create = true, .extent_blocks = 8}));
    must(co_await victim.pwrite(0, 4));
    File src = must(
        co_await vfs.open("/v0/src", {.create = true, .extent_blocks = 8}));
    must(co_await src.pwrite(0, 1));
    must(co_await vfs.rename("/v0/src", "/v0/target"));
    // The name now resolves to the renamed file...
    File now = must(co_await vfs.open("/v0/target"));
    EXPECT_EQ(must(now.size_blocks()), 1u);
    // ...while the displaced file stays alive through its descriptor.
    must(co_await victim.pwrite(4, 1));
    EXPECT_EQ(must(victim.size_blocks()), 5u);
    must(now.close());
    must(victim.close());
    must(src.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- per-volume policy and statistics ---------------------------------------

TEST(MountTest, SyncIntentsResolvePerVolume) {
  NodeFixture x(kHetero);  // v0 BFS-DR, v1 EXT4-DR
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File a = must(co_await vfs.open("/v0/f", {.create = true}));
    File b = must(co_await vfs.open("/v1/f", {.create = true}));
    must(co_await a.pwrite(0, 1));
    must(co_await b.pwrite(0, 1));
    must(co_await a.order_point());
    must(co_await b.order_point());
    must(a.close());
    must(b.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs(0).stats().fdatabarriers, 1u)
      << "BFS-DR volume resolves order to fdatabarrier";
  EXPECT_EQ(x.fs(0).stats().fdatasyncs, 0u);
  EXPECT_EQ(x.fs(1).stats().fdatasyncs, 1u)
      << "EXT4-DR volume resolves order to fdatasync";
  EXPECT_EQ(x.fs(1).stats().fdatabarriers, 0u);
}

TEST(MountTest, PerVolumeStatisticsStayIsolated) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
  auto body = [&]() -> Task {
    File a = must(co_await vfs.open("/v0/only", {.create = true}));
    must(co_await a.pwrite(0, 2));
    must(co_await a.fsync());
    must(co_await vfs.unlink("/v0/only"));
    must(a.close());
    EXPECT_EQ((co_await vfs.open("/v1/nope")).error(), Errno::kNoEnt);
  };
  x.sim().spawn("t", body());
  x.sim().run();
  // Volume-level filesystem stats: all activity on v0, none on v1.
  EXPECT_GT(x.fs(0).stats().writes, 0u);
  EXPECT_EQ(x.fs(0).stats().fsyncs, 1u);
  EXPECT_EQ(x.fs(0).stats().unlinks, 1u);
  EXPECT_EQ(x.fs(1).stats().writes, 0u);
  EXPECT_EQ(x.fs(1).stats().fsyncs, 0u);
  EXPECT_EQ(x.fs(1).stats().creates, 0u);
  // Mount-level Vfs stats mirror the split, including the error tick.
  const Vfs::Stats* v0 = vfs.stats_of("v0");
  const Vfs::Stats* v1 = vfs.stats_of("v1");
  ASSERT_NE(v0, nullptr);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v0->opens, 1u);
  EXPECT_EQ(v0->creates, 1u);
  EXPECT_EQ(v0->unlinks, 1u);
  EXPECT_EQ(v0->closes, 1u);
  EXPECT_EQ(v1->opens, 0u);
  EXPECT_EQ(v1->errors, 1u);
  EXPECT_EQ(vfs.stats().opens, 1u) << "node-wide stats aggregate all mounts";
  EXPECT_EQ(vfs.stats_of("ghost"), nullptr);
}

TEST(MountTest, SameFilesystemUnderTwoMountsKeepsPerMountSemantics) {
  // One filesystem bind-mounted twice with different policies: the mount
  // travels with the *descriptor* (struct file -> vfsmount), so a file
  // already open through the first mount still gets the second mount's
  // policy and stats when reached through it.
  StackFixture x(StackKind::kBfsDR);
  Vfs vfs(*x.stack);  // root mount: the BFS-DR row
  must(vfs.mount("relaxed", x.stack->fs(),
                 SyncPolicy::for_stack(StackKind::kBfsOD)));
  auto body = [&]() -> Task {
    File a = must(co_await vfs.open("f", {.create = true}));
    File b = must(co_await vfs.open("/relaxed/f"));  // same file, same vnode
    must(co_await a.pwrite(0, 1));
    must(co_await a.durability_point());  // BFS-DR row: fdatasync
    must(co_await b.pwrite(1, 1));
    must(co_await b.durability_point());  // BFS-OD row: fdatabarrier
    must(a.close());
    must(b.close());
  };
  x.sim().spawn("t", body());
  x.sim().run();
  EXPECT_EQ(x.fs().stats().fdatasyncs, 1u);
  EXPECT_EQ(x.fs().stats().fdatabarriers, 1u)
      << "the second mount's policy must win for its own descriptor";
  EXPECT_EQ(vfs.stats_of("")->opens, 1u);
  EXPECT_EQ(vfs.stats_of("")->closes, 1u);
  EXPECT_EQ(vfs.stats_of("relaxed")->opens, 1u);
  EXPECT_EQ(vfs.stats_of("relaxed")->closes, 1u)
      << "closes must land on the mount the fd was opened through";
}

}  // namespace
}  // namespace bio::api
