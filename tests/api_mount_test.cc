// Tests for the api::Vfs mount table over a multi-volume core::Stack node:
// path routing ("/v0/file" -> volume 0's namespace), unknown-prefix ENOENT,
// the volume-name checks, cross-volume rename EXDEV, per-volume SyncPolicy
// resolution and per-volume statistics isolation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/vfs.h"
#include "fs_test_util.h"

namespace bio::api {
namespace {

using core::StackKind;
using fs::testutil::NodeFixture;
using sim::Task;

const std::vector<StackKind> kHetero = {StackKind::kBfsDR,
                                        StackKind::kExt4DR};

// ---- path routing -----------------------------------------------------------

TEST(MountTest, PathsRouteToTheirVolumeNamespaces) {
  NodeFixture x(kHetero);
  Vfs vfs(*x.node);
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

TEST(MountTest, UnroutableVolumeNamesFailTheMount) {
  // Each name routes to one volume, and a name is one path component: a
  // repeated name (two unnamed volumes are two root mounts) or an embedded
  // '/' could never be routed, so the Vfs refuses the node.
  const auto node_named = [](std::vector<std::string> names) {
    core::NodeConfig cfg;
    for (std::string& name : names) {
      cfg.volumes.push_back(
          fs::testutil::test_stack_config(StackKind::kExt4DR));
      cfg.volumes.back().name = std::move(name);
    }
    return cfg;
  };
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"a", "a"}, {"", ""}, {"a", "b/c"}}) {
    const core::NodeConfig cfg = node_named(names);
    NodeFixture x({}, &cfg);
    EXPECT_THROW({ Vfs vfs(*x.node); }, CheckFailure)
        << names[0] << ", " << names[1];
  }
  const core::NodeConfig cfg = node_named({"", "a"});
  NodeFixture x({}, &cfg);
  EXPECT_NO_THROW({ Vfs vfs(*x.node); }) << "a root and a named mount";
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
  EXPECT_EQ(vfs.stats().opens, 1u) << "node-wide stats count every mount";
  EXPECT_EQ(vfs.stats().errors, 1u);
}

}  // namespace
}  // namespace bio::api
