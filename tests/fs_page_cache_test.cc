// Tests for the page cache's indexed dirty/writeback tracking: dirty ->
// writeback -> clean transitions, dirty-count invariants, lazy completion
// sweeps, and drop_file mid-writeback.
#include <gtest/gtest.h>

#include <vector>

#include "blk/request_pool.h"
#include "fs/page_cache.h"
#include "sim/simulator.h"

namespace bio::fs {
namespace {

using blk::RequestPtr;
using PageKey = PageCache::PageKey;

struct Fixture {
  sim::Simulator sim;
  blk::RequestPool pool{sim};
  PageCache cache{sim};

  RequestPtr wb_request(flash::Lba lba) { return pool.make_write({{lba, 1}}); }

  /// The carriers cache.writebacks_of(ino) reports (and sweeps).
  std::vector<RequestPtr> writebacks(std::uint32_t ino) {
    blk::RequestList out;
    cache.writebacks_of(ino, out);
    return {out.begin(), out.end()};
  }
};

TEST(PageCacheTest, DirtyWritebackCleanTransitionsKeepCounts) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  x.cache.write(2, 0, 200, 3, false);
  EXPECT_EQ(x.cache.dirty_count(), 3u);
  EXPECT_TRUE(x.cache.check_index_invariants());

  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 2u);
  EXPECT_EQ(x.writebacks(1).size(), 1u);
  EXPECT_TRUE(x.cache.check_index_invariants());

  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_TRUE(x.writebacks(1).empty());
  EXPECT_EQ(x.cache.dirty_count(), 2u) << "clean page stays cached";
  EXPECT_EQ(x.cache.total_pages(), 3u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DirtyPagesOfIsPerFileAndOrdered) {
  Fixture x;
  x.cache.write(7, 5, 705, 1, false);
  x.cache.write(7, 1, 701, 2, false);
  x.cache.write(9, 0, 900, 3, false);
  x.cache.write(7, 3, 703, 4, false);
  const std::vector<PageKey> dirty = x.cache.dirty_pages_of(7);
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0].page, 1u);
  EXPECT_EQ(dirty[1].page, 3u);
  EXPECT_EQ(dirty[2].page, 5u);
  EXPECT_TRUE(x.cache.dirty_pages_of(8).empty());
}

TEST(PageCacheTest, AllDirtyHonoursLimitAndGlobalOrder) {
  Fixture x;
  x.cache.write(2, 1, 21, 1, false);
  x.cache.write(1, 9, 19, 2, false);
  x.cache.write(1, 0, 10, 3, false);
  x.cache.write(3, 4, 34, 4, false);
  const std::vector<PageKey> all = x.cache.all_dirty(3);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ((std::pair{all[0].ino, all[0].page}), (std::pair{1u, 0u}));
  EXPECT_EQ((std::pair{all[1].ino, all[1].page}), (std::pair{1u, 9u}));
  EXPECT_EQ((std::pair{all[2].ino, all[2].page}), (std::pair{2u, 1u}));
}

TEST(PageCacheTest, RewriteDuringWritebackKeepsCarrierVisible) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 0u);

  // New version while the old write is in flight: dirty again, but the old
  // request is still physically in flight and MUST stay visible — a sync
  // path that cannot see it would submit the new version concurrently and
  // the two copies could land out of order (the write-after-write hazard
  // the crash checker caught).
  x.cache.write(1, 0, 100, 9, true);
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  {
    const std::vector<RequestPtr> wb = x.writebacks(1);
    ASSERT_EQ(wb.size(), 1u) << "in-flight carrier must remain tracked";
    EXPECT_EQ(wb[0], r);
  }
  EXPECT_TRUE(x.cache.check_index_invariants());

  // The stale request completing must not clear the new dirty state.
  r->completion.trigger();
  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  EXPECT_TRUE(x.writebacks(1).empty());
  const PageCache::PageState* st = x.cache.find(1, 0);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->dirty);
  EXPECT_EQ(st->version, 9u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, WritebacksOfSweepsCompletedCarriers) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  RequestPtr a = x.wb_request(100);
  RequestPtr b = x.wb_request(101);
  x.cache.begin_writeback(PageKey{1, 0}, a);
  x.cache.begin_writeback(PageKey{1, 1}, b);
  EXPECT_EQ(x.writebacks(1).size(), 2u);

  a->completion.trigger();
  const std::vector<RequestPtr> wb = x.writebacks(1);
  ASSERT_EQ(wb.size(), 1u) << "completed carrier must be swept";
  EXPECT_EQ(wb[0], b);
  const PageCache::PageState* st = x.cache.find(1, 0);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->writeback, nullptr) << "sweep must drop the stale reference";
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, MarkCleanMaintainsCountAndIndex) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, true);
  x.cache.write(1, 1, 101, 2, true);
  EXPECT_EQ(x.cache.dirty_count(), 2u);
  x.cache.mark_clean(PageKey{1, 0});
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  x.cache.mark_clean(PageKey{1, 0});  // idempotent on a clean page
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  EXPECT_EQ(x.cache.dirty_pages_of(1).size(), 1u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DropFileMidWritebackPurgesEverything) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  x.cache.write(1, 2, 102, 3, false);
  x.cache.write(2, 0, 200, 4, false);
  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);  // page 0 in flight
  EXPECT_EQ(x.cache.dirty_count(), 3u);

  x.cache.drop_file(1);
  EXPECT_EQ(x.cache.dirty_count(), 1u) << "only ino 2's page remains dirty";
  EXPECT_EQ(x.cache.total_pages(), 1u);
  EXPECT_TRUE(x.cache.dirty_pages_of(1).empty());
  EXPECT_TRUE(x.writebacks(1).empty());
  EXPECT_EQ(x.cache.find(1, 0), nullptr);
  EXPECT_TRUE(x.cache.check_index_invariants());

  // The in-flight request finishing afterwards must be harmless.
  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DropFileIsScopedToOneIno) {
  Fixture x;
  for (std::uint32_t ino : {1u, 2u, 3u})
    for (std::uint32_t page = 0; page < 4; ++page)
      x.cache.write(ino, page, ino * 100 + page, page + 1, false);
  EXPECT_EQ(x.cache.dirty_count(), 12u);
  x.cache.drop_file(2);
  EXPECT_EQ(x.cache.dirty_count(), 8u);
  EXPECT_EQ(x.cache.dirty_pages_of(1).size(), 4u);
  EXPECT_EQ(x.cache.dirty_pages_of(3).size(), 4u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

}  // namespace
}  // namespace bio::fs
