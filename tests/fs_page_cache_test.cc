// Tests for the page cache's indexed dirty/writeback tracking: dirty ->
// writeback -> clean transitions, dirty-count invariants, lazy completion
// sweeps, drop_file mid-writeback, and a differential run against an
// ordered-map reference model.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "blk/request_pool.h"
#include "fs/page_cache.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace bio::fs {
namespace {

using blk::RequestPtr;
using PageKey = PageCache::PageKey;

/// The dirty pages of `ino`, through the scratch-buffer call the sync
/// paths make.
std::vector<PageKey> dirty_pages_of(const PageCache& cache,
                                    std::uint32_t ino) {
  std::vector<PageKey> out;
  cache.dirty_pages_of(ino, out);
  return out;
}

/// pdflush's view at `limit`, through its scratch-buffer call.
std::vector<PageKey> all_dirty(const PageCache& cache, std::size_t limit) {
  std::vector<PageKey> out;
  cache.all_dirty(limit, out);
  return out;
}

struct Fixture {
  sim::Simulator sim;
  blk::RequestPool pool{sim};
  PageCache cache{sim};

  RequestPtr wb_request(flash::Lba lba) { return pool.make_write({{lba, 1}}); }

  /// The carriers cache.writebacks_of(ino) reports (and sweeps).
  std::vector<RequestPtr> writebacks(std::uint32_t ino) {
    blk::RequestList out;
    cache.writebacks_of(ino, &out);
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

  r->completion.trigger();
  EXPECT_TRUE(x.writebacks(1).empty()) << "the sweep drops the carrier";
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
  const std::vector<PageKey> dirty = dirty_pages_of(x.cache, 7);
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0].page, 1u);
  EXPECT_EQ(dirty[1].page, 3u);
  EXPECT_EQ(dirty[2].page, 5u);
  EXPECT_TRUE(dirty_pages_of(x.cache, 8).empty());
}

TEST(PageCacheTest, AllDirtyHonoursLimitAndGlobalOrder) {
  Fixture x;
  x.cache.write(2, 1, 21, 1, false);
  x.cache.write(1, 9, 19, 2, false);
  x.cache.write(1, 0, 10, 3, false);
  x.cache.write(3, 4, 34, 4, false);
  const std::vector<PageKey> all = all_dirty(x.cache, 3);
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

  // The stale request completing (and being swept) must not clear the new
  // dirty state.
  r->completion.trigger();
  EXPECT_TRUE(x.writebacks(1).empty());
  EXPECT_EQ(x.cache.dirty_count(), 1u);
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
  EXPECT_EQ(dirty_pages_of(x.cache, 1).size(), 1u);
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
  EXPECT_TRUE(dirty_pages_of(x.cache, 1).empty());
  EXPECT_TRUE(x.writebacks(1).empty());
  EXPECT_EQ(x.cache.find(1, 0), nullptr);
  EXPECT_TRUE(x.cache.check_index_invariants());

  // The in-flight request finishing afterwards must be harmless.
  r->completion.trigger();
  EXPECT_TRUE(x.writebacks(1).empty());
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
  EXPECT_EQ(dirty_pages_of(x.cache, 1).size(), 4u);
  EXPECT_EQ(dirty_pages_of(x.cache, 3).size(), 4u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

// ---- differential run against a reference model ---------------------------

/// The page cache's contract over one ordered map of pages, the shape of
/// the implementation the radix tables replaced.
class ReferenceCache {
 public:
  struct Page {
    flash::Lba lba = 0;
    flash::Version version = 0;
    bool dirty = false;
    bool overwrite = false;
    RequestPtr writeback;
  };
  using Map = std::map<PageKey, Page>;

  void write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
             flash::Version version, bool overwrite) {
    Page& p = pages_[PageKey{ino, page}];
    p.lba = lba;
    p.version = version;
    p.overwrite = overwrite;
    p.dirty = true;
  }

  std::vector<PageKey> dirty_pages_of(std::uint32_t ino) const {
    std::vector<PageKey> out;
    for (auto it = begin(ino); it != end(ino); ++it)
      if (it->second.dirty) out.push_back(it->first);
    return out;
  }

  std::vector<PageKey> all_dirty(std::size_t limit) const {
    std::vector<PageKey> out;
    for (const auto& [key, p] : pages_) {
      if (out.size() >= limit) break;
      if (p.dirty) out.push_back(key);
    }
    return out;
  }

  void writebacks_of(std::uint32_t ino, std::vector<RequestPtr>& out,
                     bool& swept_completed, bool& swept_failed) {
    swept_completed = false;
    swept_failed = false;
    for (auto it = begin(ino); it != end(ino); ++it) {
      Page& p = it->second;
      if (p.writeback == nullptr) continue;
      if (!p.writeback->completion.is_set()) {
        out.push_back(p.writeback);
        continue;
      }
      if (p.writeback->failed()) {
        swept_failed = true;
        p.dirty = true;
      }
      swept_completed = true;
      p.writeback = nullptr;
    }
  }

  void begin_writeback(const PageKey& key, RequestPtr req) {
    Page& p = pages_.at(key);
    p.dirty = false;
    p.writeback = std::move(req);
  }

  std::size_t redirty_failed(std::uint32_t ino, const RequestPtr& req) {
    std::size_t redirtied = 0;
    for (auto it = begin(ino); it != end(ino); ++it) {
      Page& p = it->second;
      if (p.writeback != req) continue;
      p.writeback = nullptr;
      if (!p.dirty) {
        p.dirty = true;
        ++redirtied;
      }
    }
    return redirtied;
  }

  void mark_clean(const PageKey& key) { pages_.at(key).dirty = false; }

  void drop_file(std::uint32_t ino) { pages_.erase(begin(ino), end(ino)); }

  const Page* find(std::uint32_t ino, std::uint32_t page) const {
    auto it = pages_.find(PageKey{ino, page});
    return it == pages_.end() ? nullptr : &it->second;
  }

  std::size_t dirty_count() const {
    std::size_t n = 0;
    for (const auto& kv : pages_) n += kv.second.dirty ? 1 : 0;
    return n;
  }

  /// Cached pages of `ino`, ascending.
  std::vector<std::uint32_t> pages_of(std::uint32_t ino) const {
    std::vector<std::uint32_t> out;
    for (auto it = begin(ino); it != end(ino); ++it)
      out.push_back(it->first.page);
    return out;
  }

 private:
  /// [begin(ino), end(ino)) are `ino`'s pages.
  Map::iterator begin(std::uint32_t ino) {
    return pages_.lower_bound(PageKey{ino, 0});
  }
  Map::iterator end(std::uint32_t ino) {
    return pages_.lower_bound(PageKey{ino + 1, 0});
  }
  Map::const_iterator begin(std::uint32_t ino) const {
    return pages_.lower_bound(PageKey{ino, 0});
  }
  Map::const_iterator end(std::uint32_t ino) const {
    return pages_.lower_bound(PageKey{ino + 1, 0});
  }

  Map pages_;
};

// Inos on both sides of a dirty-bitmap word; pages on both sides of the
// 64-page leaf and 4096-page node boundaries, and one far past 2^20.
constexpr std::uint32_t kDiffInos[] = {0, 1, 2, 63, 64, 65, 130};
constexpr std::uint32_t kDiffPages[] = {
    0,    1,    62,   63,   64,   65,   127,  128,  4031,
    4032, 4094, 4095, 4096, 4097, 4159, 4160, 8191, 8192,
    (1u << 20) + 5};

std::vector<std::uint32_t> keys_pages(const std::vector<PageKey>& keys) {
  std::vector<std::uint32_t> out;
  for (const PageKey& k : keys) out.push_back(k.page);
  return out;
}

/// Everything observable without mutating: dirty_count, every file's dirty
/// pages, all_dirty at `limit`, every candidate page's state, and the
/// cache's own index invariants.
void expect_same(const PageCache& cache, const ReferenceCache& ref,
                 std::size_t limit) {
  ASSERT_TRUE(cache.check_index_invariants());
  ASSERT_EQ(cache.dirty_count(), ref.dirty_count());
  for (std::uint32_t ino : kDiffInos)
    ASSERT_EQ(keys_pages(dirty_pages_of(cache, ino)),
              keys_pages(ref.dirty_pages_of(ino)))
        << "ino " << ino;
  ASSERT_EQ(all_dirty(cache, limit), ref.all_dirty(limit))
      << "limit " << limit;
  for (std::uint32_t ino : kDiffInos) {
    for (std::uint32_t page : kDiffPages) {
      const PageCache::PageState* got = cache.find(ino, page);
      const ReferenceCache::Page* want = ref.find(ino, page);
      ASSERT_EQ(got == nullptr, want == nullptr) << ino << ":" << page;
      if (got == nullptr) continue;
      EXPECT_EQ(got->lba, want->lba);
      EXPECT_EQ(got->version, want->version);
      EXPECT_EQ(got->dirty, want->dirty);
      EXPECT_EQ(got->overwrite, want->overwrite);
      ASSERT_EQ(got->writeback, want->writeback) << ino << ":" << page;
    }
  }
}

/// Runs writebacks_of(ino) on both sides and compares carriers and flags.
void expect_same_sweep(PageCache& cache, ReferenceCache& ref,
                       std::uint32_t ino) {
  blk::RequestList got;
  bool got_completed = false;
  bool got_failed = false;
  cache.writebacks_of(ino, &got, &got_completed, &got_failed);
  std::vector<RequestPtr> want;
  bool want_completed = false;
  bool want_failed = false;
  ref.writebacks_of(ino, want, want_completed, want_failed);
  ASSERT_EQ(std::vector<RequestPtr>(got.begin(), got.end()), want);
  ASSERT_EQ(got_completed, want_completed);
  ASSERT_EQ(got_failed, want_failed);
}

void run_differential(std::uint64_t seed, int steps) {
  sim::Simulator sim;
  blk::RequestPool pool{sim};
  PageCache cache{sim};
  ReferenceCache ref;
  sim::Rng rng(seed);
  // Carriers not yet completed, with the ino whose pages they carry.
  std::vector<std::pair<std::uint32_t, RequestPtr>> inflight;
  flash::Version version = 0;
  auto pick = [&](const auto& from) {
    return from[rng.uniform(0, std::size(from) - 1)];
  };
  auto take_inflight = [&] {
    const std::size_t i = rng.uniform(0, inflight.size() - 1);
    auto carrier = inflight[i];
    inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
    return carrier;
  };
  for (int step = 0; step < steps; ++step) {
    const std::uint32_t ino = pick(kDiffInos);
    switch (rng.uniform(0, 11)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const std::uint32_t page = pick(kDiffPages);
        const bool overwrite = rng.chance(0.5);
        cache.write(ino, page, 1000 + page, ++version, overwrite);
        ref.write(ino, page, 1000 + page, version, overwrite);
        break;
      }
      case 4:
      case 5: {
        // One carrier for up to three cached pages of one file.
        const std::vector<std::uint32_t> cached = ref.pages_of(ino);
        if (cached.empty()) break;
        RequestPtr r = pool.make_write({{1000 + cached.front(), version}});
        for (std::uint64_t n = rng.uniform(1, 3); n > 0; --n) {
          const PageKey key{ino, pick(cached)};
          cache.begin_writeback(key, r);
          ref.begin_writeback(key, r);
        }
        inflight.emplace_back(ino, r);
        break;
      }
      case 6: {
        // A completion, then the filesystem's sweep.
        if (inflight.empty()) break;
        const auto [owner, r] = take_inflight();
        r->completion.trigger();
        expect_same_sweep(cache, ref, owner);
        break;
      }
      case 7: {
        // A failed completion, then redirty_failed (or the sweep, which
        // redirties too).
        if (inflight.empty()) break;
        const auto [owner, r] = take_inflight();
        r->cmd.status = flash::IoStatus::kHardError;
        r->completion.trigger();
        if (rng.chance(0.5)) {
          ASSERT_EQ(cache.redirty_failed(owner, r), ref.redirty_failed(owner, r));
        } else {
          expect_same_sweep(cache, ref, owner);
        }
        break;
      }
      case 8: {
        const std::vector<std::uint32_t> cached = ref.pages_of(ino);
        if (cached.empty()) break;
        const PageKey key{ino, pick(cached)};
        cache.mark_clean(key);
        ref.mark_clean(key);
        break;
      }
      case 9:
      case 10:
        expect_same_sweep(cache, ref, ino);
        break;
      case 11:
        // Later steps write to the same ino again: it is reused.
        if (!rng.chance(0.25)) break;
        cache.drop_file(ino);
        ref.drop_file(ino);
        break;
    }
    // Limits from 0 through one past every dirty page: prefixes of the
    // global (ino, page) order, and all of it.
    expect_same(cache, ref, rng.uniform(0, ref.dirty_count() + 1));
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
}

TEST(PageCacheDifferentialTest, MatchesOrderedMapModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_differential(seed, 10'000);
    if (testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace bio::fs
