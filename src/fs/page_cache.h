// Host page cache with per-page writeback state.
//
// Pages move dirty -> writeback (a request is in flight) -> clean. fsync
// collects its file's dirty pages into contiguous write requests and also
// waits for pages already under writeback (submitted by pdflush). The
// background flusher keeps the global dirty count between the configured
// watermarks, which is what the buffered-write scenarios (Fig 1 "buffered",
// Fig 9 "P") exercise.
//
// Dirty and writeback pages are indexed per inode (ordered by page) on top
// of the flat page map, so fsync's dirty scan is O(dirty-of-file) and
// pdflush's batch collection is O(limit) — not O(total cached pages). The
// global iteration order (ascending ino, then page) matches the old
// full-scan behaviour exactly. The page map and both indexes take their
// nodes from a PageCache-owned pool, so dirtying, writeback and cleaning
// recycle nodes instead of allocating one per transition.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <set>
#include <vector>

#include "blk/request.h"
#include "flash/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::fs {

class PageCache {
 public:
  struct PageKey {
    std::uint32_t ino;
    std::uint32_t page;
    auto operator<=>(const PageKey&) const = default;
  };

  struct PageState {
    flash::Lba lba = 0;
    flash::Version version = 0;  // version of the newest buffered write
    bool dirty = false;
    /// True if the newest buffered write overwrote already-allocated data
    /// (OptFS journals these selectively).
    bool overwrite = false;
    /// In-flight write carrying a version of this page: the newest one if
    /// !dirty, an older one if the page was redirtied while under
    /// writeback. Kept until completion so submission paths can enforce
    /// one-in-flight-copy-per-page (stable writeback).
    blk::RequestPtr writeback;
  };

  explicit PageCache(sim::Simulator& sim)
      : sim_(&sim),
        pages_(&pool_),
        dirty_index_(&pool_),
        wb_index_(&pool_),
        dirtied_(sim) {}

  /// Buffers a write. Marks the page dirty with the new version.
  void write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
             flash::Version version, bool overwrite);

  /// Dirty pages of one file, ascending page order (appended to `out`,
  /// which is cleared first — callers reuse scratch buffers).
  void dirty_pages_of(std::uint32_t ino, std::vector<PageKey>& out) const;
  std::vector<PageKey> dirty_pages_of(std::uint32_t ino) const;

  /// Appends to `out` the in-flight writeback carriers of `ino`'s pages;
  /// lazily sweeps carriers that already completed (and reports the sweep
  /// via `swept_completed`, so durability paths can raise the inode's
  /// persist floor). A swept carrier that completed with an IO failure
  /// redirties its pages (the buffered content is still here — versions
  /// are identity, not bytes) and is reported via `swept_failed`, so the
  /// caller can advance the inode's wb_err_seq.
  void writebacks_of(std::uint32_t ino, blk::RequestList& out,
                     bool* swept_completed = nullptr,
                     bool* swept_failed = nullptr);

  /// Marks `key` as under writeback by `req` (clears dirty).
  void begin_writeback(const PageKey& key, blk::RequestPtr req);

  /// Completes writeback for `key` if `req` is still its current carrier.
  void end_writeback(const PageKey& key, const blk::RequestPtr& req);

  /// Failed-writeback path: redirties every page of `ino` whose current
  /// carrier is `req` (the data never landed — Linux redirties the page and
  /// records the error in the mapping's errseq). Pages rewritten while the
  /// carrier was in flight are already dirty with newer content and only
  /// drop the dead carrier. Returns the number of pages redirtied.
  std::size_t redirty_failed(std::uint32_t ino, const blk::RequestPtr& req);

  /// Clears the dirty bit without a request (OptFS data journaling: the
  /// page's content travels inside the journal descriptor).
  void mark_clean(const PageKey& key);

  /// Drops every page of a deleted file.
  void drop_file(std::uint32_t ino);

  const PageState* find(std::uint32_t ino, std::uint32_t page) const;

  std::size_t dirty_count() const noexcept { return dirty_count_; }
  std::size_t total_pages() const noexcept { return pages_.size(); }

  /// Up to `limit` dirty pages (global), in (ino, page) order — pdflush's
  /// view. O(limit), via the dirty index.
  void all_dirty(std::size_t limit, std::vector<PageKey>& out) const;
  std::vector<PageKey> all_dirty(std::size_t limit) const;

  /// Notified whenever a write dirties a page (pdflush wake-up).
  sim::Notify& dirtied() noexcept { return dirtied_; }

  /// Exhaustively cross-checks the dirty/writeback indexes against the page
  /// map (test hook; O(total pages)).
  bool check_index_invariants() const;

 private:
  /// Per-inode page sets; the inner sets share the outer map's pool.
  using InoIndex =
      std::pmr::map<std::uint32_t, std::pmr::set<std::uint32_t>>;

  static void index_insert(InoIndex& idx, const PageKey& key) {
    idx[key.ino].insert(key.page);
  }
  static void index_erase(InoIndex& idx, const PageKey& key) {
    auto it = idx.find(key.ino);
    if (it == idx.end()) return;
    it->second.erase(key.page);
    if (it->second.empty()) idx.erase(it);
  }

  sim::Simulator* sim_;
  /// Node pool for the three containers below, declared first so it
  /// outlives them. Only they draw from it: nothing a suspended coroutine
  /// frame holds does, so frames destroyed after the volume never free
  /// into a dead pool.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::map<PageKey, PageState> pages_;
  /// ino -> dirty pages (key.dirty == true exactly when indexed here).
  InoIndex dirty_index_;
  /// ino -> pages with a writeback carrier attached (dirty or not).
  InoIndex wb_index_;
  std::size_t dirty_count_ = 0;
  sim::Notify dirtied_;
};

}  // namespace bio::fs
