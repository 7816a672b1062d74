// Host page cache with per-page writeback state.
//
// Pages move dirty -> writeback (a request is in flight) -> clean. fsync
// collects its file's dirty pages into contiguous write requests and also
// waits for pages already under writeback (submitted by pdflush). The
// background flusher keeps the global dirty count between the configured
// watermarks, which is what the buffered-write scenarios (Fig 1 "buffered",
// Fig 9 "P") exercise.
//
// Each file is a two-level radix table over page numbers, like Linux's
// tagged xarray. A leaf holds 64 pages' state plus present, dirty and
// writeback masks; a node covers 64 leaves and keeps a dirty and a
// writeback summary bit per leaf; the file's directory holds one node
// pointer per 4096 pages of span. Files are indexed by ino (inos are dense
// and recycled), and a bitmap over inos marks the files with dirty pages.
// So a page lookup is a few indexed loads, and fsync's dirty scan and
// pdflush's batch collection read masks and skip clean leaves, in
// ascending (ino, page) order. drop_file returns a file's leaves and nodes
// to free lists, so steady-state IO allocates nothing here.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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

  explicit PageCache(sim::Simulator& sim) : dirtied_(sim) {}

  /// Buffers a write. Marks the page dirty with the new version.
  void write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
             flash::Version version, bool overwrite);

  /// Dirty pages of one file, ascending page order (appended to `out`,
  /// which is cleared first — callers reuse scratch buffers).
  void dirty_pages_of(std::uint32_t ino, std::vector<PageKey>& out) const;

  /// Appends to `out` (unless null) the in-flight writeback carriers of
  /// `ino`'s pages; sweeps carriers that already completed (and reports
  /// the sweep via `swept_completed`, so sync paths can raise the inode's
  /// persist floor). A swept carrier that completed with an IO failure
  /// redirties its pages (the buffered content is still here — versions
  /// are identity, not bytes) and is reported via `swept_failed`, so the
  /// caller can advance the inode's wb_err_seq.
  void writebacks_of(std::uint32_t ino, blk::RequestList* out,
                     bool* swept_completed = nullptr,
                     bool* swept_failed = nullptr);

  /// Marks `key` as under writeback by `req`, a request the caller just
  /// built (clears dirty).
  void begin_writeback(const PageKey& key, blk::RequestPtr req);

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
  std::size_t total_pages() const noexcept { return total_pages_; }

  /// Up to `limit` dirty pages (global), in (ino, page) order — pdflush's
  /// view. Reads the dirty-ino bitmap and the files' dirty masks.
  void all_dirty(std::size_t limit, std::vector<PageKey>& out) const;

  /// Notified whenever a write dirties a page (pdflush wake-up).
  sim::Notify& dirtied() noexcept { return dirtied_; }

  /// Exhaustively cross-checks every mask, summary bit, count and the
  /// dirty-ino bitmap against the pages' state (test hook; O(leaves)).
  bool check_index_invariants() const;

 private:
  static constexpr unsigned kLeafShift = 6;   // 64 pages per leaf
  static constexpr unsigned kNodeShift = 12;  // 64 leaves per node
  static constexpr std::uint32_t kFanout = 64;

  /// The two tags a page can carry; each indexes the masks below.
  enum Tag : unsigned { kDirty = 0, kWriteback = 1 };

  struct Leaf {
    std::uint64_t present = 0;
    /// Per tag: the pages carrying it.
    std::array<std::uint64_t, 2> tagged{};
    std::array<PageState, kFanout> pages;
  };
  struct Node {
    /// Per tag: the leaves holding a page that carries it.
    std::array<std::uint64_t, 2> tagged{};
    std::array<std::unique_ptr<Leaf>, kFanout> leaves;
  };
  struct File {
    /// Indexed by page >> kNodeShift, sized exactly to the highest node.
    std::vector<std::unique_ptr<Node>> nodes;
    /// Per tag: the pages carrying it.
    std::array<std::size_t, 2> tagged{};
  };

  /// One present page and its radix path.
  struct Ref {
    std::uint32_t ino;
    std::uint32_t page;
    File& file;
    Node& node;
    Leaf& leaf;
    PageState& state() const noexcept {
      return leaf.pages[page & (kFanout - 1)];
    }
    std::uint64_t page_bit() const noexcept {
      return std::uint64_t{1} << (page & (kFanout - 1));
    }
    std::uint64_t leaf_bit() const noexcept {
      return std::uint64_t{1} << ((page >> kLeafShift) & (kFanout - 1));
    }
  };

  /// The leaf holding `page` of `ino`, or nullptr.
  Leaf* leaf_of(std::uint32_t ino, std::uint32_t page) const noexcept;
  /// The path to a present page; `what` is the failure message if absent.
  Ref ref_of(const PageKey& key, const char* what);
  /// The path to `page` of `ino`, allocating (or recycling) its node and
  /// leaf and marking it present.
  Ref touch(std::uint32_t ino, std::uint32_t page);

  static void set_tag(const Ref& r, Tag t);
  static void clear_tag(const Ref& r, Tag t);
  void set_dirty(const Ref& r);
  void clear_dirty(const Ref& r);

  /// Calls fn(page, node, leaf) for the first `count` pages of `f` tagged
  /// `t`, in ascending page order, skipping untagged nodes and leaves. fn
  /// may clear `t` on the page it is given and set the other tag.
  template <typename Fn>
  static void visit(const File& f, Tag t, std::size_t count, Fn&& fn);

  std::vector<File> files_;
  /// Bit ino set iff files_[ino] has a dirty page.
  std::vector<std::uint64_t> dirty_inos_;
  std::vector<std::unique_ptr<Leaf>> free_leaves_;
  std::vector<std::unique_ptr<Node>> free_nodes_;
  std::size_t total_pages_ = 0;
  std::size_t dirty_count_ = 0;
  sim::Notify dirtied_;
};

}  // namespace bio::fs
