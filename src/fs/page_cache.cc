#include "fs/page_cache.h"

#include <algorithm>
#include <bit>

namespace bio::fs {

namespace {

/// Pops a recycled block off `free`, or allocates a fresh one.
template <typename T>
std::unique_ptr<T> take(std::vector<std::unique_ptr<T>>& free) {
  if (free.empty()) return std::make_unique<T>();
  std::unique_ptr<T> p = std::move(free.back());
  free.pop_back();
  return p;
}

}  // namespace

template <typename Fn>
void PageCache::visit(const File& f, Tag t, std::size_t count, Fn&& fn) {
  for (std::size_t n = 0; count > 0 && n < f.nodes.size(); ++n) {
    Node* node = f.nodes[n].get();
    if (node == nullptr) continue;
    // Snapshots: fn may clear the tag it was handed.
    for (std::uint64_t leaves = node->tagged[t]; leaves != 0 && count > 0;
         leaves &= leaves - 1) {
      const auto l = static_cast<std::uint32_t>(std::countr_zero(leaves));
      Leaf& leaf = *node->leaves[l];
      const auto base = static_cast<std::uint32_t>(
          (n << kNodeShift) | (std::size_t{l} << kLeafShift));
      for (std::uint64_t pages = leaf.tagged[t]; pages != 0 && count > 0;
           pages &= pages - 1) {
        --count;
        fn(base | static_cast<std::uint32_t>(std::countr_zero(pages)), *node,
           leaf);
      }
    }
  }
}

PageCache::Leaf* PageCache::leaf_of(std::uint32_t ino,
                                    std::uint32_t page) const noexcept {
  if (ino >= files_.size()) return nullptr;
  const File& f = files_[ino];
  const std::size_t n = page >> kNodeShift;
  if (n >= f.nodes.size() || f.nodes[n] == nullptr) return nullptr;
  return f.nodes[n]->leaves[(page >> kLeafShift) & (kFanout - 1)].get();
}

PageCache::Ref PageCache::ref_of(const PageKey& key, const char* what) {
  Leaf* leaf = leaf_of(key.ino, key.page);
  BIO_CHECK_MSG(leaf != nullptr &&
                    (leaf->present >> (key.page & (kFanout - 1)) & 1) != 0,
                what);
  File& f = files_[key.ino];
  return Ref{key.ino, key.page, f, *f.nodes[key.page >> kNodeShift], *leaf};
}

PageCache::Ref PageCache::touch(std::uint32_t ino, std::uint32_t page) {
  if (ino >= files_.size()) {
    files_.resize(ino + 1);
    dirty_inos_.resize(ino / 64 + 1);
  }
  File& f = files_[ino];
  const std::size_t n = page >> kNodeShift;
  if (n >= f.nodes.size()) {
    f.nodes.reserve(n + 1);  // exact: 8 B per 4096 pages of span
    f.nodes.resize(n + 1);
  }
  std::unique_ptr<Node>& node = f.nodes[n];
  if (node == nullptr) node = take(free_nodes_);
  std::unique_ptr<Leaf>& leaf =
      node->leaves[(page >> kLeafShift) & (kFanout - 1)];
  if (leaf == nullptr) leaf = take(free_leaves_);
  const Ref r{ino, page, f, *node, *leaf};
  if ((leaf->present & r.page_bit()) == 0) {
    leaf->present |= r.page_bit();
    ++total_pages_;
  }
  return r;
}

void PageCache::set_tag(const Ref& r, Tag t) {
  if ((r.leaf.tagged[t] & r.page_bit()) != 0) return;
  r.leaf.tagged[t] |= r.page_bit();
  r.node.tagged[t] |= r.leaf_bit();
  ++r.file.tagged[t];
}

void PageCache::clear_tag(const Ref& r, Tag t) {
  if ((r.leaf.tagged[t] & r.page_bit()) == 0) return;
  r.leaf.tagged[t] &= ~r.page_bit();
  if (r.leaf.tagged[t] == 0) r.node.tagged[t] &= ~r.leaf_bit();
  --r.file.tagged[t];
}

void PageCache::set_dirty(const Ref& r) {
  r.state().dirty = true;
  set_tag(r, kDirty);
  ++dirty_count_;
  if (r.file.tagged[kDirty] == 1)
    dirty_inos_[r.ino / 64] |= std::uint64_t{1} << (r.ino % 64);
}

void PageCache::clear_dirty(const Ref& r) {
  r.state().dirty = false;
  clear_tag(r, kDirty);
  BIO_CHECK(dirty_count_ > 0);
  --dirty_count_;
  if (r.file.tagged[kDirty] == 0)
    dirty_inos_[r.ino / 64] &= ~(std::uint64_t{1} << (r.ino % 64));
}

void PageCache::write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
                      flash::Version version, bool overwrite) {
  const Ref r = touch(ino, page);
  PageState& st = r.state();
  st.lba = lba;
  st.version = version;
  st.overwrite = overwrite;
  if (!st.dirty) set_dirty(r);
  // NOTE: an in-flight writeback pointer survives redirtying. The old
  // request is still physically in the scheduler/device carrying the
  // previous version; forgetting it would let a sync path submit the new
  // version concurrently and the two copies could land out of order
  // (write-after-write hazard). The sync paths' unstable_carrier() and
  // pdflush consult it.
  dirtied_.notify_all();
}

void PageCache::dirty_pages_of(std::uint32_t ino,
                               std::vector<PageKey>& out) const {
  out.clear();
  if (ino >= files_.size()) return;
  const File& f = files_[ino];
  out.reserve(f.tagged[kDirty]);
  visit(f, kDirty, f.tagged[kDirty], [&](std::uint32_t page, Node&, Leaf&) {
    out.push_back(PageKey{ino, page});
  });
}

void PageCache::writebacks_of(std::uint32_t ino, blk::RequestList* out,
                              bool* swept_completed, bool* swept_failed) {
  if (swept_completed != nullptr) *swept_completed = false;
  if (swept_failed != nullptr) *swept_failed = false;
  if (ino >= files_.size()) return;
  File& f = files_[ino];
  bool dirtied_any = false;
  visit(f, kWriteback, f.tagged[kWriteback],
        [&](std::uint32_t page, Node& node, Leaf& leaf) {
          const Ref r{ino, page, f, node, leaf};
          blk::RequestPtr& wb = r.state().writeback;
          if (!wb->completion.is_set()) {
            if (out != nullptr) out->push_back(wb);
            return;
          }
          // Lazy completion sweep: the carrier already finished (waiting on
          // its set event would be a no-op), so drop the stale reference.
          // This keeps the wait list O(in-flight) and releases the request
          // back to the pool instead of pinning it until the page is
          // rewritten. The caller is told (`swept_completed`): every sync
          // path must raise the inode's persist floor, because "completed"
          // only means *transferred* — the data may still sit in the
          // volatile cache. A carrier that completed with an IO failure
          // never landed its data: redirty the page (its buffered version
          // is intact) and tell the caller, who records the error on the
          // inode.
          if (wb->failed()) {
            if (swept_failed != nullptr) *swept_failed = true;
            if (!r.state().dirty) {
              set_dirty(r);
              dirtied_any = true;
            }
          }
          if (swept_completed != nullptr) *swept_completed = true;
          wb = nullptr;
          clear_tag(r, kWriteback);
        });
  if (dirtied_any) dirtied_.notify_all();
}

void PageCache::begin_writeback(const PageKey& key, blk::RequestPtr req) {
  const Ref r = ref_of(key, "writeback of unknown page");
  PageState& st = r.state();
  if (st.dirty) clear_dirty(r);
  st.writeback = std::move(req);
  if (st.writeback != nullptr)
    set_tag(r, kWriteback);
  else
    clear_tag(r, kWriteback);
}

std::size_t PageCache::redirty_failed(std::uint32_t ino,
                                      const blk::RequestPtr& req) {
  if (ino >= files_.size()) return 0;
  File& f = files_[ino];
  std::size_t redirtied = 0;
  visit(f, kWriteback, f.tagged[kWriteback],
        [&](std::uint32_t page, Node& node, Leaf& leaf) {
          const Ref r{ino, page, f, node, leaf};
          PageState& st = r.state();
          if (st.writeback != req) return;
          st.writeback = nullptr;
          clear_tag(r, kWriteback);
          if (!st.dirty) {
            set_dirty(r);
            ++redirtied;
          }
        });
  if (redirtied > 0) dirtied_.notify_all();
  return redirtied;
}

void PageCache::mark_clean(const PageKey& key) {
  const Ref r = ref_of(key, "mark_clean of unknown page");
  if (r.state().dirty) clear_dirty(r);
}

void PageCache::drop_file(std::uint32_t ino) {
  if (ino >= files_.size()) return;
  File& f = files_[ino];
  for (std::unique_ptr<Node>& node : f.nodes) {
    if (node == nullptr) continue;
    for (std::unique_ptr<Leaf>& leaf : node->leaves) {
      if (leaf == nullptr) continue;
      for (std::uint64_t pages = leaf->present; pages != 0;
           pages &= pages - 1)
        leaf->pages[std::countr_zero(pages)] = PageState{};
      total_pages_ -= static_cast<std::size_t>(std::popcount(leaf->present));
      leaf->present = 0;
      leaf->tagged = {};
      free_leaves_.push_back(std::move(leaf));
    }
    node->tagged = {};
    free_nodes_.push_back(std::move(node));
  }
  BIO_CHECK(dirty_count_ >= f.tagged[kDirty]);
  dirty_count_ -= f.tagged[kDirty];
  f.nodes.clear();
  f.tagged = {};
  dirty_inos_[ino / 64] &= ~(std::uint64_t{1} << (ino % 64));
}

const PageCache::PageState* PageCache::find(std::uint32_t ino,
                                            std::uint32_t page) const {
  const Leaf* leaf = leaf_of(ino, page);
  const std::uint32_t bit = page & (kFanout - 1);
  if (leaf == nullptr || (leaf->present >> bit & 1) == 0) return nullptr;
  return &leaf->pages[bit];
}

void PageCache::all_dirty(std::size_t limit,
                          std::vector<PageKey>& out) const {
  out.clear();
  for (std::size_t w = 0; w < dirty_inos_.size(); ++w) {
    for (std::uint64_t inos = dirty_inos_[w]; inos != 0; inos &= inos - 1) {
      if (out.size() >= limit) return;
      const auto ino =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(inos));
      const File& f = files_[ino];
      visit(f, kDirty, std::min(f.tagged[kDirty], limit - out.size()),
            [&](std::uint32_t page, Node&, Leaf&) {
              out.push_back(PageKey{ino, page});
            });
    }
  }
}

bool PageCache::check_index_invariants() const {
  std::size_t pages_seen = 0;
  std::size_t dirty_seen = 0;
  for (std::size_t ino = 0; ino < files_.size(); ++ino) {
    const File& f = files_[ino];
    std::array<std::size_t, 2> file_tagged{};
    for (const std::unique_ptr<Node>& node : f.nodes) {
      if (node == nullptr) continue;
      std::array<std::uint64_t, 2> summary{};
      for (std::uint32_t l = 0; l < kFanout; ++l) {
        const Leaf* leaf = node->leaves[l].get();
        if (leaf == nullptr) continue;
        // Only cached pages carry tags, and each tag matches the state.
        for (std::uint64_t pages = leaf->present; pages != 0;
             pages &= pages - 1) {
          const int b = std::countr_zero(pages);
          const PageState& st = leaf->pages[b];
          if ((leaf->tagged[kDirty] >> b & 1) != (st.dirty ? 1u : 0u))
            return false;
          if ((leaf->tagged[kWriteback] >> b & 1) !=
              (st.writeback != nullptr ? 1u : 0u))
            return false;
        }
        for (const Tag t : {kDirty, kWriteback}) {
          if ((leaf->tagged[t] & ~leaf->present) != 0) return false;
          if (leaf->tagged[t] != 0) summary[t] |= std::uint64_t{1} << l;
          file_tagged[t] +=
              static_cast<std::size_t>(std::popcount(leaf->tagged[t]));
        }
        pages_seen += static_cast<std::size_t>(std::popcount(leaf->present));
      }
      if (summary != node->tagged) return false;
    }
    if (file_tagged != f.tagged) return false;
    const bool in_dirty_set = (dirty_inos_[ino / 64] >> (ino % 64) & 1) != 0;
    if (in_dirty_set != (f.tagged[kDirty] > 0)) return false;
    dirty_seen += f.tagged[kDirty];
  }
  // Recycled leaves pin no carrier.
  for (const std::unique_ptr<Leaf>& leaf : free_leaves_) {
    if (leaf->present != 0 || leaf->tagged != std::array<std::uint64_t, 2>{})
      return false;
    for (const PageState& st : leaf->pages)
      if (st.writeback != nullptr) return false;
  }
  return dirty_seen == dirty_count_ && pages_seen == total_pages_;
}

}  // namespace bio::fs
