#include "fs/page_cache.h"

namespace bio::fs {

void PageCache::write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
                      flash::Version version, bool overwrite) {
  PageKey key{ino, page};
  PageState& st = pages_[key];
  st.lba = lba;
  st.version = version;
  st.overwrite = overwrite;
  if (!st.dirty) {
    st.dirty = true;
    ++dirty_count_;
    index_insert(dirty_index_, key);
  }
  // NOTE: an in-flight writeback pointer survives redirtying. The old
  // request is still physically in the scheduler/device carrying the
  // previous version; forgetting it would let a sync path submit the new
  // version concurrently and the two copies could land out of order
  // (write-after-write hazard). wait_stable_pages()/pdflush consult it.
  dirtied_.notify_all();
}

void PageCache::dirty_pages_of(std::uint32_t ino,
                               std::vector<PageKey>& out) const {
  out.clear();
  auto it = dirty_index_.find(ino);
  if (it == dirty_index_.end()) return;
  out.reserve(it->second.size());
  for (std::uint32_t page : it->second) out.push_back(PageKey{ino, page});
}

std::vector<PageCache::PageKey> PageCache::dirty_pages_of(
    std::uint32_t ino) const {
  std::vector<PageKey> out;
  dirty_pages_of(ino, out);
  return out;
}

void PageCache::writebacks_of(std::uint32_t ino, blk::RequestList& out,
                              bool* swept_completed, bool* swept_failed) {
  if (swept_completed != nullptr) *swept_completed = false;
  if (swept_failed != nullptr) *swept_failed = false;
  auto it = wb_index_.find(ino);
  if (it == wb_index_.end()) return;
  std::pmr::set<std::uint32_t>& pages = it->second;
  bool dirtied_any = false;
  for (auto pit = pages.begin(); pit != pages.end();) {
    const PageKey key{ino, *pit};
    auto mit = pages_.find(key);
    BIO_CHECK_MSG(mit != pages_.end() && mit->second.writeback != nullptr,
                  "writeback index out of sync");
    blk::RequestPtr& wb = mit->second.writeback;
    if (wb->completion.is_set()) {
      // Lazy completion sweep: the carrier already finished (waiting on its
      // set event would be a no-op), so drop the stale reference. This
      // keeps the wait list O(in-flight) and releases the request back to
      // the pool instead of pinning it until the page is rewritten. The
      // caller is told (`swept_completed`): a durability path must raise
      // the inode's persist floor, because "completed" only means
      // *transferred* — the data may still sit in the volatile cache.
      // A carrier that completed with an IO failure never landed its data:
      // redirty the page (its buffered version is intact) and tell the
      // caller, who records the error on the inode.
      if (wb->failed()) {
        if (swept_failed != nullptr) *swept_failed = true;
        if (!mit->second.dirty) {
          mit->second.dirty = true;
          ++dirty_count_;
          index_insert(dirty_index_, key);
          dirtied_any = true;
        }
      }
      if (swept_completed != nullptr) *swept_completed = true;
      wb = nullptr;
      pit = pages.erase(pit);
      continue;
    }
    out.push_back(wb);
    ++pit;
  }
  if (pages.empty()) wb_index_.erase(it);
  if (dirtied_any) dirtied_.notify_all();
}

void PageCache::begin_writeback(const PageKey& key, blk::RequestPtr req) {
  auto it = pages_.find(key);
  BIO_CHECK_MSG(it != pages_.end(), "writeback of unknown page");
  if (it->second.dirty) {
    it->second.dirty = false;
    BIO_CHECK(dirty_count_ > 0);
    --dirty_count_;
    index_erase(dirty_index_, key);
  }
  it->second.writeback = std::move(req);
  if (it->second.writeback != nullptr)
    index_insert(wb_index_, key);
  else
    index_erase(wb_index_, key);
}

void PageCache::end_writeback(const PageKey& key,
                              const blk::RequestPtr& req) {
  auto it = pages_.find(key);
  if (it == pages_.end()) return;
  if (it->second.writeback == req) {
    it->second.writeback = nullptr;
    index_erase(wb_index_, key);
  }
}

std::size_t PageCache::redirty_failed(std::uint32_t ino,
                                      const blk::RequestPtr& req) {
  std::size_t redirtied = 0;
  auto it = wb_index_.find(ino);
  if (it == wb_index_.end()) return 0;
  std::pmr::set<std::uint32_t>& wb_pages = it->second;
  for (auto pit = wb_pages.begin(); pit != wb_pages.end();) {
    const PageKey key{ino, *pit};
    auto mit = pages_.find(key);
    BIO_CHECK_MSG(mit != pages_.end() && mit->second.writeback != nullptr,
                  "writeback index out of sync");
    if (mit->second.writeback != req) {
      ++pit;
      continue;
    }
    mit->second.writeback = nullptr;
    pit = wb_pages.erase(pit);
    if (!mit->second.dirty) {
      mit->second.dirty = true;
      ++dirty_count_;
      index_insert(dirty_index_, key);
      ++redirtied;
    }
  }
  if (wb_pages.empty()) wb_index_.erase(it);
  if (redirtied > 0) dirtied_.notify_all();
  return redirtied;
}

void PageCache::mark_clean(const PageKey& key) {
  auto it = pages_.find(key);
  BIO_CHECK_MSG(it != pages_.end(), "mark_clean of unknown page");
  if (it->second.dirty) {
    it->second.dirty = false;
    BIO_CHECK(dirty_count_ > 0);
    --dirty_count_;
    index_erase(dirty_index_, key);
  }
}

void PageCache::drop_file(std::uint32_t ino) {
  auto it = pages_.lower_bound(PageKey{ino, 0});
  while (it != pages_.end() && it->first.ino == ino) {
    if (it->second.dirty) {
      BIO_CHECK(dirty_count_ > 0);
      --dirty_count_;
    }
    it = pages_.erase(it);
  }
  dirty_index_.erase(ino);
  wb_index_.erase(ino);
}

const PageCache::PageState* PageCache::find(std::uint32_t ino,
                                            std::uint32_t page) const {
  auto it = pages_.find(PageKey{ino, page});
  return it == pages_.end() ? nullptr : &it->second;
}

void PageCache::all_dirty(std::size_t limit,
                          std::vector<PageKey>& out) const {
  out.clear();
  for (const auto& [ino, dirty_pages] : dirty_index_) {
    for (std::uint32_t page : dirty_pages) {
      if (out.size() >= limit) return;
      out.push_back(PageKey{ino, page});
    }
  }
}

std::vector<PageCache::PageKey> PageCache::all_dirty(
    std::size_t limit) const {
  std::vector<PageKey> out;
  all_dirty(limit, out);
  return out;
}

bool PageCache::check_index_invariants() const {
  std::size_t dirty_seen = 0;
  for (const auto& [key, st] : pages_) {
    const auto dit = dirty_index_.find(key.ino);
    const bool in_dirty =
        dit != dirty_index_.end() && dit->second.contains(key.page);
    if (in_dirty != st.dirty) return false;
    if (st.dirty) ++dirty_seen;
    const auto wit = wb_index_.find(key.ino);
    const bool in_wb = wit != wb_index_.end() && wit->second.contains(key.page);
    if (in_wb != (st.writeback != nullptr)) return false;
  }
  if (dirty_seen != dirty_count_) return false;
  // No stale index entries pointing at evicted pages.
  for (const auto& [ino, dirty_pages] : dirty_index_)
    for (std::uint32_t page : dirty_pages)
      if (!pages_.contains(PageKey{ino, page})) return false;
  for (const auto& [ino, wb_pages] : wb_index_)
    for (std::uint32_t page : wb_pages)
      if (!pages_.contains(PageKey{ino, page})) return false;
  return true;
}

}  // namespace bio::fs
