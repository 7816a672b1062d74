#include "fs/filesystem.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <tuple>

#include "fs/barrierfs.h"
#include "fs/jbd2.h"
#include "fs/recovery.h"

namespace bio::fs {

Filesystem::Filesystem(sim::Simulator& sim, blk::BlockLayer& blk,
                       FsConfig cfg)
    : sim_(sim),
      blk_(blk),
      cfg_(cfg),
      layout_{cfg.journal_blocks, cfg.max_inodes},
      cache_(sim),
      writeback_progress_(sim) {
  switch (cfg_.journal) {
    case JournalKind::kJbd2:
    case JournalKind::kOptFs:
      journal_ = std::make_unique<Jbd2Journal>(sim_, blk_, cfg_, layout_);
      break;
    case JournalKind::kBarrierFs:
      journal_ = std::make_unique<BarrierFsJournal>(sim_, blk_, cfg_, layout_);
      break;
  }
  root_.ino = 0;
  root_.name = "/";
  next_ino_ = kDirShards;
  data_next_ = layout_.data_base();
  by_ino_.resize(cfg_.max_inodes);
  shard_entries_.resize(kDirShards);
  journal_->set_close_hook([this](Txn& txn) { snapshot_metadata(txn); });
  // errors=remount-ro: a dead journal degrades the volume read-only.
  journal_->set_abort_hook([this] { degraded_ = true; });
}

void Filesystem::snapshot_metadata(Txn& txn) {
  // Freeze the logical content of every dirtied metadata block: this is
  // what the transaction's journal log copies (and later its in-place
  // checkpoint copies) "contain", and what fs::Recovery reinstalls.
  sim::reserve_reused(txn.meta_snapshots, txn.buffers.size());
  for (flash::Lba block : txn.buffers) {  // set order: stays sorted
    MetaSnapshot snap;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(block - layout_.inode_base());
    if (idx < shard_entries_.size()) {
      snap.is_directory = true;
      // Assigning over a dropped snapshot's entries reuses its storage and
      // its names' buffers.
      snap.entries = journal_->take_dir_entries();
      const Shard& shard = shard_entries_[idx];
      sim::reserve_reused(snap.entries, shard.size());
      snap.entries.assign(shard.begin(), shard.end());
    } else {
      snap.ino = idx;
      if (const Inode* live = by_ino_[idx]; live != nullptr) {
        const Inode& f = *live;
        snap.exists = true;
        snap.name = f.name;
        snap.extent_base = f.extent_base;
        snap.extent_blocks = f.extent_blocks;
        snap.size_blocks = f.size_blocks;
      }
    }
    txn.meta_snapshots.emplace_back(block, std::move(snap));
  }
}

void Filesystem::mount(const RecoveryReport& recovered) {
  BIO_CHECK_MSG(files_.empty() && stats_.writes == 0,
                "mount() over a used filesystem");
  for (const RecoveryReport::RecoveredFile& rf : recovered.files) {
    Inode& f = new_inode();
    f.ino = rf.ino;
    f.name = rf.name;
    f.extent_base = rf.extent_base;
    f.extent_blocks = rf.extent_blocks;
    f.size_blocks = rf.size_blocks;
    by_ino_[rf.ino] = &f;
    shard_put(rf.name, rf.ino);
    next_ino_ = std::max(next_ino_, rf.ino + 1);
    data_next_ = std::max(data_next_, rf.extent_base + rf.extent_blocks);
    files_.emplace(rf.name, &f);
  }
}

Filesystem::~Filesystem() {
  for (Inode* f : free_inodes_) ASAN_UNPOISON_MEMORY_REGION(f, sizeof *f);
}

Inode& Filesystem::new_inode() {
  if (free_inodes_.empty()) return inode_store_.emplace_back();
  Inode& f = *free_inodes_.back();
  free_inodes_.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(&f, sizeof f);
  return f;
}

void Filesystem::release(Inode& f) {
  --f.holds;
  recycle_if_idle(f);
}

void Filesystem::recycle_if_idle(Inode& f) {
  if (!f.reclaimed || f.holds > 0) return;
  f = Inode{};
  // Under ASan a free inode is poisoned: a late access through a stale
  // pointer is reported as a use after free.
  ASAN_POISON_MEMORY_REGION(&f, sizeof f);
  free_inodes_.push_back(&f);
}

Filesystem::Shard& Filesystem::shard_of(const std::string& name) {
  return shard_entries_[static_cast<std::size_t>(dir_block_of(name) -
                                                 layout_.inode_base())];
}

void Filesystem::shard_put(const std::string& name, std::uint32_t ino) {
  Shard& shard = shard_of(name);
  if (auto it = shard.find(name); it != shard.end())
    it->second = ino;
  else
    sim::insert_reusing(shard, spare_shard_nodes_, name, ino);
}

void Filesystem::shard_drop(const std::string& name) {
  Shard& shard = shard_of(name);
  if (auto it = shard.find(name); it != shard.end())
    sim::erase_keeping(shard, spare_shard_nodes_, it);
}

flash::Lba Filesystem::dir_block_of(const std::string& name) const {
  const std::uint32_t shard = static_cast<std::uint32_t>(
      std::hash<std::string>{}(name) % kDirShards);
  return layout_.inode_block(shard);
}

void Filesystem::start() {
  BIO_CHECK(!started_);
  started_ = true;
  journal_->start();
  sim_.spawn("pdflush", pdflush_loop());
}

// ---- namespace -------------------------------------------------------------

sim::Task Filesystem::create(std::string name, Inode*& out,
                             std::uint32_t extent_blocks) {
  BIO_CHECK_MSG(!files_.contains(name), "create of existing file: " + name);
  Inode& f = new_inode();
  if (!free_inos_.empty()) {
    f.ino = free_inos_.pop_front();
  } else {
    f.ino = next_ino_++;
    BIO_CHECK_MSG(f.ino < cfg_.max_inodes, "out of inodes");
  }
  f.name = name;
  const std::uint32_t want =
      extent_blocks != 0 ? extent_blocks : cfg_.default_extent_blocks;
  if (!free_extents_.empty() && free_extents_.front().second >= want) {
    std::tie(f.extent_base, f.extent_blocks) = free_extents_.pop_front();
  } else {
    f.extent_base = data_next_;
    f.extent_blocks = want;
    data_next_ += want;
  }
  ++stats_.creates;
  out = &f;
  sim::insert_reusing(files_, spare_file_nodes_, std::move(name), &f);
  by_ino_[f.ino] = &f;
  shard_put(f.name, f.ino);

  // Creating dirties the directory shard and the new inode.
  ++f.holds;
  std::uint64_t tid = 0;
  co_await journal_->dirty_metadata(dir_block_of(f.name), tid);
  co_await journal_->dirty_metadata(layout_.inode_block(f.ino), tid);
  f.txn_id = tid;
  f.datasync_txn_id = tid;
  f.meta_dirty = true;
  f.size_dirty = true;
  // An unlink of the new name reclaimed the file during the waits above:
  // the caller gets no inode, which is about to go back to the free list.
  if (f.reclaimed) out = nullptr;
  release(f);
}

Inode* Filesystem::lookup(const std::string& name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : it->second;
}

void Filesystem::reclaim(Inode& f) {
  cache_.drop_file(f.ino);
  free_extents_.push_back({f.extent_base, f.extent_blocks});
  free_inos_.push_back(f.ino);
  f.reclaimed = true;
  recycle_if_idle(f);
}

sim::Task Filesystem::unlink(const std::string& name, bool reclaim_now) {
  auto it = files_.find(name);
  BIO_CHECK_MSG(it != files_.end(), "unlink of missing file: " + name);
  Inode& f = *it->second;
  // Held across the journal waits below: the last close may reclaim the
  // inode meanwhile, and the free list must not hand it to a new file
  // before this call's final update.
  ++f.holds;
  if (reclaim_now) reclaim(f);
  const std::uint32_t dead_ino = f.ino;
  by_ino_[dead_ino] = nullptr;
  shard_drop(name);
  sim::erase_keeping(files_, spare_file_nodes_, it);
  ++stats_.unlinks;

  std::uint64_t tid = 0;
  co_await journal_->dirty_metadata(dir_block_of(name), tid);
  co_await journal_->dirty_metadata(layout_.inode_block(dead_ino), tid);
  // Tie the (still-open-somewhere) inode to the transaction that removes
  // it, so an fsync through a surviving descriptor commits the unlink —
  // ext4 keeps the same inode/transaction linkage.
  f.txn_id = tid;
  f.meta_dirty = true;
  release(f);
}

sim::TaskOf<bool> Filesystem::rename(const std::string& from,
                                     const std::string& to) {
  auto it = files_.find(from);
  BIO_CHECK_MSG(it != files_.end(), "rename of missing file: " + from);
  Inode& f = *it->second;
  auto tgt_it = files_.find(to);
  Inode* target = tgt_it == files_.end() ? nullptr : tgt_it->second;
  // Both inodes are held across the reservations below, so the identity
  // checks after each pass compare against objects no create can reuse.
  ++f.holds;
  if (target != nullptr) ++target->holds;
  auto release_both = [&] {
    release(f);
    if (target != nullptr) release(*target);
  };
  const flash::Lba old_shard = dir_block_of(from);
  const flash::Lba new_shard = dir_block_of(to);
  const flash::Lba ino_block = layout_.inode_block(f.ino);

  // Reserve every touched block in the journal BEFORE mutating the
  // in-memory namespace, and retry until all of them land in ONE still-
  // running transaction. A transaction closing mid-pass freezes the
  // consistent pre-rename state (its memberships from the failed pass are
  // harmless); equal tids prove no close interleaved, so the single
  // transaction holding all blocks is still running when the mutation
  // below lands and its eventual close snapshots the whole rename
  // atomically — jbd2 reaches the same end through frozen buffer copies
  // under the handle. Anything weaker lets a crash commit the old name's
  // removal without the new name (a durably nameless file); displacing
  // the target in the same transaction keeps POSIX's promise that the
  // destination name never vanishes across a crash.
  std::uint64_t tid = 0;
  for (;;) {
    std::uint64_t tid_new = 0, tid_ino = 0, tid_tgt = 0, tid_old = 0;
    if (new_shard != old_shard)
      co_await journal_->dirty_metadata(new_shard, tid_new);
    co_await journal_->dirty_metadata(ino_block, tid_ino);
    if (target != nullptr)
      co_await journal_->dirty_metadata(layout_.inode_block(target->ino),
                                        tid_tgt);
    co_await journal_->dirty_metadata(old_shard, tid_old);
    if (new_shard == old_shard) tid_new = tid_old;
    if (target == nullptr) tid_tgt = tid_old;

    // The reservations may suspend; a concurrent namespace op may have
    // changed either name meanwhile. Back out (the reservations are just
    // journal membership — harmless) and let the caller re-resolve.
    auto now = files_.find(from);
    auto tgt_now = files_.find(to);
    if (now == files_.end() || now->second != &f ||
        (tgt_now == files_.end() ? nullptr : tgt_now->second) != target) {
      release_both();
      co_return false;
    }
    it = now;
    tgt_it = tgt_now;

    if (tid_new == tid_old && tid_ino == tid_old && tid_tgt == tid_old) {
      tid = tid_old;
      break;  // one running transaction owns every block
    }
    // A commit interleaved and split the blocks; those closes all predate
    // any mutation, so nothing inconsistent can replay — try again.
  }
  if (target != nullptr) {
    // Displace the target: the name slot switches to `f` below; the old
    // inode lives on for open descriptors (caller reclaims its storage).
    by_ino_[target->ino] = nullptr;
    sim::erase_keeping(files_, spare_file_nodes_, tgt_it);  // `it` stays valid
    ++stats_.unlinks;
  }
  shard_drop(from);
  shard_put(to, f.ino);
  f.name = to;
  auto node = files_.extract(it);  // rekey in place; no rehash hazards
  node.key() = to;
  files_.insert(std::move(node));
  ++stats_.renames;

  f.txn_id = tid;
  f.meta_dirty = true;
  if (target != nullptr) {
    // Tie the displaced inode to the transaction too, so an fsync through
    // a surviving descriptor commits the displacement (unlink parity).
    target->txn_id = tid;
    target->meta_dirty = true;
  }
  release_both();
  co_return true;
}

// ---- data path --------------------------------------------------------------

sim::Task Filesystem::write(Inode& f, std::uint32_t page,
                            std::uint32_t npages) {
  BIO_CHECK(npages > 0);
  BIO_CHECK_MSG(page + npages <= f.extent_blocks, "write beyond extent");
  if (degraded_) co_return;  // EROFS: api::Vfs reports it; nothing dirties
  ++stats_.writes;
  co_await sim_.delay(kWriteSyscallCpu * static_cast<sim::SimTime>(npages));
  // balance_dirty_pages(): writers stall once the dirty set is far past the
  // background watermark, so buffered-write throughput converges to the
  // device drain rate.
  while (cache_.dirty_count() > 4 * cfg_.writeback_high_watermark)
    co_await writeback_progress_.wait();

  // Journal-handle discipline (jbd2_journal_get_write_access): the inode
  // buffer joins the running transaction BEFORE the metadata it carries
  // changes. dirty_metadata() may suspend — txn throttle, or the §4.3
  // page-conflict rule parking this writer behind a full commit. Mutating
  // i_size first opened a window where a concurrent fsync observed the new
  // size, found the inode flags clean (an earlier sync had committed the
  // old registration), and acked a size that belonged to no transaction
  // any commit would ever cover. The whole mutation — page cache, i_size,
  // mtime, dirty flags — now lands in one synchronous stretch after the
  // registration returns.
  const bool touches_meta = sim_.now() / kTimerTick != f.mtime_tick ||
                            page + npages > f.size_blocks || f.size_dirty;
  std::uint64_t tid = 0;
  if (touches_meta)
    co_await journal_->dirty_metadata(layout_.inode_block(f.ino), tid);

  const std::uint32_t old_size = f.size_blocks;
  for (std::uint32_t i = 0; i < npages; ++i) {
    const std::uint32_t p = page + i;
    const bool overwrite = p < old_size;
    cache_.write(f.ino, p, f.lba_of_page(p), blk_.next_version(), overwrite);
  }
  // Re-evaluated after the suspension: a concurrent writer may have grown
  // the file past this write's end or stamped the same mtime tick — then
  // ITS registration carries those changes and this one only re-dirties.
  const bool grew = page + npages > f.size_blocks;
  if (grew) f.size_blocks = page + npages;
  const sim::SimTime tick = sim_.now() / kTimerTick;
  if (tick != f.mtime_tick) f.mtime_tick = tick;
  if (tid != 0) {
    f.txn_id = tid;
    f.meta_dirty = true;
    if (grew) {
      f.size_dirty = true;
      f.datasync_txn_id = tid;
    }
  }
}

sim::TaskOf<FsStatus> Filesystem::read(Inode& f, std::uint32_t page,
                                       std::uint32_t npages) {
  ++stats_.reads;
  FsStatus st = FsStatus::kOk;
  for (std::uint32_t i = 0; i < npages; ++i) {
    const std::uint32_t p = page + i;
    if (cache_.find(f.ino, p) != nullptr) {
      co_await sim_.delay(kWriteSyscallCpu);  // page-cache hit
    } else {
      blk::RequestPtr r = blk_.pool().make_read(f.lba_of_page(p));
      blk_.submit(r);
      co_await r->completion.wait();
      // A hard media read error (post-retry) is EIO to the caller; keep
      // reading the remaining pages as a real pagein would.
      if (r->failed()) st = FsStatus::kIo;
    }
  }
  co_return st;
}

// ---- helpers ----------------------------------------------------------------

blk::RequestPtr Filesystem::unstable_carrier(Inode& f) {
  // WB_SYNC_ALL write_cache_pages semantics: before resubmitting a dirty
  // page whose previous writeback copy is still in flight, wait for that
  // copy to land. Without this, two versions of one page race through the
  // scheduler and the older one can be written second — a write-after-write
  // hazard no real page cache allows (one in-flight copy per page).
  // Suspension-free, so sharing scratch_keys_ with submit_data stays safe.
  cache_.dirty_pages_of(f.ino, scratch_keys_);
  for (const PageCache::PageKey& key : scratch_keys_) {
    const PageCache::PageState* st = cache_.find(key.ino, key.page);
    if (st->writeback != nullptr && !st->writeback->completion.is_set())
      return st->writeback;
  }
  return nullptr;
}

void Filesystem::submit_data(Inode& f, bool ordered, bool barrier_last,
                             blk::RequestList& reqs) {
  // Single suspension-free pass: group the dirty pages into contiguous runs
  // (pages of one file map to a contiguous extent, so page adjacency == LBA
  // adjacency) and submit each run as soon as it closes. Runs are
  // contiguous subranges of `dirty`, so a [start, end) index pair replaces
  // the per-run key vectors.
  std::vector<PageCache::PageKey>& dirty = scratch_keys_;
  cache_.dirty_pages_of(f.ino, dirty);
  if (dirty.empty()) return;

  std::vector<blk::Block>& run = scratch_blocks_;
  run.clear();
  std::size_t run_start = 0;
  auto flush_run = [&](std::size_t run_end) {
    // Emits [run_start, run_end); the final run may carry the barrier.
    const bool barrier = barrier_last && run_end == dirty.size();
    stats_.writeback_pages += run.size();
    blk::RequestPtr r = blk_.pool().make_write(
        std::span<const blk::Block>(run), ordered, barrier);
    for (std::size_t k = run_start; k < run_end; ++k)
      cache_.begin_writeback(dirty[k], r);
    blk_.submit(r);
    reqs.push_back(std::move(r));
    run.clear();
    run_start = run_end;
  };
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const PageCache::PageState* st = cache_.find(dirty[i].ino, dirty[i].page);
    const bool extend = !run.empty() && run.back().first + 1 == st->lba &&
                        run.size() < blk::kMaxMergedBlocks;
    if (!extend && !run.empty()) flush_run(i);
    run.emplace_back(st->lba, st->version);
  }
  flush_run(dirty.size());
}

std::uint32_t Filesystem::journal_overwrites(Inode& f,
                                             std::size_t max_pages) {
  cache_.dirty_pages_of(f.ino, scratch_keys_);
  scratch_blocks_.clear();
  for (const PageCache::PageKey& key : scratch_keys_) {
    if (scratch_blocks_.size() >= max_pages) break;
    const PageCache::PageState* st = cache_.find(key.ino, key.page);
    if (st->overwrite) {
      scratch_blocks_.emplace_back(st->lba, st->version);
      cache_.mark_clean(key);
    }
  }
  if (!scratch_blocks_.empty()) journal_->add_journaled_data(scratch_blocks_);
  return static_cast<std::uint32_t>(scratch_blocks_.size());
}

sim::Task Filesystem::ensure_data_durable(const Inode& f,
                                          const blk::RequestList& reqs) {
  if (cfg_.nobarrier) co_return;
  for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
  const flash::StorageDevice& dev = blk_.device();
  // The inode's persist floor covers writeback carriers that completed and
  // were swept before this syscall could wait on them: their data
  // *transferred*, but may have entered the cache after whatever flush the
  // group commit already counted.
  bool proven = dev.persisted_through(f.persist_floor);
  for (const blk::RequestPtr& r : reqs) {
    if (!proven) break;
    // persist_through == 0: the request was absorbed into a foreign carrier
    // and never stamped — not provably persisted either.
    if (r->cmd.persist_through == 0 ||
        !dev.persisted_through(r->cmd.persist_through))
      proven = false;
  }
  if (!proven) co_await blk_.flush_and_wait();
}

void Filesystem::note_writeback_failures(Inode& f,
                                         const blk::RequestList& reqs) {
  for (const blk::RequestPtr& r : reqs) {
    if (!r->completion.is_set() || !r->failed()) continue;
    // The carrier's data never landed: redirty its pages (the buffered
    // content is intact) and record the error on the inode. api::Vfs turns
    // the advanced sequence into EIO once per fd (Linux AS_EIO/errseq_t).
    cache_.redirty_failed(f.ino, r);
    ++f.wb_err_seq;
  }
}

FsStatus Filesystem::commit_outcome(std::uint64_t tid) const {
  // A journal abort wakes every commit waiter; a txn that had already
  // retired was durable before the journal died, so only un-retired ones
  // turn into this call's EIO.
  return journal_->aborted() && !journal_->is_retired(tid) ? FsStatus::kIo
                                                           : FsStatus::kOk;
}

void Filesystem::sweep_writebacks(Inode& f, blk::RequestList* inflight) {
  bool swept = false;
  bool swept_failed = false;
  cache_.writebacks_of(f.ino, inflight, &swept, &swept_failed);
  if (swept_failed) ++f.wb_err_seq;  // pages were redirtied by the sweep
  if (swept) {
    // No sync can wait on the dropped carriers any more; their data
    // transferred no later than the cache's current order. Raise the floor
    // a later durability proof must clear.
    f.persist_floor =
        std::max(f.persist_floor, blk_.device().cache().next_order());
  }
}

void Filesystem::collect_file_writebacks(Inode& f, blk::RequestList& reqs) {
  // Pages of `f` already under writeback by someone else (pdflush, a
  // concurrent writer's sync): the requests this syscall itself just
  // submitted are skipped, and the foreign carriers are FOLDED into
  // `reqs`, so the caller's durability proof (ensure_data_durable) covers
  // them. Waiting their transfer alone is not enough: a concurrent sync's
  // commit flush may have entered the device before these carriers
  // transferred, leaving their data in the volatile cache when this
  // syscall acks durability.
  blk::RequestList wb = request_list();
  sweep_writebacks(f, &wb);
  // `wb` names a carrier once per page, in page order. A carrier's pages
  // are contiguous, and no page is resubmitted while its carrier is in
  // flight, so a carrier's entries are adjacent; and this call's own runs
  // (all of `reqs` so far) were cut from the dirty pages in page order, so
  // they appear in `reqs`' order unless completed (then swept, not
  // listed). One pass drops both kinds of repeat.
  const std::size_t own = reqs.size();
  std::size_t next_own = 0;
  const blk::RequestPtr* prev = nullptr;
  for (const blk::RequestPtr& r : wb) {
    if (prev != nullptr && r == *prev) continue;
    prev = &r;
    while (next_own < own && reqs.begin()[next_own]->completion.is_set())
      ++next_own;
    if (next_own < own && r == reqs.begin()[next_own]) {
      ++next_own;
      continue;
    }
    reqs.push_back(r);
  }
  recycle(wb);
}

blk::RequestList Filesystem::request_list() {
  if (spare_request_storage_.empty()) return {};
  blk::RequestList list(std::move(spare_request_storage_.back()));
  spare_request_storage_.pop_back();
  return list;
}

void Filesystem::recycle(blk::RequestList& list) {
  std::vector<blk::RequestPtr> storage = list.take_storage();
  if (storage.capacity() > 0)
    spare_request_storage_.push_back(std::move(storage));
}

sim::TaskOf<FsStatus> Filesystem::commit_metadata(Inode& f,
                                                  Journal::WaitMode mode) {
  // The newer of the metadata txn and the journaled-data txn: on OptFS a
  // concurrent osync may have journaled this file's pages into a LATER
  // transaction than the one holding the inode block, and a durability
  // commit must cover both (commits retire in order, so the max covers
  // the min). On EXT4/BarrierFS datasync_txn_id never exceeds txn_id.
  const std::uint64_t inode_tid = std::max(f.txn_id, f.datasync_txn_id);
  // iolint: stable-across-suspend(commit targets this id; the outcome
  // check must name the id the commit waited on, not a later txn)
  const std::uint64_t tid =
      inode_tid != 0 ? inode_tid : journal_->running_txn_id();
  f.meta_dirty = false;
  f.size_dirty = false;
  co_await journal_->commit(tid, mode);
  co_return commit_outcome(tid);
}

bool Filesystem::txn_in_flight(std::uint64_t tid) const {
  return tid != 0 && !journal_->is_retired(tid);
}

sim::TaskOf<FsStatus> Filesystem::wait_txn_durable(std::uint64_t tid) {
  co_await journal_->commit(tid, Journal::WaitMode::kDurable);
  co_return commit_outcome(tid);
}

// ---- synchronization ---------------------------------------------------------

bool supports(Syscall call, JournalKind journal) noexcept {
  switch (call) {
    case Syscall::kFsync:
    case Syscall::kFdatasync:
      return true;
    case Syscall::kFbarrier:  // BarrierFS native; OptFS runs it as osync
      return journal != JournalKind::kJbd2;
    case Syscall::kFdatabarrier:
      return journal == JournalKind::kBarrierFs;
    case Syscall::kOsync:
    case Syscall::kDsync:
      return journal == JournalKind::kOptFs;
    case Syscall::kNone:
      break;
  }
  return false;
}

namespace {
sim::TaskOf<FsStatus> finished(FsStatus status) { co_return status; }
}  // namespace

sim::TaskOf<FsStatus> Filesystem::sync(Inode& f, Syscall call) {
  BIO_CHECK(supports(call, cfg_.journal));
  if (degraded_) return finished(FsStatus::kRoFs);
  switch (call) {
    case Syscall::kFsync: ++stats_.fsyncs; break;
    case Syscall::kFdatasync: ++stats_.fdatasyncs; break;
    case Syscall::kFbarrier: ++stats_.fbarriers; break;
    case Syscall::kFdatabarrier: ++stats_.fdatabarriers; break;
    case Syscall::kDsync: ++stats_.dsyncs; return dsync_impl(f);
    case Syscall::kOsync:
    case Syscall::kNone:  // unsupported: the check above threw
      break;
  }
  // OptFS runs fsync, fdatasync and fbarrier as osync, counted as both.
  if (cfg_.journal == JournalKind::kOptFs) {
    ++stats_.osyncs;
    return osync_impl(f);
  }
  const bool datasync =
      call == Syscall::kFdatasync || call == Syscall::kFdatabarrier;
  return call == Syscall::kFsync || call == Syscall::kFdatasync
             ? sync_durable(f, datasync)
             : sync_ordered(f, datasync);
}

sim::TaskOf<FsStatus> Filesystem::sync_durable(Inode& f, bool datasync) {
  // Eq. 2 (EXT4): D -> Wait-on-Transfer -> commit -> wait durable.
  // Eq. 3 (BarrierFS): D dispatched order-preserving, commit without any
  // wait on transfer, a single sleep until the flush thread reports
  // durability.
  const bool wot = wait_on_transfer();
  while (const blk::RequestPtr r = unstable_carrier(f))
    co_await r->completion.wait();
  blk::RequestList reqs = request_list();
  submit_data(f, /*ordered=*/!wot, /*barrier_last=*/false, reqs);
  const std::size_t own = reqs.size();
  collect_file_writebacks(f, reqs);
  // Wait out the foreign carriers just folded in, in page order.
  for (const blk::RequestPtr* r = reqs.begin() + own; r != reqs.end(); ++r)
    co_await (*r)->completion.wait();
  if (wot) {
    for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
    note_writeback_failures(f, reqs);
  }
  // fdatasync skips mtime-only dirt (Fig 11): it commits for an i_size
  // change only.
  FsStatus status = FsStatus::kOk;
  if (datasync ? f.size_dirty : (f.meta_dirty || f.size_dirty)) {
    status = co_await commit_metadata(f, Journal::WaitMode::kDurable);
    // If the inode's transaction had already committed (group commit),
    // the wait above returned without a flush covering this call's data —
    // issue it (ext4_sync_file's needs-barrier path).
    if (status == FsStatus::kOk) co_await ensure_data_durable(f, reqs);
  } else if (const std::uint64_t tid = datasync ? f.datasync_txn_id
                                                : f.txn_id;
             txn_in_flight(tid)) {
    // A concurrent syscall's commit_metadata() cleared the flags but its
    // commit — the one holding this inode's metadata (fsync) or latest
    // i_size change (fdatasync) — is still in flight: the call may not
    // return before it is durable (ext4's jbd2_log_wait_commit on
    // i_sync_tid / i_datasync_tid).
    status = co_await wait_txn_durable(tid);
    if (status == FsStatus::kOk) co_await ensure_data_durable(f, reqs);
  } else if (!cfg_.nobarrier) {  // only EXT4-OD mounts nobarrier
    // Already settled under Wait-on-Transfer.
    for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
    co_await blk_.flush_and_wait();
  }
  if (!wot) {
    // The data transfers this call covers completed above on every path
    // but the failed-commit ones; settle them so a dead carrier is
    // recorded now, not swept silently later.
    for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
    note_writeback_failures(f, reqs);
  }
  recycle(reqs);
  co_return status;
}

sim::TaskOf<FsStatus> Filesystem::sync_ordered(Inode& f, bool datasync) {
  const bool will_commit =
      datasync ? f.size_dirty : (f.meta_dirty || f.size_dirty);
  while (const blk::RequestPtr r = unstable_carrier(f))
    co_await r->completion.wait();
  // Without a commit, the data's last request delimits the epoch itself.
  blk::RequestList reqs;
  submit_data(f, /*ordered=*/true, /*barrier_last=*/!will_commit, reqs);
  sweep_writebacks(f, nullptr);
  // get_request() backpressure.
  if (blk_.congested()) co_await blk_.throttle();
  if (will_commit) {
    // The journal commit (ORDERED|BARRIER JD and JC) delimits the epoch.
    // fbarrier wakes when the commit thread has dispatched both;
    // fdatabarrier does not wait for anything.
    co_return co_await commit_metadata(f, datasync
                                              ? Journal::WaitMode::kNone
                                              : Journal::WaitMode::kDispatched);
  }
  if (!reqs.empty()) co_return FsStatus::kOk;
  // Nothing dirty at all: force an (empty) journal commit so the epoch is
  // still delimited (§4.2).
  // iolint: stable-across-suspend(the outcome check must name the id this
  // commit waited on, not whatever txn runs after it)
  const std::uint64_t tid = journal_->running_txn_id();
  co_await journal_->commit(tid, Journal::WaitMode::kNone);
  co_return commit_outcome(tid);
}

sim::TaskOf<FsStatus> Filesystem::osync_impl(Inode& f) {
  // OptFS: osync is filesystem-wide — it scans the *global* dirty list
  // (selective data journaling keeps that list long on overwrite-heavy
  // workloads), journals overwrites, writes allocating pages in place,
  // commits with Wait-on-Transfer, and never flushes.
  const std::size_t dirty_pages = cache_.dirty_count();
  co_await sim_.delay(kOsyncScanCpuPerPage *
                      static_cast<sim::SimTime>(dirty_pages + 1));
  while (const blk::RequestPtr r = unstable_carrier(f))
    co_await r->completion.wait();
  // Selective data journaling adds one log block per overwrite page. The
  // batch is bounded to the journal's per-transaction payload limit and
  // split across transactions when a file carries more dirty overwrites
  // than one transaction may hold (a 48-page extent over a 48-block
  // journal is a legal configuration); each full batch commits before the
  // next is journaled, and the running transaction is throttled first so
  // concurrent writers' buffers do not push the batch past the limit.
  std::uint32_t journaled = 0;
  std::uint64_t journaled_tid = 0;
  for (;;) {
    // A journal that died under a previous lap's commit must not swallow
    // more overwrite pages into a transaction nobody will ever write.
    if (journal_->aborted()) co_return FsStatus::kIo;
    const std::size_t limit = journal_->max_txn_payload();
    std::size_t pending = 0;
    cache_.dirty_pages_of(f.ino, scratch_keys_);
    for (const PageCache::PageKey& key : scratch_keys_)
      if (cache_.find(key.ino, key.page)->overwrite) ++pending;
    if (pending == 0) break;
    const std::size_t adding = std::min(pending, limit);
    while (journal_->running_txn_full(adding))
      co_await journal_->commit(journal_->running_txn_id(),
                                Journal::WaitMode::kDispatched);
    // Concurrent writers may have refilled the running transaction during
    // the throttle's commit-wait: cap the batch at the headroom actually
    // left, read in this same synchronous stretch as the add.
    const std::size_t payload = journal_->running_payload();
    if (payload >= limit) continue;  // no room — throttle again
    const std::size_t room = limit - payload;
    const std::uint32_t batch = journal_overwrites(f, room);
    if (batch == 0) break;
    journaled += batch;
    // The journaled pages joined the transaction running NOW. Record it on
    // the inode in this same synchronous stretch: a concurrent durability
    // syscall (dsync) must know which transaction carries this file's
    // data — and the commits below must name exactly this id, because the
    // waits in between can outlive the transaction's close.
    // iolint: stable-across-suspend(see above — the commits must target
    // the txn that carried the batch, never a re-read of the running id)
    journaled_tid = journal_->running_txn_id();
    f.datasync_txn_id = std::max(f.datasync_txn_id, journaled_tid);
    if (batch < room) break;  // the file's overwrites all fit
    co_await journal_->commit(journaled_tid, Journal::WaitMode::kDurable);
    if (commit_outcome(journaled_tid) != FsStatus::kOk)
      co_return FsStatus::kIo;
  }
  blk::RequestList reqs;
  submit_data(f, false, false, reqs);
  // The osync transaction's commit checksum covers the allocating writes
  // going in place: attach them so recovery can validate atomicity.
  for (const blk::RequestPtr& r : reqs) journal_->attach_data(r);
  for (const blk::RequestPtr& r : reqs) co_await r->completion.wait();
  note_writeback_failures(f, reqs);
  sweep_writebacks(f, nullptr);
  FsStatus status = FsStatus::kOk;
  if (journaled > 0) {
    f.meta_dirty = false;
    f.size_dirty = false;
    co_await journal_->commit(journaled_tid, Journal::WaitMode::kDurable);
    status = commit_outcome(journaled_tid);
  } else if (f.meta_dirty || f.size_dirty) {
    status = co_await commit_metadata(f, Journal::WaitMode::kDurable);
  } else if (journal_->running_has_updates()) {
    // iolint: stable-across-suspend(outcome must name the committed id)
    const std::uint64_t tid = journal_->running_txn_id();
    co_await journal_->commit(tid, Journal::WaitMode::kDurable);
    status = commit_outcome(tid);
  } else if (txn_in_flight(f.txn_id) || txn_in_flight(f.datasync_txn_id)) {
    // Nothing new to commit, but a concurrent syscall's transaction still
    // holds this file's metadata or journaled data (it may be stalled on
    // journal space): this osync orders after it — and dsync's trailing
    // flush must cover its records, so wait its transfer here.
    status = co_await wait_txn_durable(std::max(f.txn_id, f.datasync_txn_id));
  }
  co_return status;
}

sim::TaskOf<FsStatus> Filesystem::dsync_impl(Inode& f) {
  // OptFS dsync (§5 substitution, OptFS paper): the osync protocol — the
  // journal commit itself never waits on a flush — followed by one cache
  // flush, so the data this call covered is on media at return while
  // metadata durability still arrives on the journal's own schedule.
  const FsStatus status = co_await osync_impl(f);
  // Writebacks of this file still in flight from concurrent order points
  // must transfer before the flush below, or their (covered) data sits in
  // the volatile cache past this call's durable return.
  blk::RequestList wb;
  sweep_writebacks(f, &wb);
  for (const blk::RequestPtr& r : wb) co_await r->completion.wait();
  note_writeback_failures(f, wb);
  co_await blk_.flush_and_wait();
  co_return status;
}

// ---- pdflush -----------------------------------------------------------------

sim::Task Filesystem::pdflush_loop() {
  // Batch-local buffers live in the coroutine frame and keep their
  // capacity across batches; the collection/submission stretch below never
  // suspends, so they cannot be observed half-filled.
  std::vector<PageCache::PageKey> keys;
  std::vector<blk::RequestPtr> reqs;
  std::vector<std::uint32_t> req_inos;  // per-request owner (runs are 1 file)
  std::vector<blk::Block> run;
  std::vector<PageCache::PageKey> run_keys;
  std::vector<blk::Block> journaled_blocks;
  for (;;) {
    while (cache_.dirty_count() < cfg_.writeback_high_watermark)
      co_await cache_.dirtied().wait();
    while (cache_.dirty_count() > cfg_.writeback_high_watermark / 4) {
      cache_.all_dirty(kWritebackBatch * blk::kMaxMergedBlocks, keys);
      if (keys.empty()) break;

      // Group into contiguous runs per file.
      reqs.clear();
      req_inos.clear();
      run.clear();
      run_keys.clear();
      auto flush_run = [&]() {
        if (run.empty()) return;
        blk::RequestPtr r =
            blk_.pool().make_write(std::span<const blk::Block>(run));
        for (const PageCache::PageKey& key : run_keys)
          cache_.begin_writeback(key, r);
        stats_.writeback_pages += run_keys.size();
        blk_.submit(r);
        reqs.push_back(std::move(r));
        req_inos.push_back(run_keys.front().ino);
        run.clear();
        run_keys.clear();
      };
      journaled_blocks.clear();
      blk::RequestPtr skipped_carrier;
      bool journal_batch_full = false;
      for (const PageCache::PageKey& key : keys) {
        if (reqs.size() >= kWritebackBatch) break;
        const PageCache::PageState* st = cache_.find(key.ino, key.page);
        if (st->writeback != nullptr && !st->writeback->completion.is_set()) {
          // WB_SYNC_NONE: skip pages with an in-flight copy.
          if (skipped_carrier == nullptr) skipped_carrier = st->writeback;
          continue;
        }
        if (cfg_.journal == JournalKind::kOptFs && st->overwrite) {
          // OptFS: overwrite writeback goes through the journal (selective
          // data journaling), not in place. The page's inode remembers the
          // carrying transaction, as osync does (dsync attribution). The
          // batch stays within one transaction's payload — the remainder
          // keeps its dirty bit for the next pdflush pass.
          // A dead journal can carry nothing: skip the page (writing the
          // overwrite in place would destroy the committed old version it
          // was journaled to protect). It stays dirty, memory-only, on the
          // degraded volume.
          if (journal_->aborted()) continue;
          if (journal_->running_payload() + journaled_blocks.size() >=
              journal_->max_txn_payload()) {
            journal_batch_full = true;
            continue;
          }
          journaled_blocks.emplace_back(st->lba, st->version);
          // iolint: txn-registered(add_journaled_data below joins this
          // batch to the running txn in the same synchronous stretch —
          // registration is deferred past the loop, never past a suspend)
          if (Inode* owner = by_ino_[key.ino]; owner != nullptr)
            owner->datasync_txn_id = journal_->running_txn_id();
          cache_.mark_clean(key);
          continue;
        }
        const bool extend = !run.empty() &&
                            run_keys.back().ino == key.ino &&
                            run.back().first + 1 == st->lba &&
                            run.size() < blk::kMaxMergedBlocks;
        if (!extend) flush_run();
        run.emplace_back(st->lba, st->version);
        run_keys.push_back(key);
      }
      flush_run();
      if (!journaled_blocks.empty()) {
        journal_->add_journaled_data(journaled_blocks);
        co_await journal_->commit(journal_->running_txn_id(),
                                  Journal::WaitMode::kDurable);
      } else if (reqs.empty()) {
        // Every collected page was skipped: this pass made no progress, so
        // suspend on whatever blocks it — an in-flight carrier, or a full
        // running transaction (commit it so the next pass has payload
        // room) — or the loop would spin forever in the cooperative
        // simulator.
        if (skipped_carrier != nullptr)
          co_await skipped_carrier->completion.wait();
        else if (journal_batch_full)
          co_await journal_->commit(journal_->running_txn_id(),
                                    Journal::WaitMode::kDurable);
        else if (journal_->aborted())
          // Every remaining dirty page needs the (dead) journal: park until
          // something in-place-writable gets dirtied, instead of spinning.
          co_await cache_.dirtied().wait();
        else
          break;
      }

      for (std::size_t i = 0; i < reqs.size(); ++i) {
        co_await reqs[i]->completion.wait();
        if (reqs[i]->failed()) {
          // Background writeback failed: redirty and record the error on
          // the owner, so the owner's next fsync reports EIO (AS_EIO).
          cache_.redirty_failed(req_inos[i], reqs[i]);
          if (Inode* owner = by_ino_[req_inos[i]]; owner != nullptr)
            ++owner->wb_err_seq;
        }
      }
      writeback_progress_.notify_all();
    }
  }
}

}  // namespace bio::fs
