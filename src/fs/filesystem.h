// The filesystem facade: the syscall surface the applications use.
//
// One Filesystem owns a page cache, an inode table, an extent allocator and
// a journal (JBD2, BarrierFS or OptFS per FsConfig::journal). The syscalls
// are simulated-thread Tasks; their blocking structure (who waits for which
// DMA/flush) is exactly the paper's. Every sync enters through sync(), the
// one Syscall switch, which runs one protocol body per sync class; which
// journal admits which call is fs::supports:
//
//            | data writes          | metadata commit        | no commit due
//   ---------+----------------------+------------------------+--------------
//   sync_durable (fsync, fdatasync):
//   EXT4     | submit + wait (WoT)  | commit + wait durable  | flush + wait
//   EXT4-OD  | submit + wait (WoT)  | commit + wait transfer | (nothing)
//   BarrierFS| submit ordered       | commit (1 wakeup)      | wait + flush
//   sync_ordered (BarrierFS only):
//   fbarrier | submit ordered       | wait dispatch only     | barrier flag
//   fdatabar.| submit ordered       | epoch delimit, no wait | barrier flag
//   osync_impl (osync; OptFS's fsync/fdatasync/fbarrier run osync):
//   OptFS    | submit + wait (WoT)  | commit + wait transfer | —
//   dsync_impl (OptFS dsync): osync_impl, then a cache flush
//
// The EXT4 and BarrierFS rows of sync_durable are one body: Eq. 2 versus
// Eq. 3 is the single wait_on_transfer() test on the journal kind.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blk/block_layer.h"
#include "fs/journal.h"
#include "fs/page_cache.h"
#include "fs/types.h"
#include "sim/reuse.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::fs {

struct RecoveryReport;  // fs/recovery.h

/// Which sync syscalls a journal flavour runs — the one capability matrix.
/// Filesystem::sync requires it; api::Vfs::sync and api::Ring's submit-time
/// sqe validation answer a mismatch with EINVAL. kNone is never a syscall.
bool supports(Syscall call, JournalKind journal) noexcept;

class Filesystem {
 public:
  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t fdatasyncs = 0;
    std::uint64_t fbarriers = 0;
    std::uint64_t fdatabarriers = 0;
    std::uint64_t osyncs = 0;
    std::uint64_t dsyncs = 0;
    std::uint64_t creates = 0;
    std::uint64_t unlinks = 0;
    std::uint64_t renames = 0;
    std::uint64_t writeback_pages = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  Filesystem(sim::Simulator& sim, blk::BlockLayer& blk, FsConfig cfg);
  ~Filesystem();

  /// Spawns journal threads and pdflush. Call once after blk.start().
  void start();

  /// Remounts this (fresh, unused) filesystem over a recovered image:
  /// rebuilds the namespace and inode table from the files fs::Recovery
  /// reconstructed. Call before running any workload; start() may be
  /// called before or after.
  void mount(const RecoveryReport& recovered);

  // ---- namespace ---------------------------------------------------------

  /// Creates a file with a contiguous extent (default size from config).
  /// Dirties the directory and the new inode's metadata. `out` ends null
  /// when a concurrent unlink of `name` reclaimed the file before create
  /// returned.
  sim::Task create(std::string name, Inode*& out,
                   std::uint32_t extent_blocks = 0);
  Inode* lookup(const std::string& name);
  /// Removes a file and dirties the directory. With `reclaim_now` false
  /// the extent/ino are NOT recycled: callers holding open descriptors
  /// (api::Vfs) keep writing to the inode's storage and call reclaim() on
  /// the last close, as the kernel does at iput().
  sim::Task unlink(const std::string& name, bool reclaim_now = true);
  /// Moves a file to a new name. `from` must exist; an existing `to` is
  /// displaced *in the same transaction* (POSIX: the destination name
  /// atomically switches files, and a crash never exposes a state where
  /// it vanished). The displaced inode keeps living (open descriptors);
  /// the caller owns its storage reclamation, as with a deferred unlink().
  /// Journal reservations happen before the namespace mutation so the
  /// rename replays atomically under crash recovery; returns false —
  /// with nothing changed — when a concurrent namespace operation won
  /// the race during those (suspending) reservations.
  sim::TaskOf<bool> rename(const std::string& from, const std::string& to);
  /// Recycles an unlinked inode's extent and ino (deferred reclamation).
  /// The Inode object itself goes back to the free list once no namespace
  /// call holds it; nothing may touch it after this call.
  void reclaim(Inode& f);
  /// True while create() can still allocate an inode (the fd-visible
  /// capacity check api::Vfs uses for its ENOSPC path).
  bool has_free_inode() const noexcept {
    return !free_inos_.empty() || next_ino_ < cfg_.max_inodes;
  }

  // ---- data path ---------------------------------------------------------

  /// Buffered write of `npages` pages at `page` offset. Allocating writes
  /// (beyond current size) dirty the inode's size; every write may dirty
  /// the timestamp once per timer tick.
  sim::Task write(Inode& f, std::uint32_t page, std::uint32_t npages);

  /// kIo when any miss's device read hard-failed (transient read faults
  /// are retried by the block layer and stay invisible here).
  sim::TaskOf<FsStatus> read(Inode& f, std::uint32_t page,
                             std::uint32_t npages);

  // ---- synchronization (the paper's API) ----------------------------------

  /// Runs one sync syscall on `f`; `call` must be one this journal
  /// supports(). Not a coroutine: it counts the call's stat (on OptFS,
  /// fsync, fdatasync and fbarrier also count an osync) and returns the
  /// protocol body's task. The task yields kRoFs when the volume was
  /// already degraded read-only at entry (nothing counted), kIo when the
  /// call's own journal commit died under it (the abort degrades the
  /// volume — errors=remount-ro). Failed *data* writebacks do not fail the
  /// call here; they redirty the pages and bump the inode's wb_err_seq, and
  /// api::Vfs turns an advanced sequence into EIO exactly once per fd
  /// (Linux errseq_t semantics).
  sim::TaskOf<FsStatus> sync(Inode& f, Syscall call);

  /// True once the journal aborted and degraded this volume read-only
  /// (errors=remount-ro). Reads keep working; api::Vfs fails writes and
  /// syncs with EROFS. Recovery happens by remounting over the recovered
  /// image (crash + fs::Recovery + mount()), not in place.
  bool degraded() const noexcept { return degraded_; }

  Journal& journal() noexcept { return *journal_; }
  sim::Simulator& sim() noexcept { return sim_; }
  const Stats& stats() const noexcept { return stats_; }
  const FsConfig& config() const noexcept { return cfg_; }
  const Layout& layout() const noexcept { return layout_; }
  PageCache& page_cache() noexcept { return cache_; }

 private:
  /// Eq. 2 vs Eq. 3, the paper's one real difference between the two
  /// durability protocols: EXT4 waits for the data's transfer before the
  /// commit; BarrierFS dispatches it order-preserving and settles it after.
  bool wait_on_transfer() const noexcept {
    return cfg_.journal != JournalKind::kBarrierFs;
  }

  /// The fsync (datasync = false) / fdatasync protocol body on EXT4 and
  /// BarrierFS. fdatasync commits only for an i_size change and waits on
  /// i_datasync_tid instead of i_sync_tid.
  sim::TaskOf<FsStatus> sync_durable(Inode& f, bool datasync);
  /// The fbarrier (datasync = false) / fdatabarrier protocol body
  /// (BarrierFS): fbarrier wakes once JD and JC are dispatched,
  /// fdatabarrier right after its own dispatch.
  sim::TaskOf<FsStatus> sync_ordered(Inode& f, bool datasync);
  /// OptFS osync: ordering commit with Wait-on-Transfer, no flush.
  sim::TaskOf<FsStatus> osync_impl(Inode& f);
  /// OptFS dsync: osync_impl plus a cache flush — the caller's *data* is
  /// on media at return, while the metadata commit itself keeps osync's
  /// asynchronous-durability protocol (no Wait-on-Flush inside the
  /// journal; the trailing flush is what makes the data stick).
  sim::TaskOf<FsStatus> dsync_impl(Inode& f);

  /// Scans completed requests for IO failure: redirties the dead carriers'
  /// pages and advances f.wb_err_seq once per failed request. Called at
  /// every sync-path wait site (after the requests' completions fired).
  void note_writeback_failures(Inode& f, const blk::RequestList& reqs);

  /// Post-commit-wait verdict: kIo when the journal aborted without
  /// durably retiring `tid` (this call's commit died), kOk otherwise.
  FsStatus commit_outcome(std::uint64_t tid) const;

  /// The in-flight writeback carrier of the first dirty page of `f` that
  /// has one, or null (stable resubmission; see the definition). Every
  /// sync path waits these out, one at a time, before submit_data.
  blk::RequestPtr unstable_carrier(Inode& f);

  /// Submits write requests for the file's dirty pages (grouped into
  /// contiguous runs) and appends them to `reqs`. `ordered`/`barrier_last`
  /// control the request flags. Runs without suspension (uses the shared
  /// scratch buffers).
  void submit_data(Inode& f, bool ordered, bool barrier_last,
                   blk::RequestList& reqs);

  /// OptFS: strips up to `max_pages` overwrite pages out of the dirty set
  /// into the journal (selective data journaling); returns the count
  /// journaled. Batches are bounded so one transaction's JD record always
  /// fits the journal (osync_impl splits larger payloads across commits).
  std::uint32_t journal_overwrites(Inode& f, std::size_t max_pages);

  /// Journal close hook: freezes each dirtied metadata block's logical
  /// content (MetaSnapshot) into the closing transaction.
  void snapshot_metadata(Txn& txn);

  /// ext4_sync_file's "journal already committed" barrier: a durability
  /// syscall whose metadata transaction committed (and flushed) *before*
  /// this call's data transferred must still issue a flush, or the data
  /// sits in the device cache while the caller believes it durable. Waits
  /// the requests' transfers, then flushes unless every request provably
  /// persisted (its cache watermark drained — e.g. under the commit's own
  /// flush).
  sim::Task ensure_data_durable(const Inode& f, const blk::RequestList& reqs);
  /// Every sync body's writeback sweep: drops `f`'s completed writeback
  /// carriers (they go back to the request pool), raising f.persist_floor
  /// to the cache's current order when it drops any and advancing
  /// f.wb_err_seq when one of them failed; appends the in-flight ones to
  /// `inflight` unless it is null.
  void sweep_writebacks(Inode& f, blk::RequestList* inflight);
  /// Sweeps, then appends the in-flight writeback carriers of `f` not
  /// already in `reqs` to it (the caller then waits them out), so its later
  /// durability proof (ensure_data_durable) covers foreign writebacks too.
  /// `reqs` holds the data runs submit_data just appended, and nothing else.
  void collect_file_writebacks(Inode& f, blk::RequestList& reqs);
  /// A request list over spare spill storage, and back: a large fsync's
  /// lists hold a request per data run, past RequestList's inline entries.
  /// A list takes storage when its sync starts and gives it back, emptied,
  /// when the sync ends; syncs suspend, so each needs its own.
  blk::RequestList request_list();
  void recycle(blk::RequestList& list);
  /// True while `tid` names a transaction not yet durably retired — the
  /// "a concurrent syscall's commit still holds this inode's metadata"
  /// test behind the i_sync_tid / i_datasync_tid waits in fsync/fdatasync.
  bool txn_in_flight(std::uint64_t tid) const;
  sim::TaskOf<FsStatus> wait_txn_durable(std::uint64_t tid);
  sim::Task pdflush_loop();
  flash::Lba dir_block_of(const std::string& name) const;
  sim::TaskOf<FsStatus> commit_metadata(Inode& f, Journal::WaitMode mode);

  /// A fresh Inode: a recycled one from the free list, else a new one.
  Inode& new_inode();
  /// Drops one namespace call's hold on `f` (Inode::holds).
  void release(Inode& f);
  /// Returns a reclaimed inode no namespace call holds to the free list.
  void recycle_if_idle(Inode& f);

  using Shard = std::map<std::string, std::uint32_t>;
  /// The directory shard that owns `name`.
  Shard& shard_of(const std::string& name);
  /// Sets (or adds) `name`'s entry in its shard.
  void shard_put(const std::string& name, std::uint32_t ino);
  void shard_drop(const std::string& name);

  sim::Simulator& sim_;
  blk::BlockLayer& blk_;
  FsConfig cfg_;
  Layout layout_;
  PageCache cache_;
  std::unique_ptr<Journal> journal_;

  /// Every Inode this filesystem made (stable addresses). An unlinked
  /// inode stays alive while open descriptors reference it, as with the
  /// kernel's inode refcount; its ino and extent are recycled at
  /// reclaim(), and the object joins free_inodes_ once no call holds it.
  std::deque<Inode> inode_store_;
  std::vector<Inode*> free_inodes_;
  using FileMap = std::unordered_map<std::string, Inode*>;
  FileMap files_;
  sim::SpareNodes<FileMap> spare_file_nodes_;
  /// Live files by ino, max_inodes slots (snapshot_metadata's inode-block
  /// lookup); null where no live file has the ino.
  std::vector<Inode*> by_ino_;
  /// Directory-shard contents by shard index: name -> ino (the logical
  /// content of the shard's directory block).
  std::vector<Shard> shard_entries_;
  sim::SpareNodes<Shard> spare_shard_nodes_;
  std::uint32_t next_ino_ = 1;  // ino 0 is the root directory
  sim::FlatQueue<std::uint32_t> free_inos_;
  flash::Lba data_next_ = 0;
  sim::FlatQueue<std::pair<flash::Lba, std::uint32_t>> free_extents_;
  Inode root_;

  sim::Notify writeback_progress_;
  Stats stats_;
  bool started_ = false;
  /// Journal aborted -> volume read-only (set by the journal's abort hook).
  bool degraded_ = false;

  /// Scratch buffers reused by the suspension-free helpers (submit_data,
  /// journal_overwrites). The simulator is single-threaded and these
  /// helpers never co_await, so sharing them across concurrent syscalls is
  /// safe and keeps the per-fsync heap traffic at zero.
  std::vector<PageCache::PageKey> scratch_keys_;
  std::vector<blk::Block> scratch_blocks_;
  /// Spill storage of request_list()s not in use.
  std::vector<std::vector<blk::RequestPtr>> spare_request_storage_;
};

}  // namespace bio::fs
