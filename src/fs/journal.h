// Journaling core shared by the two journal classes: Jbd2Journal, the
// single committer (EXT4's protocols and OptFS's), and BarrierFsJournal
// (dual mode).
//
// A transaction collects dirty metadata blocks (and, in ordered mode, the
// data requests that must reach the device before the journal description
// of them). Committing writes two records into the circular journal area:
//   JD — one descriptor block + one log block per buffer (one request),
//   JC — the commit record (one block).
// How JD/JC are written — with which waits, flags and flushes — is exactly
// what distinguishes EXT4 from BarrierFS (paper Eq. 2 vs Eq. 3), so that
// logic lives in the subclasses.
//
// Journal-space lifetime (DESIGN.md §6.5): the journal area is circular
// with an explicit tail. A transaction's records own their blocks from
// reservation until the transaction has retired AND its in-place checkpoint
// copies are durable; reserve_journal_blocks() stalls instead of handing
// out space still owned by an un-checkpointed transaction (the jbd2
// "journal full" path). Tail advance requires durability of the released
// checkpoints: either a full device flush completed after the checkpoint
// writes did (flush horizon — fsync traffic pays for it), or the journal
// issues one itself (jbd2's update-log-tail flush).
//
// Checkpointing is lazy, as in jbd2 (DESIGN.md §5). A retiring transaction
// issues no in-place copy: each of its homes becomes a pending copy, and
// it drops every older transaction's pending copy of a home it holds (a
// buffer sits on its newest transaction's checkpoint list only). A copy
// nobody drops is issued once its transaction's JC is max_txn_payload()
// blocks behind the head, or at once when a reservation stalls on its
// span. A span is released once a flush has completed that entered after
// the last event that left its homes in the device cache: its copies
// completing, or a retire dropping one (the dropper's journal copy is
// then the home's only newer one).
//
// Every descriptor and commit block carries a JournalRecord describing its
// content, valid while the block holds the version it was written with —
// the simulation's payload identity. fs::Recovery replays a crashed device
// image through these records.
//
// Only the live stretch between tail and head exists. When the tail moves
// past a transaction (DESIGN.md §5) it is released: its journal records are
// erased, each checkpoint copy's MetaSnapshot moves into that copy's
// checkpoint record, and its Txn object is reused for a later transaction.
// Ids below the tail read as retired and have no Txn: a commit waiter that
// slept through its transaction's release looks the id up again instead
// of reading the object.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blk/block_layer.h"
#include "fs/types.h"
#include "sim/reuse.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace bio::fs {

/// Content description of one journal-area block, valid while the block
/// holds the version it was written with. This is the "what would a scan
/// read here" model: the durable image gives (lba -> version); looking the
/// pair up here gives the record that version carried. Only descriptor and
/// commit blocks have records — log blocks are located through their
/// transaction's descriptor (jd_blocks[1..] paired with buffers, then
/// journaled_data) and validated by version, and the commit checksum's
/// in-place data coverage lives in Txn::covered_data.
struct JournalRecord {
  enum class Type : std::uint8_t {
    kDescriptor,  // tag table: the txn's log blocks and their homes
    kCommit,      // commit record
  };

  Type type = Type::kDescriptor;
  std::uint64_t txn_id = 0;
};

/// A transaction's dirty metadata blocks: a set kept as a sorted vector.
/// It iterates in ascending block order, the descriptor's tag-table order
/// that recovery pairs log blocks with, and keeps its storage when the
/// journal reuses its transaction.
class BlockSet {
 public:
  bool contains(flash::Lba b) const noexcept {
    return std::binary_search(blocks_.begin(), blocks_.end(), b);
  }
  /// False when `b` was already a member.
  bool insert(flash::Lba b) {
    auto it = std::lower_bound(blocks_.begin(), blocks_.end(), b);
    if (it != blocks_.end() && *it == b) return false;
    blocks_.insert(it, b);
    return true;
  }
  std::size_t size() const noexcept { return blocks_.size(); }
  bool empty() const noexcept { return blocks_.empty(); }
  auto begin() const noexcept { return blocks_.begin(); }
  auto end() const noexcept { return blocks_.end(); }
  void clear() noexcept { blocks_.clear(); }

 private:
  std::vector<flash::Lba> blocks_;
};

/// A transaction's state that owns no storage. Every field starts at its
/// initial value, and Txn::reuse resets them all with one assignment, so
/// a field added here cannot carry a released transaction's value into a
/// later one.
struct TxnScalars {
  enum class State : std::uint8_t { kRunning, kCommitting, kRetired };

  std::uint64_t id = 0;
  State state = State::kRunning;
  /// A durability waiter requires a flush before retirement (read by the
  /// BarrierFS flush thread only).
  bool needs_flush = false;
  /// A flush was actually issued before retirement.
  bool flushed = false;

  /// JC as written (for crash analysis).
  std::pair<flash::Lba, flash::Version> jc_block{0, 0};
  /// The in-flight JC request (BarrierFS's flush thread waits on it; OptFS
  /// holds it until retire); reset at retire.
  blk::RequestPtr jc_req = nullptr;
  /// The in-flight JD request (BarrierFS submits it without waiting; the
  /// flush thread later checks it for IO failure before retiring); reset
  /// at retire.
  blk::RequestPtr jd_req = nullptr;

  // ---- checkpoint lifetime (journal-space release gating) -----------------
  /// Retired, no copy pending, and every issued copy has transferred.
  bool checkpoint_done = false;
  /// Journaled data has been copied in place (lazy, on space pressure).
  bool data_checkpointed = false;
  /// The span's release waits for a flush above `flush_stamp`.
  bool flush_owed = false;
  /// Homes whose in-place copy is pending: neither issued nor dropped.
  std::uint32_t pending_homes = 0;
  /// Device flush sequence that a completed flush's entry sequence must
  /// exceed before this span's homes are durable (Journal::owe_flush):
  /// raised when a retire drops one of its pending copies (the dropper's
  /// JD and JC have transferred, and its journal copy may still sit in the
  /// device cache) and when its in-place metadata or data copies complete.
  std::uint64_t flush_stamp = 0;
};

/// One transaction: its scalar state (TxnScalars), its lists, which keep
/// their storage when the journal reuses the object, and its two events.
struct Txn : TxnScalars {
  /// Dirty metadata blocks (inode table LBAs).
  BlockSet buffers;
  /// Data-journaled pages (OptFS selective data journaling): extra log
  /// blocks in JD, with their payload identity.
  std::vector<blk::Block> journaled_data;
  /// Ordered-mode data requests that must transfer before JD. Drained (and
  /// cleared) by the commit loops; OptFS freezes their payload into
  /// `covered_data` first.
  std::vector<blk::RequestPtr> data_reqs;
  /// In-place data blocks this transaction's commit checksum covers
  /// (OptFS: osync's allocating writes — a lost one fails the checksum and
  /// invalidates the transaction at recovery).
  std::vector<blk::Block> covered_data;

  /// Frozen content of each metadata buffer at commit close (the journal's
  /// log-copy payload), captured by the filesystem's close hook. Sorted by
  /// block (buffers iterate in set order); use find_snapshot().
  std::vector<std::pair<flash::Lba, MetaSnapshot>> meta_snapshots;

  const MetaSnapshot* find_snapshot(flash::Lba block) const {
    auto it = std::lower_bound(
        meta_snapshots.begin(), meta_snapshots.end(), block,
        [](const auto& e, flash::Lba b) { return e.first < b; });
    return it != meta_snapshots.end() && it->first == block ? &it->second
                                                            : nullptr;
  }

  /// JD as written: the descriptor block, then the log blocks (for crash
  /// analysis).
  std::vector<std::pair<flash::Lba, flash::Version>> jd_blocks;

  /// In-place metadata copies issued (due, or on a stall): (home lba,
  /// device version), in home order. Homes of `buffers` missing here were
  /// dropped.
  std::vector<std::pair<flash::Lba, flash::Version>> checkpoint_blocks;
  /// The checkpoint tracker's share of those copies: the requests it waits
  /// for (submitted ones first, then the deferred ones as it submits them)
  /// and the copies whose home had an older copy in flight at issue, which
  /// it submits once that one completed (buffer-lock rule).
  std::vector<blk::RequestPtr> checkpoint_reqs;
  std::vector<blk::Block> deferred_copies;

  /// JD and JC have been dispatched (fbarrier()'s wake-up point).
  sim::Event dispatched;
  /// Transaction retired; for durability-mode commits this means durable.
  sim::Event durable;

  explicit Txn(sim::Simulator& sim, std::uint64_t txn_id)
      : TxnScalars{.id = txn_id}, dispatched(sim), durable(sim) {}

  /// Opens this released object as transaction `txn_id`: its scalars back
  /// to their initial values, every list empty but keeping its storage.
  void reuse(std::uint64_t txn_id);

  bool empty() const noexcept {
    return buffers.empty() && journaled_data.empty();
  }
};

class Journal {
 public:
  struct Stats {
    std::uint64_t commits = 0;
    std::uint64_t empty_commits = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t journal_blocks_written = 0;
    std::uint64_t checkpoint_writes = 0;
    /// Pending in-place copies dropped before they were issued, because a
    /// newer transaction retired holding the home (jbd2's cs_dropped).
    std::uint64_t checkpoint_drops = 0;
    std::uint64_t journal_wraps = 0;
    /// reserve_journal_blocks() had to wait for journal space.
    std::uint64_t journal_stalls = 0;
    /// Tail-advance flushes the journal issued itself (space pressure with
    /// no prior flush covering the released checkpoints).
    std::uint64_t checkpoint_flushes = 0;
    /// Journal-space releases (tail advances past a txn).
    std::uint64_t tail_advances = 0;
  };

  enum class WaitMode : std::uint8_t {
    kNone,        // fire-and-forget (epoch delimiting)
    kDispatched,  // return once JD/JC are dispatched (fbarrier)
    kDurable,     // return once the transaction is durable (fsync)
  };

  Journal(sim::Simulator& sim, blk::BlockLayer& blk, const FsConfig& cfg,
          const Layout& layout);
  virtual ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Spawns the journaling thread(s).
  virtual void start() = 0;

  /// Records `block` as dirtied in the running transaction. May block the
  /// caller (EXT4's page-conflict rule). Returns the owning txn id.
  virtual sim::Task dirty_metadata(flash::Lba block,
                                   std::uint64_t& txn_out) = 0;

  /// Requests a commit covering txn `tid` and waits per `mode`.
  virtual sim::Task commit(std::uint64_t tid, WaitMode mode) = 0;

  /// Attaches an in-flight data request to the running transaction
  /// (ordered-mode data writeout dependency).
  void attach_data(blk::RequestPtr r);

  /// jbd2-style transaction-size bound: true while the running
  /// transaction's projected JD record (descriptor + per-buffer/per-page
  /// log blocks) plus `adding` more would outgrow max_txn_payload(). A
  /// caller about to add commits it and waits for the swap
  /// (WaitMode::kDispatched) until this clears. Without that, a group
  /// commit over many concurrent writers can build a descriptor too large
  /// to ever fit next to its own commit record in a small journal. False
  /// while the running txn is empty (an atomically-oversized batch is a
  /// config error the reserve path still asserts on) and once the journal
  /// aborted.
  bool running_txn_full(std::size_t adding) const noexcept {
    return !aborted_ && !running_->empty() &&
           running_payload() + adding > max_txn_payload();
  }

  /// Log blocks one transaction may carry (jbd2's j_max_transaction_buffers
  /// analogue): half the journal area, so a JD and its JC always fit in one
  /// lap even with wrap waste. Batch producers (OptFS selective data
  /// journaling) must split larger payloads across transactions.
  std::size_t max_txn_payload() const noexcept {
    return std::max<std::size_t>(4, (cfg_.journal_blocks - 2) / 2);
  }

  /// The running transaction's current JD footprint (descriptor + buffers
  /// + journaled pages) — what a batch producer reads, in the same
  /// synchronous stretch as its add, to cap the batch at
  /// max_txn_payload() without racing concurrent dirtiers.
  std::size_t running_payload() const noexcept {
    return 1 + running_->buffers.size() + running_->journaled_data.size();
  }

  /// Adds selectively-journaled data blocks (with payload identity) to the
  /// running txn.
  void add_journaled_data(std::span<const blk::Block> pages);

  bool running_has_updates() const noexcept { return !running_->empty(); }
  std::uint64_t running_txn_id() const noexcept { return running_->id; }

  /// True for an id behind sb_tail_txn(): the tail released it, so it
  /// retired and is durable, and its Txn is gone. Transactions retire and
  /// are released in id order.
  bool is_released(std::uint64_t tid) const noexcept {
    return tid != 0 && tid < sb_tail_txn_;
  }

  bool is_retired(std::uint64_t tid) const {
    if (is_released(tid)) return true;
    const Txn* t = find_txn(tid);
    return t != nullptr && t->state == Txn::State::kRetired;
  }

  const Stats& stats() const noexcept { return stats_; }

  /// A live transaction by id (running, committing, or retired but not yet
  /// released); nullptr for a released id or one never opened.
  const Txn* find_txn(std::uint64_t tid) const noexcept {
    return tid >= sb_tail_txn_ && tid - sb_tail_txn_ < live_txns_.size()
               ? live_txns_[tid - sb_tail_txn_]
               : nullptr;
  }

  // ---- recovery surface ----------------------------------------------------

  /// Content record of journal block `block` while it holds `version`, or
  /// nullptr (fs::Recovery's "read one journal block" primitive).
  const JournalRecord* find_record(flash::Lba block,
                                   flash::Version version) const;

  /// Resolves an in-place metadata write version to (home lba, txn id) —
  /// the identity of a checkpoint copy found in the durable image.
  struct CheckpointId {
    flash::Lba home_lba = 0;
    std::uint64_t txn_id = 0;
    /// Set when the tail releases the transaction: `content` then holds
    /// the copy's MetaSnapshot (the transaction's own copy is freed).
    bool released = false;
    MetaSnapshot content;
  };
  const CheckpointId* find_checkpoint(flash::Version version) const;

  /// Resolves an in-place *data* checkpoint write version to the page-cache
  /// version whose content it carries (OptFS journaled-data checkpoints).
  struct DataCheckpointId {
    flash::Lba home_lba = 0;
    flash::Version content = 0;
  };
  const DataCheckpointId* find_data_checkpoint(flash::Version version) const;

  /// The on-disk superblock's log-tail pointer: recovery scans from this
  /// transaction id. Updated (with a durability flush) when the journal
  /// releases space, like jbd2_update_log_tail.
  std::uint64_t sb_tail_txn() const noexcept { return sb_tail_txn_; }

  /// Hook the filesystem installs to freeze metadata-buffer content
  /// (MetaSnapshots) when a transaction closes.
  using CloseHook = std::function<void(Txn&)>;
  void set_close_hook(CloseHook hook) { close_hook_ = std::move(hook); }

  /// Entry storage of a dropped directory snapshot, names included, for the
  /// close hook to assign over (empty when none is left).
  MetaSnapshot::Entries take_dir_entries();

  // ---- abort (errors=remount-ro, journal half) ----------------------------

  /// True once a JD/JC write failed for good: the journal is dead, no
  /// transaction commits after this point, and commit waiters have been
  /// woken (they observe aborted() instead of durability).
  bool aborted() const noexcept { return aborted_; }

  /// Hook the filesystem installs to degrade the volume read-only when the
  /// journal aborts. Runs synchronously inside abort_journal().
  using AbortHook = std::function<void()>;
  void set_abort_hook(AbortHook hook) { abort_hook_ = std::move(hook); }

 protected:
  /// Closes the running transaction (empty or not) and opens a new one.
  Txn* close_running();

  /// Reserves the JD blocks (descriptor + per-buffer and per-data-page log
  /// blocks) for `txn` into txn.jd_blocks and registers their content
  /// records. May stall on journal-space pressure (tail advance).
  sim::Task reserve_jd(Txn& txn);

  /// Reserves the JC block for `txn` into txn.jc_block and registers the
  /// commit record. May stall like reserve_jd.
  sim::Task reserve_jc(Txn& txn);

  /// Slot of a metadata block (an inode-table LBA) in the per-home tables.
  std::size_t home_index(flash::Lba block) const {
    BIO_CHECK(block >= layout_.inode_base() &&
              block < layout_.inode_base() + layout_.max_inodes);
    return static_cast<std::size_t>(block - layout_.inode_base());
  }

  /// Marks the txn retired and fires its events. Its homes become pending
  /// copies, dropping older pending copies of them.
  void retire(Txn& txn);

  /// Declares the journal dead after `txn`'s JD or JC write failed: wakes
  /// every commit waiter (the failed txn's, every committing txn's and the
  /// running txn's events fire, so syncs sleeping on them observe the abort
  /// and fail with EIO instead of hanging), then notifies the filesystem.
  /// The failed transaction never retires — its commit record never counts,
  /// which is exactly what recovery relies on ("a torn or failed journal
  /// write never replays as committed").
  void abort_journal(Txn& txn);

  /// A live transaction by id (find_txn, which must not be null).
  Txn& get_txn(std::uint64_t tid);

  sim::Simulator& sim_;
  blk::BlockLayer& blk_;
  FsConfig cfg_;
  Layout layout_;

  /// Every Txn object; released ones wait in free_txns_ for reuse
  /// (open_txn).
  std::deque<Txn> txn_store_;
  std::vector<Txn*> free_txns_;
  /// The live transactions, ids sb_tail_txn_ to running_->id (ids are
  /// dense from 1).
  sim::FlatQueue<Txn*> live_txns_;
  Txn* running_ = nullptr;  // live_txns_.back()
  flash::Lba journal_head_ = 0;
  Stats stats_;
  bool started_ = false;
  bool aborted_ = false;
  AbortHook abort_hook_;

 private:
  /// One reserved stretch of the journal area (offsets, not LBAs). A txn
  /// owns up to two: JD and JC (a wrap may separate them). A span is
  /// dropped before its transaction is released.
  struct JournalSpan {
    Txn* txn = nullptr;
    std::uint32_t start = 0;
    std::uint32_t len = 0;
  };

  /// Content record of one journal block, valid while the block holds
  /// `version` (0: none). A block is rewritten only after its transaction
  /// was released, which clears the slot.
  struct RecordSlot {
    flash::Version version = 0;
    JournalRecord record;
  };

  /// The live transaction `id`, from a released object or a new one.
  Txn& open_txn(std::uint64_t id);

  /// Registers the record `block` carries.
  void put_record(const blk::Block& block, JournalRecord::Type type,
                  std::uint64_t txn_id);
  void erase_record(const blk::Block& block);

  /// Reserves `n` contiguous journal blocks for `txn` (wrapping like JBD2:
  /// records never straddle the end). Suspends while the space is still
  /// owned by committed-but-not-durably-checkpointed transactions.
  sim::Task reserve_journal_blocks(Txn& txn, std::size_t n,
                                   std::vector<blk::Block>& out);

  /// True once `txn` retired with no copy pending, its journaled data (if
  /// any) was copied in place, and any flush it owes has completed (or the
  /// device has PLP). A transaction that copied nothing in place but had
  /// copies dropped owes one: recovery reads sb_tail_txn() the instant it
  /// moves, and only the dropper's journal copies hold those homes.
  bool checkpoint_durable(const Txn& txn) const;

  /// Holds `txn`'s span until a flush that enters from now on completes.
  void owe_flush(Txn& txn) const {
    txn.flush_owed = true;
    txn.flush_stamp = blk_.device().flush_sequence();  // never decreases
  }

  /// Issues every pending copy of `txn` from its snapshots (jbd2's
  /// log_do_checkpoint) and queues them for checkpoint_tracker(), which
  /// sets checkpoint_done once they landed. A copy whose home has an older
  /// copy in flight or queued is deferred to the tracker (buffer-lock
  /// rule).
  void issue_checkpoint(Txn& txn);

  /// Issues the pending copies of every retired transaction whose JC is at
  /// least max_txn_payload() blocks behind the head: half a lap is left
  /// for the copies and a flush before the head needs the span.
  void issue_due_checkpoints();

  /// Returns a dropped snapshot's directory entries to the spare list.
  void keep_dir_entries(MetaSnapshot& snap);

  /// Releases every leading span whose txn is retired with a durable
  /// checkpoint; advances tail and the superblock pointer, then releases
  /// the payload of every transaction the pointer moved past.
  void advance_tail();

  /// Releases a transaction behind the superblock tail: erases its journal
  /// records, moves each checkpoint copy's MetaSnapshot into the copy's
  /// record (superseding the home block's previously released copy), frees
  /// its journaled and covered data lists and puts its object on
  /// free_txns_ (under ASan a free object is poisoned: a late access
  /// through a stale pointer is reported as a use after free).
  void release(Txn& txn);

  /// Tail-advance slow path: copy journaled data in place (lazy OptFS
  /// checkpoint), then flush so the front transactions' checkpoints become
  /// durable, then release.
  sim::Task force_tail_advance();

  /// One persistent tracker instead of a waiter per transaction: drains
  /// the transactions whose copies were issued, in issue order, and marks
  /// checkpoint_done. Completed events resolve without suspension, so the
  /// loop adds no simulated latency in the common case.
  sim::Task checkpoint_tracker();

  CloseHook close_hook_;
  sim::FlatQueue<Txn*> ckpt_queue_;
  // Per-home tables, indexed by home_index(): one slot per inode-table
  // block.
  /// Latest in-place copy request per home block (conflict detection);
  /// null once it completed and the tracker dropped it.
  std::vector<blk::RequestPtr> inflight_ckpt_;
  /// Id of the retired transaction whose copy of the home is pending (0 =
  /// none): the newest retired holder, as a buffer sits on one checkpoint
  /// list only.
  std::vector<std::uint64_t> pending_ckpt_;
  /// Retired transactions with pending copies, in retire order, which is
  /// the order their JCs fall behind the head.
  sim::FlatQueue<Txn*> due_queue_;
  /// Queued-but-unsubmitted deferred copies per home block: later
  /// checkpoints of the same block must queue behind them, not jump ahead.
  std::vector<std::uint32_t> deferred_ckpt_count_;
  sim::Notify ckpt_wake_;
  bool ckpt_tracker_started_ = false;
  /// Capacity-retaining scratch for the 1-block JC reservation.
  std::vector<blk::Block> scratch_jc_;
  /// Entry storage of dropped directory snapshots, for take_dir_entries().
  std::vector<MetaSnapshot::Entries> spare_dir_entries_;

  // Content model of the journal area + in-place checkpoint copies. The
  // records sit in a table indexed by journal block; the version-keyed
  // checkpoint map churns (an entry per copy), so it refills its erased
  // nodes.
  std::vector<RecordSlot> records_;
  using CheckpointMap = std::unordered_map<flash::Version, CheckpointId>;
  CheckpointMap checkpoint_versions_;
  sim::SpareNodes<CheckpointMap> spare_ckpt_nodes_;
  /// Version of each home block's newest released checkpoint copy (0 =
  /// none yet), by home_index(): the only released record of that home
  /// recovery can still find.
  std::vector<flash::Version> released_ckpt_;
  std::unordered_map<flash::Version, DataCheckpointId> data_checkpoint_versions_;

  // Circular space accounting.
  sim::FlatQueue<JournalSpan> live_spans_;
  std::uint32_t journal_tail_ = 0;  // offset of the oldest live block
  std::uint32_t journal_used_ = 0;  // blocks between tail and head (+ waste)
  std::uint64_t sb_tail_txn_ = 1;
  sim::Notify journal_space_;
};

}  // namespace bio::fs
