#include "fs/journal.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <map>
#include <type_traits>
#include <utility>

namespace bio::fs {

void Txn::reuse(std::uint64_t txn_id) {
  static_cast<TxnScalars&>(*this) = TxnScalars{.id = txn_id};
  buffers.clear();
  journaled_data.clear();
  data_reqs.clear();
  covered_data.clear();
  meta_snapshots.clear();
  jd_blocks.clear();
  checkpoint_blocks.clear();
  checkpoint_reqs.clear();
  deferred_copies.clear();
  // Both fired at retire, which woke every waiter.
  dispatched.reset();
  durable.reset();
}

Journal::Journal(sim::Simulator& sim, blk::BlockLayer& blk,
                 const FsConfig& cfg, const Layout& layout)
    : sim_(sim),
      blk_(blk),
      cfg_(cfg),
      layout_(layout),
      inflight_ckpt_(layout.max_inodes),
      pending_ckpt_(layout.max_inodes),
      deferred_ckpt_count_(layout.max_inodes),
      ckpt_wake_(sim),
      records_(cfg.journal_blocks),
      released_ckpt_(layout.max_inodes),
      journal_space_(sim) {
  running_ = &open_txn(1);
}

Journal::~Journal() {
  for (Txn* t : free_txns_) ASAN_UNPOISON_MEMORY_REGION(t, sizeof *t);
}

void Journal::attach_data(blk::RequestPtr r) {
  running_->data_reqs.push_back(std::move(r));
}

void Journal::add_journaled_data(std::span<const blk::Block> pages) {
  running_->journaled_data.insert(running_->journaled_data.end(),
                                  pages.begin(), pages.end());
}

const JournalRecord* Journal::find_record(flash::Lba block,
                                          flash::Version version) const {
  const flash::Lba base = layout_.journal_base();
  if (block < base || block - base >= records_.size()) return nullptr;
  const RecordSlot& slot = records_[block - base];
  return slot.version != 0 && slot.version == version ? &slot.record
                                                      : nullptr;
}

void Journal::put_record(const blk::Block& block, JournalRecord::Type type,
                         std::uint64_t txn_id) {
  records_[block.first - layout_.journal_base()] =
      RecordSlot{block.second, JournalRecord{type, txn_id}};
}

void Journal::erase_record(const blk::Block& block) {
  RecordSlot& slot = records_[block.first - layout_.journal_base()];
  BIO_CHECK_MSG(slot.version == block.second,
                "journal block rewritten before its transaction's release");
  slot.version = 0;
}

const Journal::CheckpointId* Journal::find_checkpoint(
    flash::Version version) const {
  auto it = checkpoint_versions_.find(version);
  return it == checkpoint_versions_.end() ? nullptr : &it->second;
}

const Journal::DataCheckpointId* Journal::find_data_checkpoint(
    flash::Version version) const {
  auto it = data_checkpoint_versions_.find(version);
  return it == data_checkpoint_versions_.end() ? nullptr : &it->second;
}

Txn& Journal::get_txn(std::uint64_t tid) {
  BIO_CHECK_MSG(find_txn(tid) != nullptr,
                "no live transaction " + std::to_string(tid) + " (tail=" +
                    std::to_string(sb_tail_txn_) +
                    ", running=" + std::to_string(running_->id) + ")");
  return *live_txns_[tid - sb_tail_txn_];
}

Txn& Journal::open_txn(std::uint64_t id) {
  Txn* txn = nullptr;
  if (free_txns_.empty()) {
    txn = &txn_store_.emplace_back(sim_, id);
  } else {
    txn = free_txns_.back();
    free_txns_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(txn, sizeof *txn);
    txn->reuse(id);
  }
  live_txns_.push_back(txn);
  return *txn;
}

MetaSnapshot::Entries Journal::take_dir_entries() {
  if (spare_dir_entries_.empty()) return {};
  MetaSnapshot::Entries entries = std::move(spare_dir_entries_.back());
  spare_dir_entries_.pop_back();
  return entries;
}

void Journal::keep_dir_entries(MetaSnapshot& snap) {
  if (snap.entries.capacity() > 0)
    spare_dir_entries_.push_back(std::move(snap.entries));
}

Txn* Journal::close_running() {
  if (running_->empty()) ++stats_.empty_commits;
  Txn* txn = running_;
  txn->state = Txn::State::kCommitting;
  if (close_hook_) close_hook_(*txn);  // freeze metadata-buffer content
  running_ = &open_txn(txn->id + 1);
  ++stats_.commits;
  return txn;
}

// ---- journal space ---------------------------------------------------------

bool Journal::checkpoint_durable(const Txn& txn) const {
  if (!txn.checkpoint_done) return false;
  if (!txn.journaled_data.empty() && !txn.data_checkpointed) return false;
  // A full flush whose entry sequence postdates the stamp snapshotted the
  // cache after the copies, or the dropper's journal records, transferred.
  return !txn.flush_owed || blk_.device().profile().plp ||
         blk_.device().flush_horizon() > txn.flush_stamp;
}

void Journal::advance_tail() {
  bool advanced = false;
  while (!live_spans_.empty()) {
    const JournalSpan& front = live_spans_.front();
    Txn& txn = *front.txn;
    if (txn.state != Txn::State::kRetired || !checkpoint_durable(txn)) break;
    // Freed: the span itself plus any wrap waste between tail and its start.
    const std::uint32_t cap = cfg_.journal_blocks;
    const std::uint32_t waste =
        (front.start + cap - journal_tail_) % cap;
    BIO_CHECK(journal_used_ >= waste + front.len);
    journal_used_ -= waste + front.len;
    journal_tail_ = (front.start + front.len) % cap;
    // The tail pointer moves past `front`'s txn only when no earlier span
    // remains; track the oldest still-live txn as the scan start.
    const std::uint64_t released_txn = txn.id;
    live_spans_.pop_front();
    sb_tail_txn_ = live_spans_.empty()
                       ? std::max(sb_tail_txn_, released_txn + 1)
                       : std::max(sb_tail_txn_, live_spans_.front().txn->id);
    ++stats_.tail_advances;
    advanced = true;
  }
  // The running transaction is never behind the tail.
  while (live_txns_.front()->id < sb_tail_txn_)
    release(*live_txns_.pop_front());
  if (advanced) journal_space_.notify_all();
}

void Journal::release(Txn& txn) {
  // Recovery scans from sb_tail_txn_, so these records never replay again.
  erase_record(txn.jd_blocks[0]);
  erase_record(txn.jc_block);
  // Both lists are in home-block order (the buffer set's).
  auto snap = txn.meta_snapshots.begin();
  for (const auto& [home, v] : txn.checkpoint_blocks) {
    while (snap != txn.meta_snapshots.end() && snap->first < home) ++snap;
    CheckpointId& ck = checkpoint_versions_.at(v);
    if (snap != txn.meta_snapshots.end() && snap->first == home) {
      ck.content = std::move(snap->second);
      ck.released = true;
    }
    // This copy is durable, and the buffer-lock rule transfers copies of
    // one home in issue order, so the previously released copy can never
    // again be the home's durable content.
    flash::Version& prev = released_ckpt_[home_index(home)];
    if (prev != 0) {
      if (auto it = checkpoint_versions_.find(prev);
          it != checkpoint_versions_.end()) {
        keep_dir_entries(it->second.content);
        sim::erase_keeping(checkpoint_versions_, spare_ckpt_nodes_, it);
      }
    }
    prev = v;
  }
  // The snapshots not moved into records are the dropped homes' (their
  // droppers' journal copies supersede them) and already moved-from ones.
  for (auto& entry : txn.meta_snapshots) keep_dir_entries(entry.second);
  auto drop = [](auto& c) { std::decay_t<decltype(c)>().swap(c); };
  drop(txn.journaled_data);
  drop(txn.covered_data);
  // Only a transaction whose copies were all issued or dropped is
  // released, and older ones left the due queue at their own release, so
  // a queued one sits at the front.
  if (!due_queue_.empty() && due_queue_.front() == &txn)
    due_queue_.pop_front();
  free_txns_.push_back(&txn);
  ASAN_POISON_MEMORY_REGION(&txn, sizeof txn);
}

sim::Task Journal::force_tail_advance() {
  // The front transactions' checkpoints have transferred but are not yet
  // provably durable. Copy any journaled data in place (lazy OptFS
  // checkpoint), then issue the jbd2-style update-log-tail flush; both are
  // off every syscall's critical path except this stalled reserve.
  // Collect the newest journaled content per home lba across the batch: a
  // page journaled by several of these transactions gets ONE in-place copy
  // (two concurrent same-lba writes could land inverted and resurrect the
  // older content — the buffer-lock rule applies to checkpoints too).
  std::map<flash::Lba, flash::Version> to_copy;
  std::vector<Txn*> copied;
  for (const JournalSpan& span : live_spans_) {
    Txn& txn = *span.txn;
    if (txn.state != Txn::State::kRetired) break;
    if (!txn.checkpoint_done) break;
    if (!txn.journaled_data.empty() && !txn.data_checkpointed) {
      for (const blk::Block& page : txn.journaled_data) {
        flash::Version& v = to_copy[page.first];
        v = std::max(v, page.second);
      }
      txn.data_checkpointed = true;
      copied.push_back(&txn);
    }
  }
  std::vector<blk::RequestPtr> data_copies;
  data_copies.reserve(to_copy.size());
  for (const auto& [lba, content] : to_copy) {
    const flash::Version v = blk_.next_version();
    data_checkpoint_versions_.emplace(v, DataCheckpointId{lba, content});
    const blk::Block payload[1] = {{lba, v}};
    blk::RequestPtr r = blk_.pool().make_write(payload);
    blk_.submit(r);
    data_copies.push_back(std::move(r));
    ++stats_.checkpoint_writes;
  }
  bool copy_failed = false;
  for (const blk::RequestPtr& r : data_copies) {
    co_await r->completion.wait();
    if (r->failed()) copy_failed = true;
  }
  if (copy_failed) {
    // As in checkpoint_tracker: a lost in-place copy means the journal
    // span must never be reused. Abort instead of advancing the tail.
    abort_journal(*live_spans_.front().txn);
    co_return;
  }
  // The data copies postdate the stamp; require a flush entered after
  // *their* completion before the space counts as durable.
  for (Txn* txn : copied) owe_flush(*txn);
  ++stats_.checkpoint_flushes;
  co_await blk_.flush_and_wait();
  advance_tail();
  // Re-check is the caller's loop; wake anyone else stalled too.
  journal_space_.notify_all();
}

sim::Task Journal::reserve_journal_blocks(Txn& txn, std::size_t n,
                                          std::vector<blk::Block>& out) {
  const std::uint32_t cap = cfg_.journal_blocks;
  BIO_CHECK_MSG(n <= cap, "transaction larger than the journal");
  for (;;) {
    // An aborted journal never hands out space: its commit machinery is
    // dead and reusing a live span could clobber descriptor/commit
    // evidence recovery still needs. Park until teardown — the abort
    // already woke every commit waiter with its EIO verdict.
    while (aborted_) co_await journal_space_.wait();
    // Free opportunistic releases first (no flush needed).
    if (!live_spans_.empty()) advance_tail();
    const bool wrap = journal_head_ + n > cap;
    const std::uint32_t waste =
        wrap ? cap - static_cast<std::uint32_t>(journal_head_) : 0;
    if (journal_used_ + waste + n <= cap) {
      const std::uint32_t start =
          wrap ? 0 : static_cast<std::uint32_t>(journal_head_);
      if (wrap) {
        journal_head_ = 0;
        ++stats_.journal_wraps;
      }
      out.clear();
      sim::reserve_reused(out, n);
      for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(layout_.journal_base() + journal_head_ + i,
                         blk_.next_version());
      journal_head_ += n;
      journal_used_ += waste + static_cast<std::uint32_t>(n);
      live_spans_.push_back(
          JournalSpan{&txn, start, static_cast<std::uint32_t>(n)});
      stats_.journal_blocks_written += n;
      co_return;
    }
    // No live spans but still no fit: the whole area is free, yet the head
    // sits so close to the end that the wrap waste plus this record exceed
    // the capacity (a group commit over many concurrent writers can carry
    // dozens of buffers, so a single JD approaches the journal size).
    // Nothing lives anywhere — restart the lap at offset 0, which is what
    // jbd2's separate head/tail free-space arithmetic achieves.
    if (live_spans_.empty()) {
      BIO_CHECK_MSG(journal_used_ == 0, "journal accounting corrupt");
      journal_head_ = 0;
      journal_tail_ = 0;
      ++stats_.journal_wraps;
      continue;
    }
    // Journal full: the head would run into records still owned by an
    // un-checkpointed transaction (pre-fix this silently clobbered them).
    ++stats_.journal_stalls;
    BIO_CHECK_MSG(live_spans_.front().txn != &txn,
                  "transaction larger than the journal");
    Txn& oldest = *live_spans_.front().txn;
    // The head needs this span now, so its pending copies cannot wait to
    // fall due; on BarrierFS the transaction that would drop them may need
    // this very space to commit.
    if (oldest.pending_homes > 0) issue_checkpoint(oldest);
    if (oldest.state != Txn::State::kRetired || !oldest.checkpoint_done) {
      // Wait for the oldest transaction to retire / its checkpoint writes
      // to land; retire() and checkpoint_tracker() notify.
      co_await journal_space_.wait();
    } else {
      co_await force_tail_advance();
    }
  }
}

sim::Task Journal::reserve_jd(Txn& txn) {
  const std::size_t jd_size =
      1 + txn.buffers.size() + txn.journaled_data.size();
  co_await reserve_journal_blocks(txn, jd_size, txn.jd_blocks);

  // Register the descriptor's content record. Its tag table (log block ->
  // home) is implied by the transaction: jd_blocks[1..] pair with the
  // metadata buffers in set order, then the journaled data pages —
  // fs::Recovery re-derives it from there.
  put_record(txn.jd_blocks[0], JournalRecord::Type::kDescriptor, txn.id);
}

sim::Task Journal::reserve_jc(Txn& txn) {
  // scratch_jc_ is only touched on the suspension-free path after the
  // reserve completes (one journal thread reserves at a time per journal).
  std::vector<blk::Block>& jc = scratch_jc_;
  co_await reserve_journal_blocks(txn, 1, jc);
  txn.jc_block = jc[0];
  put_record(txn.jc_block, JournalRecord::Type::kCommit, txn.id);
}

// ---- checkpoint ------------------------------------------------------------

sim::Task Journal::checkpoint_tracker() {
  for (;;) {
    while (ckpt_queue_.empty()) co_await ckpt_wake_.wait();
    // Not released (nor reused) before this loop marks its checkpoint done.
    Txn& txn = *ckpt_queue_.pop_front();
    // Deferred copies: their home block had an older copy in flight at
    // submit time (two concurrent writes to one block can land inverted,
    // resurrecting the older content — jbd2's buffer lock forbids it).
    // Serialize: wait out the conflict, then submit.
    for (const blk::Block& b : txn.deferred_copies) {
      const std::size_t home = home_index(b.first);
      for (;;) {
        const blk::RequestPtr& inflight = inflight_ckpt_[home];
        if (inflight == nullptr || inflight->completion.is_set()) break;
        co_await inflight->completion.wait();
      }
      const blk::Block payload[1] = {b};
      blk::RequestPtr r = blk_.pool().make_write(payload);
      blk_.submit(r);
      inflight_ckpt_[home] = r;
      BIO_CHECK(deferred_ckpt_count_[home] > 0);
      --deferred_ckpt_count_[home];
      txn.checkpoint_reqs.push_back(std::move(r));
      ++stats_.checkpoint_writes;
    }
    bool copy_failed = false;
    for (const blk::RequestPtr& r : txn.checkpoint_reqs) {
      co_await r->completion.wait();
      if (r->failed()) copy_failed = true;
    }
    // Drop completed conflict-detection entries so the pooled requests can
    // recycle (a block checkpointed once and never again would otherwise
    // pin its request for the rest of the run).
    for (const blk::RequestPtr& r : txn.checkpoint_reqs) {
      blk::RequestPtr& slot =
          inflight_ckpt_[home_index(r->blocks.front().first)];
      if (slot == r) slot.reset();
    }
    if (copy_failed) {
      // A home copy never landed. Marking the checkpoint done would let
      // the journal reuse the span recovery still needs to replay this
      // transaction — acked data loss. jbd2's checkpoint-IO-error path:
      // abort, degrade read-only, keep the log intact for recovery.
      abort_journal(txn);
      txn.checkpoint_reqs.clear();
      co_return;
    }
    txn.checkpoint_done = true;
    // The stamp may postdate the actual completion (the tracker drains in
    // retire order) — only ever conservative for the durability proof.
    owe_flush(txn);
    txn.checkpoint_reqs.clear();  // back to the pool
    journal_space_.notify_all();
  }
}

void Journal::issue_checkpoint(Txn& txn) {
  // In-place metadata writes, orderless and asynchronous: checkpointing is
  // not on anyone's critical path once the journal copy is safe. Completion
  // is tracked (checkpoint_tracker) because the journal space the records
  // occupy may only be reused once these copies are durable.
  sim::reserve_reused(txn.checkpoint_reqs, txn.pending_homes);
  sim::reserve_reused(txn.checkpoint_blocks, txn.pending_homes);
  for (flash::Lba block : txn.buffers) {
    const std::size_t home = home_index(block);
    if (pending_ckpt_[home] != txn.id) continue;  // a newer txn dropped it
    pending_ckpt_[home] = 0;
    const flash::Version v = blk_.next_version();
    sim::insert_reusing(checkpoint_versions_, spare_ckpt_nodes_, v,
                        CheckpointId{block, txn.id, false, {}});
    // In buffer (home) order: release() walks it beside meta_snapshots.
    txn.checkpoint_blocks.emplace_back(block, v);
    const blk::RequestPtr& inflight = inflight_ckpt_[home];
    if ((inflight != nullptr && !inflight->completion.is_set()) ||
        deferred_ckpt_count_[home] > 0) {
      // An older copy of this block is still in flight (or queued behind
      // one): defer to the tracker (per-block serialization).
      txn.deferred_copies.emplace_back(block, v);
      ++deferred_ckpt_count_[home];
      continue;
    }
    const blk::Block payload[1] = {{block, v}};
    blk::RequestPtr r = blk_.pool().make_write(payload);
    blk_.submit(r);
    inflight_ckpt_[home] = r;
    txn.checkpoint_reqs.push_back(std::move(r));
    ++stats_.checkpoint_writes;
  }
  txn.pending_homes = 0;
  if (!ckpt_tracker_started_) {
    ckpt_tracker_started_ = true;
    sim_.spawn("jnl:ckpt", checkpoint_tracker());
  }
  ckpt_queue_.push_back(&txn);
  ckpt_wake_.notify_all();
}

void Journal::issue_due_checkpoints() {
  const std::uint32_t cap = cfg_.journal_blocks;
  const auto head = static_cast<std::uint32_t>(journal_head_ % cap);
  while (!due_queue_.empty()) {
    Txn& txn = *due_queue_.front();
    if (txn.pending_homes > 0) {
      // Blocks reserved since this JC: the ring distance from its end to
      // the head, wrap waste included (its span is live, so under a lap).
      const auto jc_end = static_cast<std::uint32_t>(
          (txn.jc_block.first - layout_.journal_base() + 1) % cap);
      if ((head + cap - jc_end) % cap < max_txn_payload()) break;
      issue_checkpoint(txn);
    }
    due_queue_.pop_front();
  }
}

void Journal::retire(Txn& txn) {
  txn.state = Txn::State::kRetired;
  // The commit loops are done with the JD and JC requests: back to the
  // pool, not pinned while the span waits for its copies.
  txn.jd_req.reset();
  txn.jc_req.reset();
  // Every home becomes a pending copy of this transaction, dropping an
  // older transaction's pending copy of it: this commit journaled newer
  // content, which its own copy will carry. Until a flush that enters
  // after this retire completes, this transaction's JD and JC may still
  // sit in the device cache, and the older span must wait for it.
  for (flash::Lba block : txn.buffers) {
    std::uint64_t& owner = pending_ckpt_[home_index(block)];
    if (owner != 0) {
      Txn& older = get_txn(owner);  // pending copies: not released
      owe_flush(older);
      ++stats_.checkpoint_drops;
      // A transaction with pending copies has issued none yet.
      if (--older.pending_homes == 0) older.checkpoint_done = true;
    }
    owner = txn.id;
    ++txn.pending_homes;
  }
  if (txn.journaled_data.empty()) txn.data_checkpointed = true;
  if (txn.pending_homes == 0)
    txn.checkpoint_done = true;
  else
    due_queue_.push_back(&txn);
  issue_due_checkpoints();
  txn.durable.trigger();
  journal_space_.notify_all();
}

void Journal::abort_journal(Txn& txn) {
  if (aborted_) return;
  aborted_ = true;
  // Wake everyone. The failed txn stays kCommitting forever — it never
  // retires, so neither the live checkers nor recovery ever treat it as
  // committed.
  txn.dispatched.trigger();
  txn.durable.trigger();
  for (Txn* t : live_txns_) {
    if (t->state == Txn::State::kCommitting) {
      t->dispatched.trigger();
      t->durable.trigger();
    }
  }
  running_->dispatched.trigger();
  running_->durable.trigger();
  journal_space_.notify_all();
  ckpt_wake_.notify_all();
  if (abort_hook_) abort_hook_();
}

}  // namespace bio::fs
