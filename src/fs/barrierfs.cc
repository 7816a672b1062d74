#include "fs/barrierfs.h"

#include <algorithm>

namespace bio::fs {

void BarrierFsJournal::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("bfs:commit", commit_loop());
  sim_.spawn("bfs:flush", flush_loop());
}

sim::Task BarrierFsJournal::dirty_metadata(flash::Lba block,
                                           std::uint64_t& txn_out) {
  while (running_txn_full(1))
    co_await commit(running_->id, WaitMode::kDispatched);
  txn_out = running_->id;
  if (running_->buffers.contains(block)) co_return;
  const std::size_t home = home_index(block);
  if (conflict_[home]) co_return;  // already queued
  for (const Txn* t : committing_) {
    if (t->buffers.contains(block)) {
      // §4.3: the application does NOT block. The buffer waits on the
      // conflict-page list; the running transaction cannot commit until
      // the list drains, so the caller's txn id stays valid.
      ++stats_.conflicts;
      conflict_[home] = true;
      ++conflict_count_;
      co_return;
    }
  }
  running_->buffers.insert(block);
}

sim::Task BarrierFsJournal::commit(std::uint64_t tid, WaitMode mode) {
  if (is_released(tid)) co_return;  // retired, and durable
  Txn& txn = get_txn(tid);
  if (txn.state == Txn::State::kRunning) {
    if (std::find(commit_requests_.begin(), commit_requests_.end(), tid) ==
        commit_requests_.end()) {
      commit_requests_.push_back(tid);
      commit_wake_.notify_all();
    }
  }
  switch (mode) {
    case WaitMode::kNone:
      break;
    case WaitMode::kDispatched:
      co_await txn.dispatched.wait();
      break;
    case WaitMode::kDurable:
      txn.needs_flush = true;
      co_await txn.durable.wait();
      // The tail may have released the transaction while this waiter
      // slept, and the journal reused its object: a released id is
      // durable, and `txn` is only still ours while the id is live.
      if (is_released(tid)) break;
      // A retired txn may still owe the caller its durability flush; one
      // that never retired (journal abort woke us) owes nothing but EIO.
      if (!txn.flushed && txn.state == Txn::State::kRetired) {
        // The flush thread retired this txn for ordering only (we joined
        // after its flush decision); issue the durability flush ourselves.
        co_await blk_.flush_and_wait();
        if (!is_released(tid)) txn.flushed = true;
      }
      break;
  }
}

sim::Task BarrierFsJournal::commit_loop() {
  for (;;) {
    while (commit_requests_.empty() && !aborted_)
      co_await commit_wake_.wait();
    if (aborted_) co_return;
    const std::uint64_t tid = commit_requests_.pop_front();
    const Txn* queued = find_txn(tid);
    if (queued == nullptr || queued->state != Txn::State::kRunning)
      continue;  // already committed
    // §4.3: the running transaction may close only with an empty
    // conflict-page list.
    while (conflict_count_ > 0 && !aborted_)
      co_await conflict_resolved_.wait();
    if (aborted_) co_return;

    Txn* txn = close_running();
    committing_.push_back(txn);

    // Control plane (Eq. 3): dispatch JD and JC back-to-back, both
    // ORDERED|BARRIER. D (dispatched earlier as order-preserving requests)
    // and JD form one epoch; JC forms the next. No waits — the flush
    // thread checks both requests for IO failure before retiring.
    co_await reserve_jd(*txn);
    txn->jd_req =
        blk_.pool().make_write(std::span<const blk::Block>(txn->jd_blocks),
                               /*ordered=*/true, /*barrier=*/true);
    blk_.submit(txn->jd_req);

    co_await reserve_jc(*txn);
    const blk::Block jc[1] = {txn->jc_block};
    txn->jc_req = blk_.pool().make_write(std::span<const blk::Block>(jc),
                                         /*ordered=*/true, /*barrier=*/true);
    blk_.submit(txn->jc_req);

    txn->dispatched.trigger();
    flush_queue_.push_back(txn);
    flush_wake_.notify_all();
  }
}

sim::Task BarrierFsJournal::flush_loop() {
  for (;;) {
    while (flush_queue_.empty()) co_await flush_wake_.wait();
    Txn* txn = flush_queue_.pop_front();

    // Data plane: wait for the JC transfer (not its persistence!). Under
    // fault injection both journal writes carry a completion status; a
    // failed JD or JC kills the commit (the device never admitted a torn
    // barrier write, so the journal tail simply ends before this txn).
    co_await txn->jc_req->completion.wait();
    co_await txn->jd_req->completion.wait();
    if (txn->jd_req->failed() || txn->jc_req->failed()) {
      auto it = std::find(committing_.begin(), committing_.end(), txn);
      BIO_CHECK(it != committing_.end());
      committing_.erase(it);
      abort_journal(*txn);
      conflict_resolved_.notify_all();  // unstick commit_loop's drain wait
      co_return;
    }
    if (txn->needs_flush) {
      // One flush makes durable every commit whose JD and JC it found in
      // the cache: a transaction that transferred before the snapshot of
      // a flush that has since completed (one issued for an earlier
      // transaction in the committing list, say) needs none of its own.
      if (!flush_covered(*txn)) co_await blk_.flush_and_wait();
      txn->flushed = true;
    }
    resolve_conflicts(*txn);
    auto it = std::find(committing_.begin(), committing_.end(), txn);
    BIO_CHECK(it != committing_.end());
    committing_.erase(it);
    retire(*txn);
  }
}

bool BarrierFsJournal::flush_covered(const Txn& txn) const {
  // persist_through == 0: never stamped (absorbed into another carrier).
  const std::uint64_t covered = blk_.device().flushed_through();
  const std::uint64_t jd = txn.jd_req->cmd.persist_through;
  const std::uint64_t jc = txn.jc_req->cmd.persist_through;
  return jd != 0 && jc != 0 && jd <= covered && jc <= covered;
}

void BarrierFsJournal::resolve_conflicts(Txn& txn) {
  bool resolved_any = false;
  for (flash::Lba block : txn.buffers) {
    const std::size_t home = home_index(block);
    if (conflict_[home]) {
      conflict_[home] = false;
      --conflict_count_;
      running_->buffers.insert(block);
      resolved_any = true;
    }
  }
  if (resolved_any) conflict_resolved_.notify_all();
}

}  // namespace bio::fs
