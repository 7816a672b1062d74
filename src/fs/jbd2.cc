#include "fs/jbd2.h"

namespace bio::fs {

void Jbd2Journal::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("jbd2", jbd_loop());
}

sim::Task Jbd2Journal::dirty_metadata(flash::Lba block,
                                      std::uint64_t& txn_out) {
  while (running_txn_full(1))
    co_await commit(running_->id, WaitMode::kDispatched);
  // EXT4 page-conflict rule: a buffer held by the committing transaction
  // may not join the running one; the application blocks until the commit
  // retires (§4.3). An abort triggers the committing transaction's event
  // without retiring it (a checkpoint failure can abort the journal while
  // the commit thread is parked for space), so the wait no longer
  // suspends: stop waiting once the journal is dead.
  while (!aborted_ && committing_ != nullptr &&
         committing_->buffers.contains(block)) {
    ++stats_.conflicts;
    co_await committing_->durable.wait();
  }
  running_->buffers.insert(block);
  txn_out = running_->id;
}

sim::Task Jbd2Journal::commit(std::uint64_t tid, WaitMode mode) {
  if (is_released(tid)) co_return;  // retired, and durable
  Txn& txn = get_txn(tid);
  if (txn.state == Txn::State::kRunning) {
    commit_pending_ = true;
    commit_wake_.notify_all();
  }
  // OptFS's osync semantics: both wait modes return at the retire, at
  // transaction transfer (durability is always deferred).
  if (mode == WaitMode::kDurable || (optfs_ && mode == WaitMode::kDispatched))
    co_await txn.durable.wait();
  else if (mode == WaitMode::kDispatched)
    co_await txn.dispatched.wait();
}

sim::Task Jbd2Journal::jbd_loop() {
  // nobarrier and OptFS write JC plain: nothing is durable at retire.
  const bool plain_jc = optfs_ || cfg_.nobarrier;
  for (;;) {
    while (!commit_pending_) co_await commit_wake_.wait();
    commit_pending_ = false;
    Txn* txn = close_running();
    committing_ = txn;

    // Ordered mode: every data block attached to this transaction must be
    // transferred before the journal describes it. OptFS freezes the
    // transferred payload into the commit checksum's coverage; a write
    // that failed for good is left out: its caller gets EIO, and a
    // checksum over a block that never landed would discard this
    // transaction and every later one at recovery, acked dsyncs included.
    for (const blk::RequestPtr& r : txn->data_reqs)
      co_await r->completion.wait();
    if (optfs_)
      for (const blk::RequestPtr& r : txn->data_reqs)
        if (!r->failed())
          txn->covered_data.insert(txn->covered_data.end(),
                                   r->blocks.begin(), r->blocks.end());
    txn->data_reqs.clear();  // pooled requests must recycle

    // JD: descriptor + one log block per buffer (+ journaled data), a
    // pooled request with no payload copy. OptFS's checksum covers JC too.
    co_await reserve_jd(*txn);
    if (optfs_ || cfg_.journal_checksum)
      co_await sim_.delay(kChecksumCpuPerBlock *
                          static_cast<sim::SimTime>(txn->jd_blocks.size() +
                                                    (optfs_ ? 1 : 0)));
    blk::RequestPtr jd_req = blk_.pool().make_write(
        std::span<const blk::Block>(txn->jd_blocks));
    blk_.submit(jd_req);
    if (!optfs_) {  // Wait-on-Transfer; OptFS waits for JD and JC together
      co_await jd_req->completion.wait();
      if (jd_req->failed()) {
        // A failed journal write is fatal (errors=remount-ro): the txn
        // never retires, the volume degrades, this thread exits.
        committing_ = nullptr;
        abort_journal(*txn);
        co_return;
      }
      jd_req.reset();
    }

    // JC. Default: FLUSH|FUA. Checksum: FUA then one flush. nobarrier and
    // OptFS: a plain write. OptFS holds it on the transaction until
    // retire, EXT4 to the end of this commit.
    co_await reserve_jc(*txn);
    const blk::Block jc[1] = {txn->jc_block};
    blk::RequestPtr ext4_jc;
    blk::RequestPtr& jc_req = optfs_ ? txn->jc_req : ext4_jc;
    jc_req = blk_.pool().make_write(
        std::span<const blk::Block>(jc), false, false,
        /*flush=*/!plain_jc && !cfg_.journal_checksum, /*fua=*/!plain_jc);
    blk_.submit(jc_req);
    if (optfs_) co_await jd_req->completion.wait();
    co_await jc_req->completion.wait();
    if (!plain_jc && cfg_.journal_checksum && !jc_req->failed())
      co_await blk_.flush_and_wait();
    if (jc_req->failed() || (jd_req != nullptr && jd_req->failed())) {
      // The commit record (or OptFS's JD) never landed: the transaction is
      // not committed, and the dead journal takes no further commits.
      committing_ = nullptr;
      abort_journal(*txn);
      co_return;
    }
    txn->dispatched.trigger();
    txn->flushed = !plain_jc;
    committing_ = nullptr;
    retire(*txn);
  }
}

}  // namespace bio::fs
