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
  Txn& txn = get_txn(tid);
  if (txn.state == Txn::State::kRunning) {
    commit_pending_ = true;
    commit_wake_.notify_all();
  }
  if (mode == WaitMode::kDurable)
    co_await txn.durable.wait();
  else if (mode == WaitMode::kDispatched)
    co_await txn.dispatched.wait();
}

sim::Task Jbd2Journal::jbd_loop() {
  for (;;) {
    while (!commit_pending_) co_await commit_wake_.wait();
    commit_pending_ = false;
    Txn* txn = close_running();
    committing_ = txn;

    // Ordered mode: every data block attached to this transaction must be
    // transferred before the journal describes it.
    for (const blk::RequestPtr& r : txn->data_reqs)
      co_await r->completion.wait();
    txn->data_reqs.clear();  // pooled requests must recycle

    // JD: descriptor + one log block per buffer (+ journaled data).
    co_await reserve_jd(*txn);
    if (cfg_.journal_checksum)
      co_await sim_.delay(kChecksumCpuPerBlock *
                          static_cast<sim::SimTime>(txn->jd_blocks.size()));
    {  // Wait-on-Transfer (pooled request; no payload copy)
      blk::RequestPtr jd_req = blk_.pool().make_write(
          std::span<const blk::Block>(txn->jd_blocks));
      blk_.submit(jd_req);
      co_await jd_req->completion.wait();
      if (jd_req->failed()) {
        // A failed journal write is fatal (errors=remount-ro): the txn
        // never retires, the volume degrades, this thread exits.
        committing_ = nullptr;
        abort_journal(*txn);
        co_return;
      }
    }

    // JC. Default: FLUSH|FUA. Checksum: FUA then one flush. nobarrier:
    // plain write, nothing durable.
    co_await reserve_jc(*txn);
    const blk::Block jc[1] = {txn->jc_block};
    blk::RequestPtr jc_req;
    if (cfg_.nobarrier) {
      jc_req = blk_.pool().make_write(std::span<const blk::Block>(jc));
      blk_.submit(jc_req);
      co_await jc_req->completion.wait();
      txn->flushed = false;
    } else if (cfg_.journal_checksum) {
      jc_req = blk_.pool().make_write(std::span<const blk::Block>(jc), false,
                                      false, /*flush=*/false, /*fua=*/true);
      blk_.submit(jc_req);
      co_await jc_req->completion.wait();
      if (!jc_req->failed()) co_await blk_.flush_and_wait();
      txn->flushed = true;
    } else {
      jc_req = blk_.pool().make_write(std::span<const blk::Block>(jc), false,
                                      false, /*flush=*/true, /*fua=*/true);
      blk_.submit(jc_req);
      co_await jc_req->completion.wait();
      txn->flushed = true;
    }
    if (jc_req->failed()) {
      // The commit record never landed: the transaction is not committed.
      committing_ = nullptr;
      abort_journal(*txn);
      co_return;
    }
    txn->dispatched.trigger();
    committing_ = nullptr;
    retire(*txn);
  }
}

}  // namespace bio::fs
