#include "fs/optfs.h"

namespace bio::fs {

void OptFsJournal::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("optfs", commit_loop());
}

sim::Task OptFsJournal::dirty_metadata(flash::Lba block,
                                       std::uint64_t& txn_out) {
  while (running_txn_full(1))
    co_await commit(running_->id, WaitMode::kDispatched);
  // OptFS keeps JBD's single committing transaction and its blocking
  // conflict rule — and, like it, stops waiting once an abort has
  // triggered the committing transaction's event without retiring it.
  while (!aborted_ && committing_ != nullptr &&
         committing_->buffers.contains(block)) {
    ++stats_.conflicts;
    co_await committing_->durable.wait();
  }
  running_->buffers.insert(block);
  txn_out = running_->id;
}

sim::Task OptFsJournal::commit(std::uint64_t tid, WaitMode mode) {
  Txn& txn = get_txn(tid);
  if (txn.state == Txn::State::kRunning) {
    commit_pending_ = true;
    commit_wake_.notify_all();
  }
  // osync() semantics: both wait modes return at transaction *transfer*
  // (durability is always deferred in OptFS).
  if (mode != WaitMode::kNone) co_await txn.durable.wait();
}

sim::Task OptFsJournal::commit_loop() {
  for (;;) {
    while (!commit_pending_) co_await commit_wake_.wait();
    commit_pending_ = false;
    Txn* txn = close_running();
    committing_ = txn;

    for (const blk::RequestPtr& r : txn->data_reqs)
      co_await r->completion.wait();
    // Freeze the transferred data payload into the commit checksum's
    // coverage, then drop the requests (they are pooled and must recycle).
    // A write that failed for good is left out: its caller gets EIO, and a
    // checksum over a block that never landed would discard this
    // transaction and every later one at recovery, acked dsyncs included.
    for (const blk::RequestPtr& r : txn->data_reqs)
      if (!r->failed())
        txn->covered_data.insert(txn->covered_data.end(), r->blocks.begin(),
                                 r->blocks.end());
    txn->data_reqs.clear();

    // Checksummed JD + JC dispatched together, one combined wait: the
    // flush between them is gone, the transfer wait is not.
    co_await reserve_jd(*txn);
    co_await sim_.delay(kChecksumCpuPerBlock *
                        static_cast<sim::SimTime>(txn->jd_blocks.size() + 1));
    blk::RequestPtr jd_req =
        blk_.pool().make_write(std::span<const blk::Block>(txn->jd_blocks));
    blk_.submit(jd_req);
    co_await reserve_jc(*txn);
    const blk::Block jc[1] = {txn->jc_block};
    txn->jc_req = blk_.pool().make_write(std::span<const blk::Block>(jc));
    blk_.submit(txn->jc_req);
    co_await jd_req->completion.wait();
    co_await txn->jc_req->completion.wait();
    if (jd_req->failed() || txn->jc_req->failed()) {
      // A journal write failed for good. The checksum would catch a torn
      // descriptor at recovery anyway, but a dead journal cannot accept
      // further osyncs: degrade (errors=remount-ro) like the others.
      committing_ = nullptr;
      abort_journal(*txn);
      co_return;
    }

    txn->dispatched.trigger();
    txn->flushed = false;  // never durable at osync return
    committing_ = nullptr;
    retire(*txn);
  }
}

}  // namespace bio::fs
