// BarrierFS Dual-Mode Journaling (§4.2) — the paper's core contribution.
//
// The journal commit is split into a control plane and a data plane:
//   * commit thread — closes the running transaction and *dispatches* the
//     JD and JC writes, both tagged ORDERED|BARRIER, without waiting for
//     transfer or flush. D and JD form one epoch; JC forms the next
//     (Eq. 3: D -> JD^bar -> JC^bar [-> xfer -> flush only for fsync]).
//   * flush thread — per committed transaction, waits for the JC transfer,
//     issues a flush only when a caller demanded durability and no flush
//     that has completed already covered its JD and JC, resolves page
//     conflicts and retires the transaction.
//
// Because the commit thread never waits on the storage, multiple committing
// transactions can be in flight (the committing transaction *list*), which
// is where the journaling-throughput scalability of Fig 13 comes from.
//
// Multi-transaction page conflicts (§4.3): an application dirtying a buffer
// held by *any* committing transaction does not block; the buffer goes to
// the conflict-page list, and the commit thread refuses to close the
// running transaction until the list is empty. The flush thread moves
// resolved conflict pages into the running transaction when their holder
// retires.
#pragma once

#include <vector>

#include "fs/journal.h"

namespace bio::fs {

class BarrierFsJournal : public Journal {
 public:
  BarrierFsJournal(sim::Simulator& sim, blk::BlockLayer& blk,
                   const FsConfig& cfg, const Layout& layout)
      : Journal(sim, blk, cfg, layout),
        commit_wake_(sim),
        flush_wake_(sim),
        conflict_(layout.max_inodes),
        conflict_resolved_(sim) {}

  void start() override;
  sim::Task dirty_metadata(flash::Lba block, std::uint64_t& txn_out) override;
  sim::Task commit(std::uint64_t tid, WaitMode mode) override;

  std::size_t committing_count() const noexcept { return committing_.size(); }
  std::size_t conflict_count() const noexcept { return conflict_count_; }

 private:
  sim::Task commit_loop();
  sim::Task flush_loop();
  /// True when a completed flush's snapshot held `txn`'s transferred JD
  /// and JC (StorageDevice::flushed_through()).
  bool flush_covered(const Txn& txn) const;
  void resolve_conflicts(Txn& txn);

  sim::FlatQueue<std::uint64_t> commit_requests_;
  sim::Notify commit_wake_;
  sim::FlatQueue<Txn*> flush_queue_;
  sim::Notify flush_wake_;
  std::vector<Txn*> committing_;  // the committing transaction *list*
  /// The conflict-page list as a flag per inode-table block (by
  /// home_index()), plus its length.
  std::vector<bool> conflict_;
  std::size_t conflict_count_ = 0;
  sim::Notify conflict_resolved_;
};

}  // namespace bio::fs
