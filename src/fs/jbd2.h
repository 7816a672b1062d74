// The single-committer journal: EXT4 / JBD2 Ordered mode (the paper's
// baseline, §2.3, Fig 3) and OptFS, which was built as a modified JBD2
// (Chidambaram et al., SOSP 2013; the paper's closest related work,
// evaluated in §6.4/§6.5).
//
// One commit thread commits one transaction at a time and keeps
// Wait-on-Transfer. The four protocols differ only in how the commit
// record is made safe:
//   * default          — D (data, waited by the fsync caller) -> JD (wait
//     transfer) -> JC with FLUSH|FUA (wait completion),
//   * nobarrier        — JC is a plain write; nothing is flushed (EXT4-OD),
//   * journal_checksum — JC is FUA-only (no pre-flush; the checksum guards
//     atomicity) followed by one flush for data durability (the mobile
//     EXT4 configuration the paper describes in §6.3),
//   * OptFS            — checksummed JD and JC are dispatched back-to-back
//     and waited together: the checksum removes the flush between them,
//     the transfer wait stays (that is the paper's point). No flush is
//     ever issued: durability is deferred (the real system's asynchronous
//     durability notifications are modelled by retiring the transaction
//     at JC transfer and checkpointing lazily), so both wait modes return
//     at that retire. The commit checksum also covers the ordered data
//     blocks (Txn::covered_data), and overwritten data pages travel inside
//     JD instead of in place (selective data journaling, added by the
//     filesystem), which is why OptFS struggles on overwrite-heavy
//     workloads (MySQL, §6.5).
//
// An application dirtying a metadata buffer held by *the* committing
// transaction blocks until that transaction retires (§4.3's page conflict,
// EXT4 flavour; OptFS keeps it).
#pragma once

#include "fs/journal.h"

namespace bio::fs {

class Jbd2Journal : public Journal {
 public:
  Jbd2Journal(sim::Simulator& sim, blk::BlockLayer& blk, const FsConfig& cfg,
              const Layout& layout)
      : Journal(sim, blk, cfg, layout),
        optfs_(cfg.journal == JournalKind::kOptFs),
        commit_wake_(sim) {}

  void start() override;
  sim::Task dirty_metadata(flash::Lba block, std::uint64_t& txn_out) override;
  sim::Task commit(std::uint64_t tid, WaitMode mode) override;

 private:
  sim::Task jbd_loop();

  /// OptFS's protocol; otherwise EXT4's, per cfg_.nobarrier and
  /// cfg_.journal_checksum.
  const bool optfs_;
  Txn* committing_ = nullptr;  // at most one committing txn
  bool commit_pending_ = false;
  sim::Notify commit_wake_;
};

}  // namespace bio::fs
