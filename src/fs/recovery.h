// Crash recovery: rebuilding filesystem state from a durable device image.
//
// The simulator's device answers "what survives a power cut right now" as a
// block-level image (lba -> version, the payload identity). This module is
// the *mount-time* half of crash consistency: it scans the journal area of
// that image, validates transactions according to the journal flavour's
// commit protocol, truncates the incomplete tail, replays the surviving
// log copies over the in-place state, and reconstructs the filesystem
// namespace from the recovered metadata blocks (DESIGN.md §6.6).
//
// Validation per journal kind:
//   * JBD2 (flush/FUA commits): a commit record found without its complete
//     descriptor chain is the end of the log. A *log* block that did not
//     survive under a surviving commit record is undetectable without
//     checksums — recovery replays the stale block and the home block is
//     silently corrupted (exactly the nobarrier failure mode the paper
//     opens with).
//   * JBD2 journal_checksum / OptFS (checksummed JD+JC): any missing piece
//     fails the checksum; the transaction and everything after it is
//     discarded (tail truncation), never replayed corruptly.
//   * BarrierFS: JBD2 record format; the epoch-ordered device makes "JC
//     durable but JD torn" impossible, which recovery double-checks.
//
// The scan starts at the journal superblock's tail pointer
// (Journal::sb_tail_txn) — transactions before it were released only after
// their in-place checkpoint copies were durable, so they need no replay.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/journal.h"
#include "fs/types.h"

namespace bio::fs {

/// What recovery reconstructed from a durable image.
struct RecoveryReport {
  struct RecoveredFile {
    std::string name;
    std::uint32_t ino = 0;
    flash::Lba extent_base = 0;
    std::uint32_t extent_blocks = 0;
    std::uint32_t size_blocks = 0;
  };

  /// The recovered namespace: files whose directory entry and inode both
  /// survived (directly or via replay).
  std::vector<RecoveredFile> files;

  /// Recovered data-block content: lba -> content version, combining the
  /// image's in-place state (checkpoint copies resolved to their payload)
  /// with replayed journaled data.
  std::unordered_map<flash::Lba, flash::Version> data;

  std::uint64_t scan_start_txn = 0;
  std::uint64_t last_replayed_txn = 0;
  std::uint32_t txns_replayed = 0;
  /// Transactions with surviving commit evidence that were discarded
  /// because the scan stopped before them (tail truncation).
  std::uint32_t txns_discarded = 0;
  /// The scan stopped at a transaction with partial evidence (torn tail).
  bool tail_truncated = false;
  /// A checksum mismatch halted the scan (checksummed journals only).
  /// This is the mechanism *working* — the torn tail was caught and
  /// discarded, nothing replayed corruptly.
  bool corruption_detected = false;
  /// Home blocks recovery *silently corrupted* by replaying stale log
  /// copies (non-checksummed journal with a surviving commit record over a
  /// torn descriptor chain — undetectable at mount time, fatal in reality).
  std::vector<flash::Lba> corrupted_blocks;

  /// No block was silently destroyed (detected truncation is fine).
  bool clean() const noexcept { return corrupted_blocks.empty(); }
};

class Recovery {
 public:
  /// Binds to the crashed stack's journal (for the journal-area content
  /// records — the simulation's stand-in for reading the disk), its layout
  /// and its configuration.
  Recovery(const Journal& journal, const Layout& layout, const FsConfig& cfg)
      : journal_(journal), layout_(layout), cfg_(cfg) {}

  /// Runs the full scan/validate/truncate/replay pipeline over `image`
  /// (a StorageDevice::durable_state() result).
  RecoveryReport recover(
      const std::unordered_map<flash::Lba, flash::Version>& image) const;

 private:
  bool checksummed() const noexcept {
    return cfg_.journal == JournalKind::kOptFs || cfg_.journal_checksum;
  }

  const Journal& journal_;
  Layout layout_;
  FsConfig cfg_;
};

}  // namespace bio::fs
