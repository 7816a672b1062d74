// Filesystem configuration and on-"disk" layout.
//
// The simulated filesystem keeps the paper-relevant structure of EXT4 and
// strips the rest: a file is an inode plus one contiguous data extent, an
// inode owns one metadata block, and the journal is a circular LBA region.
// What is modelled faithfully is everything the paper measures: the dirty
// state machine (page cache, metadata buffers), the journal commit
// protocols (Eq. 2 vs Eq. 3), timestamp granularity, and ordered-mode data
// writeout.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "sim/time.h"

namespace bio::fs {

enum class JournalKind : std::uint8_t {
  /// EXT4 / JBD2 Ordered-mode journaling (the paper's baseline).
  kJbd2,
  /// BarrierFS Dual-Mode journaling (the paper's contribution, §4).
  kBarrierFs,
  /// OptFS-style optimistic crash consistency (osync; §7 comparison).
  kOptFs,
};

/// A concrete synchronization syscall of the simulated filesystem. Which
/// journal runs which is fs::supports (fs/filesystem.h).
enum class Syscall : std::uint8_t {
  kNone,          // no sync: the ring's and the trace's sentinel
  kFsync,
  kFdatasync,
  kFbarrier,
  kFdatabarrier,
  kOsync,         // OptFS osync with Wait-on-Transfer
  kDsync,         // OptFS dsync: data durable at return, metadata delayed
};

/// Outcome of a synchronization syscall (the filesystem's half of the
/// errno story; api::Vfs maps these onto Errno::kIo / Errno::kRoFs).
enum class [[nodiscard]] FsStatus : std::uint8_t {
  kOk,
  /// The call's own journal commit failed (journal aborted under it).
  kIo,
  /// The volume was already degraded read-only when the call entered.
  kRoFs,
};

/// Inode c/mtime granularity (one kernel timer tick). Writes within one tick
/// leave timestamps unchanged, turning fsync() into fdatasync() — the
/// effect behind the Fig 11 context-switch counts.
inline constexpr sim::SimTime kTimerTick = 4'000'000;  // 4 ms (HZ=250)
/// CPU cost of one buffered write() (page-cache copy + bookkeeping).
inline constexpr sim::SimTime kWriteSyscallCpu = 2'000;  // 2 us
/// CPU cost of computing a journal checksum per 4 KiB block.
inline constexpr sim::SimTime kChecksumCpuPerBlock = 500;  // 0.5 us
/// Directory shards: namespace operations dirty hash(name) % kDirShards,
/// modelling a spread fileset instead of one hot root directory. Inodes
/// 0..kDirShards-1 are the shard blocks.
inline constexpr std::uint32_t kDirShards = 16;
/// Background writeback batch size (requests in flight per round).
inline constexpr std::size_t kWritebackBatch = 32;
/// OptFS: CPU cost per page scanned during osync (selective data journaling
/// makes this list long on overwrite-heavy workloads).
inline constexpr sim::SimTime kOsyncScanCpuPerPage = 1'000;  // 1 us

struct FsConfig {
  JournalKind journal = JournalKind::kJbd2;

  /// EXT4 "nobarrier" mount option: fsync/fdatasync never issue flushes and
  /// the journal commit record is written without FLUSH|FUA.
  bool nobarrier = false;

  /// JBD2 transactional checksums: the commit record does not need the
  /// pre-flush (the checksum validates the transaction at recovery), at a
  /// small CPU cost per journal block. The paper's smartphone EXT4 uses
  /// this (§6.3).
  bool journal_checksum = false;

  /// Journal region size in 4 KiB blocks.
  std::uint32_t journal_blocks = 4096;
  /// Maximum number of files (one metadata block each).
  std::uint32_t max_inodes = 4096;
  /// Default extent size per file, in 4 KiB blocks.
  std::uint32_t default_extent_blocks = 4096;

  /// pdflush: background writeback starts above this many dirty pages and
  /// stops at a quarter of it.
  std::size_t writeback_high_watermark = 256;
};

/// Disk layout derived from the config: [journal | inode table | data].
struct Layout {
  std::uint32_t journal_blocks;
  std::uint32_t max_inodes;

  flash::Lba journal_base() const noexcept { return 0; }
  flash::Lba inode_base() const noexcept { return journal_blocks; }
  flash::Lba data_base() const noexcept {
    return static_cast<flash::Lba>(journal_blocks) + max_inodes;
  }
  flash::Lba inode_block(std::uint32_t ino) const noexcept {
    return inode_base() + ino;
  }
};

/// The logical content of one metadata block as of a given transaction —
/// what the block's journal log copy (and its later in-place checkpoint
/// copy) "contain". The simulation stores no bytes, so recovery
/// reconstructs filesystem state from these snapshots instead of decoding
/// on-disk structures (DESIGN.md §6.6).
struct MetaSnapshot {
  /// Directory-shard block (ino < kDirShards): (name, ino) entries, sorted
  /// by name (flat vector: snapshots are taken per commit, so node-based
  /// containers would dominate the journal's allocation profile).
  bool is_directory = false;
  using Entries = std::vector<std::pair<std::string, std::uint32_t>>;
  Entries entries;

  /// Inode block: geometry + size at commit time. `exists` is false once
  /// the inode has been freed (unlink committed).
  bool exists = false;
  std::uint32_t ino = 0;
  std::string name;
  flash::Lba extent_base = 0;
  std::uint32_t extent_blocks = 0;
  std::uint32_t size_blocks = 0;
};

/// In-memory inode.
struct Inode {
  std::uint32_t ino = 0;
  std::string name;
  flash::Lba extent_base = 0;       // first data LBA
  std::uint32_t extent_blocks = 0;  // reserved extent length
  std::uint32_t size_blocks = 0;    // allocated (written) length

  /// Timestamp quantized to the timer tick.
  sim::SimTime mtime_tick = 0;
  /// True when the inode block differs from its on-disk state.
  bool meta_dirty = false;
  /// True when i_size changed (fdatasync must journal this; pure timestamp
  /// changes it may skip).
  bool size_dirty = false;
  /// Id of the journal transaction holding this inode's metadata block
  /// (0 = none).
  std::uint64_t txn_id = 0;
  /// Id of the transaction holding the latest i_size change (ext4's
  /// i_datasync_tid): fdatasync must not return before THIS transaction is
  /// durable, even when a concurrent syscall already cleared the dirty
  /// flags while its commit is still in flight.
  std::uint64_t datasync_txn_id = 0;
  /// Device-cache order high-water covering every *completed* writeback
  /// carrier of this file whose request object is no longer tracked (swept
  /// after completion). A durability syscall must prove the device
  /// persisted through this floor — or flush — before acking: the carrier
  /// may have transferred after the flush a group commit already counted.
  std::uint64_t persist_floor = 0;

  /// Writeback-error sequence (Linux errseq_t / AS_EIO, per-inode half):
  /// bumped every time a writeback of this file's pages fails for good
  /// (retries exhausted or hard media error). Each fd records the sequence
  /// it has seen; fsync reports EIO exactly once per fd per new failure.
  std::uint64_t wb_err_seq = 0;

  /// Namespace calls (create, unlink, rename) suspended with this inode in
  /// hand. The filesystem recycles a reclaimed inode only once none holds
  /// it, so their late updates never land on a new file.
  std::uint32_t holds = 0;
  /// reclaim() gave the ino and extent back; the object follows once
  /// `holds` drains.
  bool reclaimed = false;

  flash::Lba lba_of_page(std::uint32_t page) const noexcept {
    return extent_base + page;
  }
};

}  // namespace bio::fs
