// The paper's syscall substitution table (§5) as *data*.
//
// An application call site is either a storage-order point ("everything
// before this persists before everything after") or a durability point
// ("this must be on media now"); full-file sync is the fsync flavour of the
// latter. Which concrete syscall implements each intent depends on the IO
// stack:
//
//   kind    | order point   | durability point | full-file sync
//   --------+---------------+------------------+----------------
//   EXT4-DR | fdatasync     | fdatasync        | fsync
//   EXT4-OD | fdatasync     | fdatasync        | fsync     (nobarrier mount)
//   BFS-DR  | fdatabarrier  | fdatasync        | fsync
//   BFS-OD  | fdatabarrier  | fdatabarrier*    | fbarrier  (*relaxed, §6.4)
//   OptFS   | osync         | osync            | osync
//
// SyncPolicy carries one row of that table as a value; workloads resolve
// intents through it (usually via api::Vfs/File) instead of hardcoding
// switch statements. New rows — per-file overrides, OptFS osync variants —
// are new values, not new branches in core/stack.cc.
#pragma once

#include <cstdint>

#include "core/stack.h"
#include "fs/filesystem.h"
#include "sim/task.h"

namespace bio::api {

/// A concrete synchronization syscall of the simulated filesystem.
enum class Syscall : std::uint8_t {
  kNone,          // no-op (e.g. fully relaxed policies)
  kFsync,
  kFdatasync,
  kFbarrier,
  kFdatabarrier,
  kOsync,         // OptFS osync with Wait-on-Transfer
  kDsync,         // OptFS dsync: data durable at return, metadata delayed
};

/// What the application *means* at a call site.
enum class SyncIntent : std::uint8_t {
  kOrder,       // storage order only
  kDurability,  // data on media now (data-only, fdatasync flavour)
  kFullSync,    // durability including metadata (fsync flavour)
};

const char* to_string(Syscall s) noexcept;

struct SyncPolicy {
  Syscall order = Syscall::kFdatasync;
  Syscall durability = Syscall::kFdatasync;
  Syscall full_sync = Syscall::kFsync;

  /// The substitution-table row for a paper stack configuration.
  static SyncPolicy for_stack(core::StackKind kind) noexcept;

  /// The OptFS dsync variant (OptFS §5 / PAPER.md §5): ordering stays
  /// osync, but durability points actually put the *data* on media before
  /// returning — metadata durability alone stays delayed. A new row, not a
  /// new branch anywhere in core/.
  static SyncPolicy optfs_dsync() noexcept {
    return {.order = Syscall::kOsync,
            .durability = Syscall::kDsync,
            .full_sync = Syscall::kDsync};
  }

  Syscall resolve(SyncIntent intent) const noexcept {
    switch (intent) {
      case SyncIntent::kOrder: return order;
      case SyncIntent::kDurability: return durability;
      case SyncIntent::kFullSync: return full_sync;
    }
    return full_sync;
  }

  friend bool operator==(const SyncPolicy&, const SyncPolicy&) = default;
};

/// The filesystem task that runs one concrete syscall against `f` — the
/// only Syscall-to-filesystem switch, behind api::Vfs::sync. The task
/// yields the filesystem's verdict: kIo when the call's own journal commit
/// died, kRoFs on a degraded volume (kNone trivially succeeds).
sim::TaskOf<fs::FsStatus> issue(fs::Filesystem& filesystem, fs::Inode& f,
                                Syscall call);

}  // namespace bio::api
