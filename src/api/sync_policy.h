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
#include "fs/types.h"

namespace bio::api {

/// A concrete synchronization syscall; fs::supports says which journal
/// runs which, fs::Filesystem::sync runs it.
using fs::Syscall;

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

}  // namespace bio::api
