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
// SyncPolicy carries one row of that table as a value. api::Vfs resolves
// the intents of every file through its volume's row, for_stack(kind), so
// workloads do not hardcode switch statements. A call site that needs a
// syscall the row does not name (OptFS's dsync, say) calls it directly:
// File::sync(Syscall) and its sugar.
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
