#include "api/sync_policy.h"

namespace bio::api {

const char* to_string(Syscall s) noexcept {
  switch (s) {
    case Syscall::kNone: return "none";
    case Syscall::kFsync: return "fsync";
    case Syscall::kFdatasync: return "fdatasync";
    case Syscall::kFbarrier: return "fbarrier";
    case Syscall::kFdatabarrier: return "fdatabarrier";
    case Syscall::kOsync: return "osync";
    case Syscall::kDsync: return "dsync";
  }
  return "?";
}

SyncPolicy SyncPolicy::for_stack(core::StackKind kind) noexcept {
  switch (kind) {
    case core::StackKind::kExt4DR:
    case core::StackKind::kExt4OD:
      return {.order = Syscall::kFdatasync,
              .durability = Syscall::kFdatasync,
              .full_sync = Syscall::kFsync};
    case core::StackKind::kBfsDR:
      return {.order = Syscall::kFdatabarrier,
              .durability = Syscall::kFdatasync,
              .full_sync = Syscall::kFsync};
    case core::StackKind::kBfsOD:
      // The paper's "relaxing the durability" configuration: every
      // durability point is deliberately demoted to an ordering one.
      return {.order = Syscall::kFdatabarrier,
              .durability = Syscall::kFdatabarrier,
              .full_sync = Syscall::kFbarrier};
    case core::StackKind::kOptFs:
      return {.order = Syscall::kOsync,
              .durability = Syscall::kOsync,
              .full_sync = Syscall::kOsync};
  }
  return {};
}

}  // namespace bio::api
