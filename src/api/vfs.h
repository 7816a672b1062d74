// Handle-based VFS: the POSIX-shaped syscall surface applications use.
//
// A Vfs owns a file-descriptor table over one *or more* mounted
// fs::Filesystems (the volumes of a core::Stack node). Each open() returns
// a descriptor with its own file offset; descriptors referencing the same
// file share a vnode whose refcount keeps the file usable after unlink()
// until the last close(), like the kernel's struct file / inode split. All
// syscalls return typed errno-style outcomes (sim::TaskOf<Result<..>> /
// TaskOf<Status>) instead of void, so workloads can exercise
// ENOENT/EBADF/ENOSPC paths without crashing the simulation.
//
// Mount table and path routing: a volume mounted as "data" owns every name
// of the form "/data/<file>"; an unnamed (root) mount owns every other
// name — including "/not-a-mount/..." paths, which it takes verbatim, the
// way a root filesystem owns any path below no other mount point. That is
// how the historical single-filesystem constructors keep every existing
// workload running unchanged. Without a root mount, a name whose first
// "/" component matches no mount fails with ENOENT; rename() across two
// mounts fails with EXDEV — a file never silently migrates between
// volumes. Each mount carries its own SyncPolicy row (per-volume
// resolution) and its own Stats.
//
// Synchronization intents (order point vs durability point vs full sync)
// are resolved through a pluggable SyncPolicy — by default the paper's
// substitution-table row for each volume's stack kind, overridable per
// file — so a workload written against Vfs runs unchanged on every
// StackKind (and on every mix of kinds behind one node).
//
//   api::Vfs vfs(node);  // mounts every volume: "/db/...", "/log/..."
//   api::File f = (co_await vfs.open("/db/app.db", {.create = true})).value();
//   co_await f.pwrite(/*page=*/0, /*npages=*/4);
//   co_await f.order_point();       // fdatabarrier on BarrierFS, fdatasync
//                                   // on EXT4, osync on OptFS
//   co_await f.durability_point();  // relaxed only on BFS-OD
//
// This header is the only filesystem API workloads, examples and bench
// drivers may use; raw fs::Inode access stays below the api/ layer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/result.h"
#include "api/sync_policy.h"
#include "core/stack.h"
#include "fs/filesystem.h"
#include "sim/reuse.h"
#include "sim/task.h"

namespace bio::api {

/// File descriptor. Non-negative when open; kInvalidFd otherwise.
using Fd = std::int32_t;
inline constexpr Fd kInvalidFd = -1;

struct OpenOptions {
  /// Create the file if it does not exist.
  bool create = false;
  /// With create: fail with kExist instead of opening an existing file.
  bool exclusive = false;
  /// Extent reservation for newly created files (0 = filesystem default).
  std::uint32_t extent_blocks = 0;
};

class Vfs;

/// Lightweight handle pairing a Vfs with a descriptor — the object
/// workloads pass around. Copying a File copies the handle, not the
/// descriptor (like copying an int fd); close it exactly once via
/// Vfs::close()/File::close().
class File {
 public:
  File() = default;

  bool valid() const noexcept { return vfs_ != nullptr && fd_ >= 0; }
  Fd fd() const noexcept { return fd_; }

  // Syscall sugar; declarations mirror Vfs. Defined inline below.
  sim::TaskOf<Result<std::uint32_t>> pread(std::uint32_t page,
                                           std::uint32_t npages);
  sim::TaskOf<Result<std::uint32_t>> pwrite(std::uint32_t page,
                                            std::uint32_t npages);
  sim::TaskOf<Result<std::uint32_t>> read(std::uint32_t npages);
  sim::TaskOf<Result<std::uint32_t>> write(std::uint32_t npages);
  sim::TaskOf<Result<std::uint32_t>> append(std::uint32_t npages);
  sim::TaskOf<Status> sync(Syscall call);
  sim::TaskOf<Status> sync(SyncIntent intent);
  sim::TaskOf<Status> fsync();
  sim::TaskOf<Status> fdatasync();
  sim::TaskOf<Status> fbarrier();
  sim::TaskOf<Status> fdatabarrier();
  /// Policy-resolved intents (paper §5): the call sites workloads write.
  sim::TaskOf<Status> order_point();
  sim::TaskOf<Status> durability_point();
  sim::TaskOf<Status> sync_file();
  Status close();

  Result<std::uint32_t> size_blocks() const;
  Result<std::uint32_t> extent_blocks() const;
  Status set_policy(SyncPolicy policy);

 private:
  friend class Vfs;
  File(Vfs* vfs, Fd fd) : vfs_(vfs), fd_(fd) {}

  Vfs* vfs_ = nullptr;
  Fd fd_ = kInvalidFd;
};

class Vfs {
 public:
  struct Stats {
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    std::uint64_t creates = 0;
    std::uint64_t unlinks = 0;
    std::uint64_t renames = 0;
    /// Syscalls that returned an error (EBADF, ENOENT, ENOSPC, ...).
    std::uint64_t errors = 0;
  };

  /// Single-filesystem Vfs: one root mount owning every name.
  Vfs(fs::Filesystem& filesystem, SyncPolicy policy);
  /// Mounts every volume of the node: an unnamed volume becomes the root
  /// mount, a named volume owns "/<name>/...". Policies default to the
  /// substitution-table row for each volume's kind.
  explicit Vfs(core::Stack& stack);

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // ---- mount table -------------------------------------------------------

  /// Adds a mount: `name` empty for the root mount, else the "/name/..."
  /// prefix. kExist if the name (or a second root) is already mounted.
  Status mount(std::string name, fs::Filesystem& filesystem,
               SyncPolicy policy);
  std::size_t mount_count() const noexcept { return mounts_.size(); }
  /// Per-mount statistics (namespace ops and errors attributed to the
  /// mount), or nullptr for an unknown mount name.
  const Stats* stats_of(const std::string& name) const noexcept;

  // ---- namespace ---------------------------------------------------------

  /// Opens (optionally creating) `name`; allocates the lowest free fd.
  sim::TaskOf<Result<File>> open(std::string name, OpenOptions opts = {});
  /// Releases the descriptor. The last close of an unlinked file drops the
  /// vnode and reclaims its storage. Synchronous: close(2) does not block
  /// on IO here.
  Status close(Fd fd);
  /// Removes the name. Open descriptors keep the file — and its extent —
  /// alive until the last close (deferred reclamation).
  sim::TaskOf<Status> unlink(const std::string& name);
  /// Renames within one volume; replaces an existing target (whose open
  /// descriptors, if any, keep the displaced file alive until last close).
  /// kXDev when `from` and `to` resolve to different mounts.
  sim::TaskOf<Status> rename(const std::string& from, const std::string& to);

  // ---- data path ---------------------------------------------------------

  /// Positional read of up to `npages` 4 KiB pages; returns pages actually
  /// read (short at EOF, 0 when `page` is at/past EOF).
  sim::TaskOf<Result<std::uint32_t>> pread(Fd fd, std::uint32_t page,
                                           std::uint32_t npages);
  /// Positional buffered write; kNoSpc beyond the file's reserved extent.
  sim::TaskOf<Result<std::uint32_t>> pwrite(Fd fd, std::uint32_t page,
                                            std::uint32_t npages);
  /// Read at the fd's offset; advances it by the pages read.
  sim::TaskOf<Result<std::uint32_t>> read(Fd fd, std::uint32_t npages);
  /// Write at the fd's offset; advances it by the pages written.
  sim::TaskOf<Result<std::uint32_t>> write(Fd fd, std::uint32_t npages);
  /// O_APPEND-style write at EOF; leaves the fd offset at the new EOF.
  sim::TaskOf<Result<std::uint32_t>> append(Fd fd, std::uint32_t npages);

  // ---- synchronization ---------------------------------------------------

  /// Runs one concrete sync syscall — every sync path (File sugar, policy
  /// intents, api::Ring) ends here. kInval when the descriptor's journal
  /// cannot run `call` (fs::supports), kIo when this call's journal
  /// commit died (the abort degraded the volume), kRoFs when the volume
  /// was already degraded; otherwise a data-writeback failure recorded on
  /// the inode since this descriptor last looked is kIo exactly once per
  /// fd (Linux errseq_t).
  sim::TaskOf<Status> sync(Fd fd, Syscall call);
  /// Resolves `intent` through the file's policy (per-file override if
  /// set, else the file's mount's policy) and runs the concrete syscall.
  sim::TaskOf<Status> sync(Fd fd, SyncIntent intent);

  // ---- descriptor metadata ----------------------------------------------

  Result<std::uint32_t> size_blocks(Fd fd) const;
  Result<std::uint32_t> extent_blocks(Fd fd) const;
  Result<std::uint64_t> offset(Fd fd) const;
  Status seek(Fd fd, std::uint64_t page);  // SEEK_SET, in pages

  /// Per-file policy override; applies to every fd sharing the vnode.
  Status set_policy(Fd fd, SyncPolicy policy);
  Result<SyncPolicy> policy_of(Fd fd) const;

  /// The journal flavour behind the descriptor — the capability lookup
  /// api::Ring's submit-time validation runs per sqe.
  Result<fs::JournalKind> journal_kind(Fd fd) const;

  /// The inode number behind the descriptor (fstat's st_ino). Lets a
  /// caller that captured an fd *number* earlier — e.g. in a ring sqe —
  /// detect that close() plus fd reuse rebound it to a different file.
  Result<std::uint32_t> ino_of(Fd fd) const;

  std::size_t open_fds() const noexcept { return open_fds_; }
  /// Node-wide statistics (every mount plus unroutable-name errors).
  const Stats& stats() const noexcept { return stats_; }
  /// The node's simulator (all mounts share it) — where api::Ring spawns
  /// its chain drivers.
  sim::Simulator& simulator() noexcept;

 private:
  /// One mount-table row: opens of its names resolve against
  /// `filesystem`.
  struct Mount {
    std::string name;  // "" = root mount
    fs::Filesystem* filesystem = nullptr;
    SyncPolicy policy;
    Stats stats;
  };
  /// A routed name: the owning mount and the volume-relative file name.
  struct Target {
    Mount* mount = nullptr;
    std::string rel;
  };

  /// In-core open-file object: one per file with >= 1 open descriptor.
  struct Vnode {
    fs::Inode* inode = nullptr;
    /// The filesystem the file lives on.
    fs::Filesystem* fs = nullptr;
    std::uint32_t refcount = 0;
    /// In-flight syscalls currently suspended against this vnode; blocks
    /// retirement/reclamation the way in-flight kernel IO pins the file.
    std::uint32_t pins = 0;
    /// Name removed while descriptors were open: storage reclamation is
    /// deferred to the last close (kernel iput semantics).
    bool unlinked = false;
    /// High-water mark of append reservations; keeps concurrent appenders
    /// on disjoint pages even though the write itself suspends.
    std::uint32_t append_cursor = 0;
    std::optional<SyncPolicy> policy;
  };
  struct FdEntry {
    Vnode* vnode = nullptr;  // nullptr = free slot
    /// The mount the descriptor was opened through — the kernel's
    /// struct file -> vfsmount edge. Policy resolution and stats
    /// attribution live here, so one file reached through two mounts of
    /// the same filesystem keeps per-mount semantics.
    Mount* mount = nullptr;
    std::uint64_t offset = 0;
    /// Bumped on every close: an IO that suspended against an earlier
    /// incarnation of this slot must not touch the offset of a descriptor
    /// opened into the recycled slot afterwards (fd-reuse ABA).
    std::uint64_t generation = 0;
    /// Linux errseq_t, per-fd half: the inode's wb_err_seq this descriptor
    /// has already reported. A sync syscall observing inode->wb_err_seq >
    /// wb_err_seen returns EIO exactly once, then catches up — a failed
    /// data writeback is reported on every fd, but only once per fd.
    std::uint64_t wb_err_seen = 0;
  };

  /// Routes `name` through the mount table: a matching "/component" wins;
  /// anything else goes to the root mount verbatim. kNoEnt when nothing
  /// matches and no root mount exists, kInval for names that denote a
  /// mount point itself rather than a file in it.
  Result<Target> resolve(const std::string& name) const;

  /// Maps fd to its table entry; nullptr if the descriptor is not open —
  /// the EBADF funnel for every syscall (callers tick errors via fail()).
  FdEntry* entry(Fd fd);
  const FdEntry* entry(Fd fd) const;
  Mount* find_mount(std::string_view name) const noexcept;
  /// The vnode of `inode`, which lives on `filesystem`; made on first open.
  Vnode& vnode_for(fs::Filesystem& filesystem, fs::Inode& inode);
  Fd alloc_fd(Vnode& vn, Mount& mount);
  /// Error funnel: ticks node-wide errors, and the mount's when known.
  Errno fail(Errno e) const;
  Errno fail(Mount& m, Errno e) const;
  /// Drops one descriptor reference (close path).
  void unref(Vnode& vn);
  /// Marks a syscall in flight against `vn` across its suspension points:
  /// a close() racing with in-flight IO must not reclaim the extent the IO
  /// still targets (the kernel equivalent: in-flight requests hold the
  /// struct file). Deliberately NOT RAII: a pinned frame destroyed at
  /// simulator teardown must not call back into a possibly-dead Vfs, so
  /// the balancing unpin() is an explicit statement before co_return and
  /// is simply skipped (harmless leak) when the frame dies mid-flight.
  static void pin(Vnode& vn) { ++vn.pins; }
  void unpin(Vnode& vn);
  /// Frees the vnode once no descriptor and no in-flight syscall uses it;
  /// reclaims storage if the file was unlinked meanwhile.
  void maybe_retire(Vnode& vn);

  /// Mount rows are stable (unique_ptr) so vnodes can point at them.
  std::vector<std::unique_ptr<Mount>> mounts_;
  std::vector<FdEntry> fds_;
  using VnodeMap = std::unordered_map<const fs::Inode*, Vnode*>;
  /// Live vnodes keyed by inode *pointer*, not ino: a filesystem recycles
  /// inos on unlink while open descriptors still pin the old Inode object
  /// (which it recycles only after the last close reclaims it), so the
  /// pointer is the only safe identity — and distinct volumes' inodes are
  /// distinct objects, so one map serves every mount.
  VnodeMap vnodes_;
  sim::SpareNodes<VnodeMap> spare_vnode_nodes_;
  /// Every vnode ever made (stable addresses); retired ones wait in
  /// free_vnodes_ for the next open.
  std::deque<Vnode> vnode_store_;
  std::vector<Vnode*> free_vnodes_;
  std::size_t open_fds_ = 0;
  mutable Stats stats_;  // mutable: error ticks happen in const accessors
};

// ---- File sugar (delegates to the owning Vfs) ------------------------------

namespace detail {
/// Lazily-ready error task: syscalls on a default-constructed (never
/// opened) File resolve to EBADF like any stale descriptor, not a crash.
template <typename T>
inline sim::TaskOf<T> ready_error(Errno e) {
  co_return T(e);
}
}  // namespace detail

inline sim::TaskOf<Result<std::uint32_t>> File::pread(std::uint32_t page,
                                                      std::uint32_t npages) {
  if (vfs_ == nullptr)
    return detail::ready_error<Result<std::uint32_t>>(Errno::kBadF);
  return vfs_->pread(fd_, page, npages);
}
inline sim::TaskOf<Result<std::uint32_t>> File::pwrite(std::uint32_t page,
                                                       std::uint32_t npages) {
  if (vfs_ == nullptr)
    return detail::ready_error<Result<std::uint32_t>>(Errno::kBadF);
  return vfs_->pwrite(fd_, page, npages);
}
inline sim::TaskOf<Result<std::uint32_t>> File::read(std::uint32_t npages) {
  if (vfs_ == nullptr)
    return detail::ready_error<Result<std::uint32_t>>(Errno::kBadF);
  return vfs_->read(fd_, npages);
}
inline sim::TaskOf<Result<std::uint32_t>> File::write(std::uint32_t npages) {
  if (vfs_ == nullptr)
    return detail::ready_error<Result<std::uint32_t>>(Errno::kBadF);
  return vfs_->write(fd_, npages);
}
inline sim::TaskOf<Result<std::uint32_t>> File::append(std::uint32_t npages) {
  if (vfs_ == nullptr)
    return detail::ready_error<Result<std::uint32_t>>(Errno::kBadF);
  return vfs_->append(fd_, npages);
}
inline sim::TaskOf<Status> File::sync(Syscall call) {
  if (vfs_ == nullptr) return detail::ready_error<Status>(Errno::kBadF);
  return vfs_->sync(fd_, call);
}
inline sim::TaskOf<Status> File::sync(SyncIntent intent) {
  if (vfs_ == nullptr) return detail::ready_error<Status>(Errno::kBadF);
  return vfs_->sync(fd_, intent);
}
inline sim::TaskOf<Status> File::fsync() { return sync(Syscall::kFsync); }
inline sim::TaskOf<Status> File::fdatasync() {
  return sync(Syscall::kFdatasync);
}
inline sim::TaskOf<Status> File::fbarrier() {
  return sync(Syscall::kFbarrier);
}
inline sim::TaskOf<Status> File::fdatabarrier() {
  return sync(Syscall::kFdatabarrier);
}
inline sim::TaskOf<Status> File::order_point() {
  return sync(SyncIntent::kOrder);
}
inline sim::TaskOf<Status> File::durability_point() {
  return sync(SyncIntent::kDurability);
}
inline sim::TaskOf<Status> File::sync_file() {
  return sync(SyncIntent::kFullSync);
}
inline Status File::close() {
  if (vfs_ == nullptr) return Errno::kBadF;
  const Status s = vfs_->close(fd_);
  if (s.ok()) fd_ = kInvalidFd;
  return s;
}
inline Result<std::uint32_t> File::size_blocks() const {
  if (vfs_ == nullptr) return Errno::kBadF;
  return vfs_->size_blocks(fd_);
}
inline Result<std::uint32_t> File::extent_blocks() const {
  if (vfs_ == nullptr) return Errno::kBadF;
  return vfs_->extent_blocks(fd_);
}
inline Status File::set_policy(SyncPolicy policy) {
  if (vfs_ == nullptr) return Errno::kBadF;
  return vfs_->set_policy(fd_, policy);
}

}  // namespace bio::api
