#include "api/vfs.h"

#include <algorithm>
#include <utility>

namespace bio::api {

// ---- mount table ------------------------------------------------------------

Vfs::Vfs(fs::Filesystem& filesystem, SyncPolicy policy) {
  must(mount("", filesystem, policy));
}

Vfs::Vfs(core::Stack& stack) {
  for (const std::unique_ptr<core::Volume>& v : stack.volumes())
    must(mount(v->name(), v->fs(), SyncPolicy::for_stack(v->kind())));
}

Vfs::Mount* Vfs::find_mount(std::string_view name) const noexcept {
  for (const std::unique_ptr<Mount>& m : mounts_)
    if (m->name == name) return m.get();
  return nullptr;
}

Status Vfs::mount(std::string name, fs::Filesystem& filesystem,
                  SyncPolicy policy) {
  // A mount name is one path component; an embedded '/' could never be
  // routed (resolve() matches only the first component).
  if (name.find('/') != std::string::npos) return fail(Errno::kInval);
  if (find_mount(name) != nullptr) return fail(Errno::kExist);
  auto m = std::make_unique<Mount>();
  m->name = std::move(name);
  m->filesystem = &filesystem;
  m->policy = policy;
  mounts_.push_back(std::move(m));
  return {};
}

const Vfs::Stats* Vfs::stats_of(const std::string& name) const noexcept {
  const Mount* m = find_mount(name);
  return m == nullptr ? nullptr : &m->stats;
}

sim::Simulator& Vfs::simulator() noexcept {
  return mounts_.front()->filesystem->sim();
}

Result<fs::JournalKind> Vfs::journal_kind(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->vnode->fs->config().journal;
}

Result<std::uint32_t> Vfs::ino_of(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->vnode->inode->ino;
}

Result<Vfs::Target> Vfs::resolve(const std::string& name) const {
  if (name.empty()) return Errno::kInval;
  if (name.front() == '/') {
    const std::size_t sep = name.find('/', 1);
    if (sep != std::string::npos) {
      const std::string_view comp(name.data() + 1, sep - 1);
      if (Mount* m = find_mount(comp); m != nullptr && !comp.empty()) {
        if (sep + 1 == name.size()) return Errno::kInval;  // "/vol/"
        return Target{m, name.substr(sep + 1)};
      }
    } else {
      // "/vol" denotes the mount point itself, not a file in it.
      const std::string_view comp(name.data() + 1, name.size() - 1);
      if (!comp.empty() && find_mount(comp) != nullptr) return Errno::kInval;
    }
  }
  // No mount component matched: the root mount owns the whole name.
  if (Mount* root = find_mount(""); root != nullptr)
    return Target{root, name};
  return Errno::kNoEnt;
}

// ---- descriptor-table plumbing ---------------------------------------------

Vfs::FdEntry* Vfs::entry(Fd fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
      fds_[static_cast<std::size_t>(fd)].vnode == nullptr)
    return nullptr;
  return &fds_[static_cast<std::size_t>(fd)];
}

const Vfs::FdEntry* Vfs::entry(Fd fd) const {
  return const_cast<Vfs*>(this)->entry(fd);
}

Errno Vfs::fail(Errno e) const {
  ++stats_.errors;
  return e;
}

Errno Vfs::fail(Mount& m, Errno e) const {
  ++m.stats.errors;
  return fail(e);
}

void Vfs::unref(Vnode& vn) {
  --vn.refcount;
  maybe_retire(vn);
}

void Vfs::unpin(Vnode& vn) {
  --vn.pins;
  maybe_retire(vn);
}

void Vfs::maybe_retire(Vnode& vn) {
  if (vn.refcount > 0 || vn.pins > 0) return;
  if (vn.unlinked) vn.fs->reclaim(*vn.inode);
  sim::erase_keeping(vnodes_, spare_vnode_nodes_, vnodes_.find(vn.inode));
  vn = Vnode{};
  free_vnodes_.push_back(&vn);
}

Vfs::Vnode& Vfs::vnode_for(fs::Filesystem& filesystem, fs::Inode& inode) {
  if (auto it = vnodes_.find(&inode); it != vnodes_.end()) return *it->second;
  Vnode* vn = nullptr;
  if (free_vnodes_.empty()) {
    vn = &vnode_store_.emplace_back();
  } else {
    vn = free_vnodes_.back();
    free_vnodes_.pop_back();
  }
  vn->inode = &inode;
  vn->fs = &filesystem;
  sim::insert_reusing(vnodes_, spare_vnode_nodes_, &inode, vn);
  return *vn;
}

Fd Vfs::alloc_fd(Vnode& vn, Mount& mount) {
  // POSIX semantics: the lowest free descriptor.
  std::size_t slot = 0;
  while (slot < fds_.size() && fds_[slot].vnode != nullptr) ++slot;
  if (slot == fds_.size()) fds_.emplace_back();
  fds_[slot].vnode = &vn;
  fds_[slot].mount = &mount;
  fds_[slot].offset = 0;
  // A freshly-opened descriptor samples the inode's error sequence: it
  // reports only writeback failures that happen *after* this open (Linux
  // errseq_t "seen" semantics).
  fds_[slot].wb_err_seen = vn.inode->wb_err_seq;
  ++vn.refcount;
  ++open_fds_;
  return static_cast<Fd>(slot);
}

// ---- namespace --------------------------------------------------------------

sim::TaskOf<Result<File>> Vfs::open(std::string name, OpenOptions opts) {
  Result<Target> t = resolve(name);
  if (!t.ok()) co_return fail(t.error());
  Mount& m = *t.value().mount;
  fs::Filesystem& filesystem = *m.filesystem;
  fs::Inode* inode = filesystem.lookup(t.value().rel);
  if (inode != nullptr) {
    if (opts.create && opts.exclusive) co_return fail(m, Errno::kExist);
  } else {
    if (!opts.create) co_return fail(m, Errno::kNoEnt);
    if (filesystem.degraded()) co_return fail(m, Errno::kRoFs);
    if (!filesystem.has_free_inode()) co_return fail(m, Errno::kNoSpc);
    co_await filesystem.create(std::move(t.value().rel), inode,
                               opts.extent_blocks);
    ++stats_.creates;
    ++m.stats.creates;
    // A concurrent unlink removed and reclaimed the new file meanwhile.
    if (inode == nullptr) co_return fail(m, Errno::kNoEnt);
  }
  ++stats_.opens;
  ++m.stats.opens;
  co_return File(this, alloc_fd(vnode_for(filesystem, *inode), m));
}

Status Vfs::close(Fd fd) {
  FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  Vnode* vn = e->vnode;
  ++e->mount->stats.closes;
  e->vnode = nullptr;
  e->mount = nullptr;
  e->offset = 0;
  ++e->generation;
  --open_fds_;
  ++stats_.closes;
  unref(*vn);
  return {};
}

sim::TaskOf<Status> Vfs::unlink(const std::string& name) {
  Result<Target> t = resolve(name);
  if (!t.ok()) co_return fail(t.error());
  Mount& m = *t.value().mount;
  fs::Filesystem& filesystem = *m.filesystem;
  fs::Inode* inode = filesystem.lookup(t.value().rel);
  if (inode == nullptr) co_return fail(m, Errno::kNoEnt);
  if (filesystem.degraded()) co_return fail(m, Errno::kRoFs);
  ++stats_.unlinks;
  ++m.stats.unlinks;
  // Descriptors still open: remove the name only; the extent/ino recycle
  // on the last close, so surviving fds never alias a new file.
  auto it = vnodes_.find(inode);
  const bool open = it != vnodes_.end();
  if (open) it->second->unlinked = true;
  co_await filesystem.unlink(t.value().rel, /*reclaim_now=*/!open);
  co_return Status{};
}

sim::TaskOf<Status> Vfs::rename(const std::string& from,
                                const std::string& to) {
  Result<Target> tf = resolve(from);
  if (!tf.ok()) co_return fail(tf.error());
  Result<Target> tt = resolve(to);
  if (!tt.ok()) co_return fail(tt.error());
  Mount& m = *tf.value().mount;
  if (&m != tt.value().mount) co_return fail(m, Errno::kXDev);
  fs::Filesystem& filesystem = *m.filesystem;
  const std::string& rel_from = tf.value().rel;
  const std::string& rel_to = tt.value().rel;
  if (filesystem.lookup(rel_from) == nullptr)
    co_return fail(m, Errno::kNoEnt);
  if (filesystem.degraded()) co_return fail(m, Errno::kRoFs);
  if (rel_from == rel_to) co_return Status{};
  // POSIX: an existing target is displaced by the rename itself — inside
  // ONE journal transaction, so no crash instant ever shows the
  // destination name missing. The displaced file stays alive through its
  // open descriptors (deferred reclamation, as with unlink).
  fs::Inode* dst = nullptr;
  for (;;) {
    dst = filesystem.lookup(rel_to);
    const bool renamed = co_await filesystem.rename(rel_from, rel_to);
    if (renamed) break;
    // A namespace op raced the rename's own journal reservations and won:
    // a vanished source is ENOENT; a changed target is re-resolved and
    // displaced on the next pass (rename(2) never fails with EEXIST — the
    // kernel wins the same race by holding locks the model doesn't have).
    if (filesystem.lookup(rel_from) == nullptr)
      co_return fail(m, Errno::kNoEnt);
  }
  if (dst != nullptr) {
    // The displaced inode lost its name; route its storage like unlink():
    // reclaim at last close while descriptors are open, now otherwise.
    auto it = vnodes_.find(dst);
    if (it != vnodes_.end())
      it->second->unlinked = true;
    else
      filesystem.reclaim(*dst);
  }
  ++stats_.renames;
  ++m.stats.renames;
  co_return Status{};
}

// ---- data path --------------------------------------------------------------

sim::TaskOf<Result<std::uint32_t>> Vfs::pread(Fd fd, std::uint32_t page,
                                              std::uint32_t npages) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  if (npages == 0) co_return fail(*e->mount, Errno::kInval);
  Vnode& vn = *e->vnode;
  fs::Inode& inode = *vn.inode;
  if (page >= inode.size_blocks) co_return std::uint32_t{0};  // at/past EOF
  const std::uint32_t n = std::min(npages, inode.size_blocks - page);
  Mount& m = *e->mount;
  pin(vn);
  const fs::FsStatus st = co_await vn.fs->read(inode, page, n);
  unpin(vn);
  if (st == fs::FsStatus::kIo) co_return fail(m, Errno::kIo);
  co_return n;
}

sim::TaskOf<Result<std::uint32_t>> Vfs::pwrite(Fd fd, std::uint32_t page,
                                               std::uint32_t npages) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  if (npages == 0) co_return fail(*e->mount, Errno::kInval);
  Vnode& vn = *e->vnode;
  fs::Inode& inode = *vn.inode;
  // 64-bit sum: page + npages must not wrap past the extent check.
  if (std::uint64_t{page} + npages > inode.extent_blocks)
    co_return fail(*e->mount, Errno::kNoSpc);
  // errors=remount-ro: a degraded volume rejects writes (reads keep
  // working). Checked here so write()/append() inherit it too.
  if (vn.fs->degraded()) co_return fail(*e->mount, Errno::kRoFs);
  pin(vn);
  co_await vn.fs->write(inode, page, npages);
  unpin(vn);
  co_return npages;
}

sim::TaskOf<Result<std::uint32_t>> Vfs::read(Fd fd, std::uint32_t npages) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  const fs::Inode* inode = e->vnode->inode;
  if (e->offset >= inode->size_blocks) co_return std::uint32_t{0};  // at EOF
  const std::uint64_t gen = e->generation;
  const std::uint32_t page = static_cast<std::uint32_t>(e->offset);
  Result<std::uint32_t> r = co_await pread(fd, page, npages);
  // Re-resolve: the fd may have been closed (and the slot reopened, even
  // for the same file) by another simulated thread while the IO was in
  // flight; the generation pins the exact descriptor incarnation.
  if (r.ok() && (e = entry(fd)) != nullptr && e->generation == gen)
    e->offset += r.value();
  co_return r;
}

sim::TaskOf<Result<std::uint32_t>> Vfs::write(Fd fd, std::uint32_t npages) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  const fs::Inode* inode = e->vnode->inode;
  if (e->offset + npages > inode->extent_blocks)
    co_return fail(*e->mount, Errno::kNoSpc);
  const std::uint64_t gen = e->generation;
  const std::uint32_t page = static_cast<std::uint32_t>(e->offset);
  Result<std::uint32_t> r = co_await pwrite(fd, page, npages);
  if (r.ok() && (e = entry(fd)) != nullptr && e->generation == gen)
    e->offset += r.value();
  co_return r;
}

sim::TaskOf<Result<std::uint32_t>> Vfs::append(Fd fd, std::uint32_t npages) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  if (npages == 0) co_return fail(*e->mount, Errno::kInval);
  Vnode* vn = e->vnode;
  const fs::Inode* inode = vn->inode;
  // Reserve the target range before the first suspension (the write itself
  // blocks in the page cache / throttle), so concurrent appenders through
  // any descriptor of this file land on disjoint pages — O_APPEND
  // atomicity. EOF is the max of i_size and outstanding reservations.
  const std::uint32_t page = std::max(inode->size_blocks, vn->append_cursor);
  if (std::uint64_t{page} + npages > inode->extent_blocks)
    co_return fail(*e->mount, Errno::kNoSpc);
  vn->append_cursor = page + npages;
  const std::uint64_t gen = e->generation;
  Result<std::uint32_t> r = co_await pwrite(fd, page, npages);
  if (r.ok() && (e = entry(fd)) != nullptr && e->generation == gen)
    e->offset = static_cast<std::uint64_t>(page) + r.value();
  co_return r;
}

// ---- synchronization ---------------------------------------------------------

sim::TaskOf<Status> Vfs::sync(Fd fd, Syscall call) {
  FdEntry* e = entry(fd);
  if (e == nullptr) co_return fail(Errno::kBadF);
  Vnode& vn = *e->vnode;
  Mount& m = *e->mount;
  // A (per-file-overridable) policy row or a direct call may name a
  // syscall this descriptor's filesystem cannot run — dsync/osync outside
  // OptFS, barrier calls outside BarrierFS, kNone anywhere. Surface the
  // mismatch as a modelled EINVAL rather than letting the filesystem
  // assert.
  if (!fs::supports(call, vn.fs->config().journal))
    co_return fail(m, Errno::kInval);
  // `gen` pins the descriptor incarnation across the suspension (fd-reuse
  // ABA, as in read/write); `seen` is its errseq sample at the start.
  const std::uint64_t gen = e->generation;
  const std::uint64_t seen = e->wb_err_seen;
  pin(vn);
  const fs::FsStatus st = co_await vn.fs->sync(*vn.inode, call);
  const std::uint64_t err_seq = vn.inode->wb_err_seq;  // before unpin
  unpin(vn);
  switch (st) {
    case fs::FsStatus::kRoFs:
      co_return fail(m, Errno::kRoFs);
    case fs::FsStatus::kIo:
      // This call's own commit died; the abort already degraded the
      // volume, so later syscalls see EROFS — the errseq below therefore
      // never double-reports on top of this EIO.
      co_return fail(m, Errno::kIo);
    case fs::FsStatus::kOk:
      break;
  }
  // errseq: a data writeback that failed for good since this descriptor
  // last looked surfaces here, once. Re-resolve the entry — the fd may
  // have been closed (even reopened) while the sync was suspended. A dead
  // incarnation still owes its caller the verdict (Linux's fsync holds
  // the struct file, so close() cannot hide f_wb_err): judge it by the
  // sample it held when the sync started.
  e = entry(fd);
  if (e == nullptr || e->generation != gen)
    co_return seen < err_seq ? fail(m, Errno::kIo) : Status{};
  if (e->wb_err_seen < err_seq) {
    e->wb_err_seen = err_seq;
    co_return fail(m, Errno::kIo);
  }
  co_return Status{};
}

sim::TaskOf<Status> Vfs::sync(Fd fd, SyncIntent intent) {
  const Result<SyncPolicy> policy = policy_of(fd);
  if (!policy.ok()) return detail::ready_error<Status>(policy.error());
  return sync(fd, policy.value().resolve(intent));
}

// ---- descriptor metadata -----------------------------------------------------

Result<std::uint32_t> Vfs::size_blocks(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->vnode->inode->size_blocks;
}

Result<std::uint32_t> Vfs::extent_blocks(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->vnode->inode->extent_blocks;
}

Result<std::uint64_t> Vfs::offset(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->offset;
}

Status Vfs::seek(Fd fd, std::uint64_t page) {
  FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  e->offset = page;
  return {};
}

Status Vfs::set_policy(Fd fd, SyncPolicy policy) {
  FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  e->vnode->policy = policy;
  return {};
}

Result<SyncPolicy> Vfs::policy_of(Fd fd) const {
  const FdEntry* e = entry(fd);
  if (e == nullptr) return fail(Errno::kBadF);
  return e->vnode->policy.has_value() ? *e->vnode->policy
                                      : e->mount->policy;
}

}  // namespace bio::api
