#include "wl/concurrent_writers.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "fs/page_cache.h"
#include "sim/rng.h"

namespace bio::wl {
namespace {

using namespace bio::sim::literals;

/// Files every writer writes through its own descriptor.
constexpr std::uint32_t kSharedFiles = 2;
/// Additional private files per writer.
constexpr std::uint32_t kPrivateFiles = 1;

/// One sync-matrix row the writer can roll: either a policy-resolved intent
/// or a direct barrier/sync syscall.
struct SyncPick {
  bool is_intent = false;
  api::SyncIntent intent = api::SyncIntent::kFullSync;
  api::Syscall direct = api::Syscall::kFsync;
};

std::vector<SyncPick> sync_matrix(core::StackKind kind) {
  std::vector<SyncPick> m = {
      {true, api::SyncIntent::kOrder, {}},
      {true, api::SyncIntent::kDurability, {}},
      {true, api::SyncIntent::kFullSync, {}},
      {false, {}, api::Syscall::kFsync},
      {false, {}, api::Syscall::kFdatasync},
  };
  if (kind == core::StackKind::kBfsDR || kind == core::StackKind::kBfsOD) {
    m.push_back({false, {}, api::Syscall::kFbarrier});
    m.push_back({false, {}, api::Syscall::kFdatabarrier});
  }
  return m;
}

/// The concrete syscall `pick` runs against a file carrying `policy` (what
/// the trace records so the checker can classify semantics).
api::Syscall resolved_call(const SyncPick& pick, const api::SyncPolicy& policy) {
  return pick.is_intent ? policy.resolve(pick.intent) : pick.direct;
}

/// Everything the writer coroutines share. Owned by the setup task's frame
/// for the whole run (writers are joined before it finishes... they are
/// not: the frame is kept alive because setup() co_awaits sim.join on each
/// writer thread).
struct Ctx {
  core::Volume& vol;
  api::Vfs& vfs;
  std::string prefix;
  ConcurrentWritersParams p;
  std::uint64_t seed;
  ConcurrentTrace& trace;
  std::vector<SyncPick> matrix;
  /// Detached close-during-sync tasks; setup joins them after the writers
  /// so nothing referencing this Ctx outlives it.
  std::vector<sim::ThreadCtx*> chaos;
};

/// Issues one sync through `fd` and records it in the trace iff it returns
/// success. Spawned detached for the close-during-sync chaos path and
/// awaited inline everywhere else, so it takes everything by pointer.
sim::Task do_sync(Ctx* ctx, FileTrace* f, api::SyncPolicy policy, api::Fd fd,
                  SyncPick pick, std::uint32_t writer) {
  TraceSync s;
  s.call = resolved_call(pick, policy);
  s.writer = writer;
  s.settled_size_at_start = f->settled_size;
  s.name_idx_at_start = f->rel_names.size() - 1;
  s.unlinked_at_start = f->unlinked;
  s.start_tick = ctx->trace.next_tick();
  api::Status st{};
  if (pick.is_intent) {
    st = co_await ctx->vfs.sync(fd, pick.intent);
  } else {
    switch (pick.direct) {
      case api::Syscall::kFsync:
        st = co_await ctx->vfs.fsync(fd);
        break;
      case api::Syscall::kFdatasync:
        st = co_await ctx->vfs.fdatasync(fd);
        break;
      case api::Syscall::kFbarrier:
        st = co_await ctx->vfs.fbarrier(fd);
        break;
      case api::Syscall::kFdatabarrier:
        st = co_await ctx->vfs.fdatabarrier(fd);
        break;
      default:
        co_return;
    }
  }
  if (!st.ok()) co_return;  // e.g. EBADF when chaos closed fd first
  s.done_tick = ctx->trace.next_tick();
  f->syncs.push_back(s);
  ++ctx->trace.syncs_done;
}

/// Records a completed write's pages into the trace. The page-cache version
/// read here may already be a later concurrent writer's — sound, see the
/// TraceWrite comment.
void record_write(Ctx& ctx, FileTrace& f, std::uint32_t writer,
                  std::uint64_t start_tick, std::uint32_t page,
                  std::uint32_t npages) {
  const std::uint64_t done = ctx.trace.next_tick();
  for (std::uint32_t i = 0; i < npages; ++i) {
    const std::uint32_t p = page + i;
    const fs::PageCache::PageState* st =
        ctx.vol.fs().page_cache().find(f.inode->ino, p);
    BIO_CHECK_MSG(st != nullptr, "concurrent writer lost its page");
    f.writes.push_back(TraceWrite{f.inode->lba_of_page(p), st->version, p,
                                  start_tick, done, writer});
  }
  f.settled_size = std::max(f.settled_size, page + npages);
  ++ctx.trace.ops_done;
}

sim::Task writer_body(Ctx* ctxp, std::vector<std::size_t> my_files,
                      std::uint32_t w, sim::Rng rng) {
  Ctx& ctx = *ctxp;
  ConcurrentTrace& trace = ctx.trace;
  const api::SyncPolicy base_policy =
      api::SyncPolicy::for_stack(ctx.vol.kind());

  // Every writer opens its OWN descriptor for every file it touches —
  // independent fds over shared inodes are the point of this workload.
  // Earlier-spawned writers may already have churned the namespace, so an
  // unlinked (or displaced) file is skipped: opening its *name* now would
  // bind the descriptor to whichever file took the name over. The check is
  // race-free because open() of an existing name never suspends.
  std::vector<api::File> fds(my_files.size());
  for (std::size_t i = 0; i < my_files.size(); ++i) {
    FileTrace& f = trace.files[my_files[i]];
    if (f.unlinked) continue;
    api::Result<api::File> r =
        co_await ctx.vfs.open(ctx.prefix + f.rel_name(), {});
    if (r.ok()) fds[i] = r.value();
  }

  auto policy_of = [&](const FileTrace& f) {
    // Setup pins the dsync row on shared file 0 of OptFS volumes; every
    // other file runs the stack's substitution-table row.
    return (ctx.vol.kind() == core::StackKind::kOptFs && f.shared &&
            &f == &trace.files.front())
               ? api::SyncPolicy::optfs_dsync()
               : base_policy;
  };
  auto fd_of = [&](std::size_t i) -> api::Fd {
    // The writer's own descriptor, or the shared anchor when fd churn (or
    // an unlinked name) left the writer without one.
    const FileTrace& f = trace.files[my_files[i]];
    return fds[i].valid() ? fds[i].fd() : f.anchor.fd();
  };

  for (std::uint32_t op = 0; op < ctx.p.ops_per_writer; ++op) {
    // Bias towards shared files: cross-writer interleaving is the point.
    std::size_t li = 0;
    if (rng.chance(0.55)) {
      li = static_cast<std::size_t>(rng.uniform(0, kSharedFiles - 1));
    } else {
      li = static_cast<std::size_t>(
          rng.uniform(0, my_files.size() - 1));
    }
    FileTrace& f = trace.files[my_files[li]];
    const api::Fd fd = fd_of(li);
    const int dice = static_cast<int>(rng.uniform(0, 99));

    if (dice < 34) {
      // Positional write, 1-3 pages anywhere in the extent.
      const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(1, 3));
      const std::uint32_t page = static_cast<std::uint32_t>(
          rng.uniform(0, kWriterExtentBlocks - n));
      const std::uint64_t t0 = trace.next_tick();
      api::Result<std::uint32_t> r = co_await ctx.vfs.pwrite(fd, page, n);
      if (r.ok()) record_write(ctx, f, w, t0, page, r.value());
    } else if (dice < 46) {
      // O_APPEND-style write at EOF; concurrent appenders land disjoint.
      const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(1, 2));
      const std::uint64_t t0 = trace.next_tick();
      api::Result<std::uint32_t> r = co_await ctx.vfs.append(fd, n);
      if (r.ok()) {
        // The write landed at (post-append offset - npages); reading it
        // back here is race-free: no suspension since append returned.
        const std::uint64_t off = ctx.vfs.offset(fd).value();
        record_write(ctx, f, w,
                     t0, static_cast<std::uint32_t>(off) - r.value(),
                     r.value());
      }
    } else if (dice < 72) {
      // The sync matrix — sometimes through the shared anchor descriptor,
      // so acked-durability attribution crosses fds.
      const SyncPick pick = ctx.matrix[static_cast<std::size_t>(
          rng.uniform(0, ctx.matrix.size() - 1))];
      const api::Fd sfd = rng.chance(0.25) ? f.anchor.fd() : fd;
      co_await do_sync(&ctx, &f, policy_of(f), sfd, pick, w);
    } else if (dice < 80) {
      // Rename — mostly to a fresh name, sometimes a POSIX replace-rename
      // displacing another live file's name.
      if (!f.unlinked && !f.ns_busy) {
        f.ns_busy = true;
        FileTrace* victim = nullptr;
        if (rng.chance(0.3) &&
            trace.unlinks < static_cast<std::uint32_t>(
                                trace.files.size()) / 2) {
          FileTrace& v = trace.files[static_cast<std::size_t>(
              rng.uniform(0, trace.files.size() - 1))];
          if (&v != &f && !v.unlinked && !v.ns_busy) victim = &v;
        }
        if (victim != nullptr) victim->ns_busy = true;
        const std::string next =
            victim != nullptr ? victim->rel_name()
                              : f.rel_names.front() + ".r" +
                                    std::to_string(f.rel_names.size());
        api::must(co_await ctx.vfs.rename(ctx.prefix + f.rel_name(),
                                          ctx.prefix + next));
        f.rel_names.push_back(next);
        ++trace.renames;
        if (victim != nullptr) {
          victim->unlinked = true;
          victim->ns_busy = false;
          ++trace.unlinks;
        }
        f.ns_busy = false;
      }
    } else if (dice < 84) {
      if (!f.unlinked && !f.ns_busy &&
          trace.unlinks <
              static_cast<std::uint32_t>(trace.files.size()) / 2) {
        f.ns_busy = true;
        api::must(co_await ctx.vfs.unlink(ctx.prefix + f.rel_name()));
        f.unlinked = true;
        f.ns_busy = false;
        ++trace.unlinks;
      }
    } else if (dice < 92) {
      // fd churn: close the writer's own descriptor and reopen by the
      // current name. 50%: close while a sync through that fd is still
      // suspended (the fd-lifecycle edge the vnode pins must survive).
      if (fds[li].valid()) {
        if (rng.chance(0.5)) {
          const SyncPick pick = ctx.matrix[static_cast<std::size_t>(
              rng.uniform(0, ctx.matrix.size() - 1))];
          // iolint: detached-owner(setup joins ctx.chaos after the writers
          // finish; ctx and the Shared file records outlive every sync)
          ctx.chaos.push_back(&ctx.vol.sim().spawn(
              "conc:chaos",
              do_sync(&ctx, &f, policy_of(f), fds[li].fd(), pick, w)));
          co_await ctx.vol.sim().yield();  // let the sync pin the vnode
          ++trace.closes_during_sync;
        }
        api::must(fds[li].close());
        if (!f.unlinked) {
          api::Result<api::File> r =
              co_await ctx.vfs.open(ctx.prefix + f.rel_name(), {});
          if (r.ok()) fds[li] = r.value();
        }
        ++trace.fd_cycles;
      }
    }
    if (rng.chance(0.35))
      co_await ctx.vol.sim().delay(rng.uniform(1, 400) * 1_us);
    if (rng.chance(0.06))
      co_await ctx.vol.sim().delay(rng.uniform(2'000, 6'000) * 1_us);
  }
  ++trace.writers_finished;
}

sim::Task setup_and_run(std::unique_ptr<Ctx> ctx) {
  ConcurrentTrace& trace = ctx->trace;
  const ConcurrentWritersParams& p = ctx->p;
  // Never resized again: FileTrace& stay stable for the whole run.
  trace.files.resize(kSharedFiles + p.writers * kPrivateFiles);
  trace.writers_total = p.writers;
  for (std::uint32_t i = 0; i < kSharedFiles; ++i) {
    trace.files[i].rel_names.push_back("s" + std::to_string(i));
    trace.files[i].shared = true;
  }
  for (std::uint32_t w = 0; w < p.writers; ++w)
    for (std::uint32_t j = 0; j < kPrivateFiles; ++j)
      trace.files[kSharedFiles + w * kPrivateFiles + j].rel_names.push_back(
          "w" + std::to_string(w) + ".p" + std::to_string(j));
  co_await create_and_settle(ctx->vol, ctx->vfs, ctx->prefix, trace);
  // OptFS: shared file 0 runs the dsync policy row, so the matrix's
  // durability intent actually exercises dsync's data-durable-at-return.
  if (ctx->vol.kind() == core::StackKind::kOptFs)
    api::must(ctx->vfs.set_policy(trace.files[0].anchor.fd(),
                                  api::SyncPolicy::optfs_dsync()));

  sim::Rng base(ctx->seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<sim::ThreadCtx*> threads;
  for (std::uint32_t w = 0; w < p.writers; ++w) {
    std::vector<std::size_t> my_files;
    for (std::uint32_t i = 0; i < kSharedFiles; ++i) my_files.push_back(i);
    for (std::uint32_t j = 0; j < kPrivateFiles; ++j)
      my_files.push_back(kSharedFiles + w * kPrivateFiles + j);
    // iolint: detached-owner(the join loop below waits every writer and
    // chaos task; the Ctx unique_ptr outlives them in this frame)
    threads.push_back(&ctx->vol.sim().spawn(
        "conc:w" + std::to_string(w),
        writer_body(ctx.get(), std::move(my_files), w, base.fork())));
  }
  // Keep the Ctx alive until every writer and every detached chaos sync
  // has finished (more chaos tasks cannot appear once the writers are
  // done, so the plain index loop below sees all of them).
  for (sim::ThreadCtx* t : threads) co_await ctx->vol.sim().join(*t);
  for (std::size_t i = 0; i < ctx->chaos.size(); ++i)
    co_await ctx->vol.sim().join(*ctx->chaos[i]);
}

}  // namespace

sim::Task create_and_settle(core::Volume& vol, api::Vfs& vfs,
                            std::string prefix, ConcurrentTrace& trace) {
  for (FileTrace& f : trace.files) {
    api::OpenOptions oo;
    oo.create = true;
    oo.extent_blocks = kWriterExtentBlocks;
    f.anchor = api::must(co_await vfs.open(prefix + f.rel_name(), oo));
    f.inode = vol.fs().lookup(f.rel_name());
    BIO_CHECK(f.inode != nullptr);
  }
  const std::uint64_t s0 = trace.next_tick();
  api::must(co_await vfs.fsync(trace.files.back().anchor.fd()));
  const std::uint64_t s1 = trace.next_tick();
  TraceSync settle;
  settle.call = api::Syscall::kFsync;
  settle.start_tick = s0;
  settle.done_tick = s1;
  settle.writer = ~std::uint32_t{0};
  for (FileTrace& f : trace.files) {
    f.syncs.push_back(settle);
    ++trace.syncs_done;
  }
}

void spawn_concurrent_writers(core::Volume& vol, api::Vfs& vfs,
                              std::string prefix,
                              const ConcurrentWritersParams& params,
                              std::uint64_t seed, ConcurrentTrace& trace) {
  auto ctx = std::make_unique<Ctx>(Ctx{vol, vfs, std::move(prefix), params,
                                       seed, trace, sync_matrix(vol.kind()),
                                       {}});
  vol.sim().spawn("conc:setup", setup_and_run(std::move(ctx)));
}

ConcurrentWritersResult run_concurrent_writers(
    core::Stack& stack, const ConcurrentWritersParams& params) {
  stack.start();
  api::Vfs vfs(stack);
  core::Volume& vol = stack.volume(0);
  const std::string prefix =
      vol.name().empty() ? std::string() : "/" + vol.name() + "/";
  ConcurrentTrace trace;
  const sim::SimTime t0 = stack.sim().now();
  spawn_concurrent_writers(vol, vfs, prefix, params, /*seed=*/1, trace);
  stack.sim().run();

  ConcurrentWritersResult r;
  r.ops_done = trace.ops_done;
  r.syncs_done = trace.syncs_done;
  r.elapsed = stack.sim().now() - t0;
  if (r.elapsed > 0)
    r.ops_per_sec = static_cast<double>(r.ops_done + r.syncs_done) /
                    sim::to_seconds(r.elapsed);
  return r;
}

}  // namespace bio::wl
