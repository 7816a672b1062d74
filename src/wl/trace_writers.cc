#include "wl/trace_writers.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "api/ring.h"
#include "fs/page_cache.h"
#include "sim/rng.h"

namespace bio::wl {
namespace {

using namespace bio::sim::literals;

/// Files every writer writes through its own descriptor; each writer also
/// has one private file.
constexpr std::uint32_t kSharedFiles = 2;
/// Files per volume at least: with few writers the shared set grows, so a
/// lone writer still has a namespace to churn.
constexpr std::uint32_t kMinFiles = 5;
/// Ring backend: linked chains (each 2-4 sqes glued by kSqeLink) and
/// unlinked sqes (free-running writes/reads/syncs) per batch.
constexpr std::uint32_t kChainsPerBatch = 3;
constexpr std::uint32_t kUnlinkedPerBatch = 3;

/// One sync-matrix row the writer can roll: either a policy-resolved intent
/// or a direct barrier/sync syscall.
struct SyncPick {
  bool is_intent = false;
  api::SyncIntent intent = api::SyncIntent::kFullSync;
  api::Syscall direct = api::Syscall::kFsync;
};

/// The three intents, then every syscall the volume's journal supports, in
/// `Syscall` order (fs::supports is the one capability matrix).
std::vector<SyncPick> sync_matrix(const core::Volume& vol) {
  const fs::JournalKind journal = vol.config().fs.journal;
  std::vector<SyncPick> m = {
      {true, api::SyncIntent::kOrder, {}},
      {true, api::SyncIntent::kDurability, {}},
      {true, api::SyncIntent::kFullSync, {}},
  };
  for (auto c = api::Syscall::kFsync; c <= api::Syscall::kDsync;
       c = static_cast<api::Syscall>(static_cast<std::uint8_t>(c) + 1))
    if (fs::supports(c, journal)) m.push_back({false, {}, c});
  return m;
}

/// Everything the writers share. Owned by the setup task's frame, which
/// joins every writer and every detached chaos sync before it finishes.
struct Ctx {
  core::Volume& vol;
  api::Vfs& vfs;
  std::string prefix;
  ConcurrentWritersParams p;
  std::uint64_t seed;
  ConcurrentTrace& trace;
  std::vector<SyncPick> matrix;
  std::uint32_t shared_files = 0;
  bool ring = false;
  /// Direct backend: EIO/EROFS are legal results.
  bool fault_tolerant = false;
  /// Ring backend, TEST ONLY: rings ignore their link flags.
  bool ignore_links = false;
  /// A mutation or sync returned EROFS: the volume degraded read-only and
  /// every writer stops mutating.
  bool read_only = false;
  /// Detached close-during-sync tasks; setup joins them after the writers
  /// so nothing referencing this Ctx outlives it.
  std::vector<sim::Thread> chaos;
};

/// A sync about to start on `f`: the snapshot of what it may promise.
TraceSync begin_sync(ConcurrentTrace& trace, const FileTrace& f,
                     api::Syscall call, std::uint32_t writer) {
  TraceSync s;
  s.call = call;
  s.writer = writer;
  s.settled_size_at_start = f.settled_size;
  s.name_idx_at_start = f.rel_names.size() - 1;
  s.unlinked_at_start = f.unlinked;
  s.start_tick = trace.next_tick();
  return s;
}

/// Records `s` as returned on `f`; returns its index in f.syncs.
std::size_t finish_sync(ConcurrentTrace& trace, FileTrace& f, TraceSync s) {
  s.done_tick = trace.next_tick();
  f.syncs.push_back(std::move(s));
  ++trace.syncs_done;
  return f.syncs.size() - 1;
}

/// Whether a sync succeeded. EIO/EROFS are legal only in fault-tolerant
/// runs — counted, and EROFS stops every writer; any other error (EBADF:
/// chaos closed the fd first) promised nothing.
bool sync_ok(Ctx& ctx, api::Status st) {
  if (st.ok()) return true;
  if (st.error() == api::Errno::kIo || st.error() == api::Errno::kRoFs) {
    BIO_CHECK_MSG(ctx.fault_tolerant,
                  "trace writer: sync failed on a fault-free run");
    ++ctx.trace.syncs_failed;
    if (st.error() == api::Errno::kRoFs) ctx.read_only = true;
  }
  return false;
}

/// Whether a namespace op succeeded; the only legal failure is EROFS in a
/// fault-tolerant run, which stops every writer.
bool namespace_ok(Ctx& ctx, api::Status st) {
  if (st.ok()) return true;
  BIO_CHECK_MSG(ctx.fault_tolerant && st.error() == api::Errno::kRoFs,
                "trace writer: namespace op failed unexpectedly");
  ctx.read_only = true;
  return false;
}

/// Records a completed write's pages into the trace; returns the index of
/// its first page in f.writes. The page-cache version read here may
/// already be a later concurrent writer's — sound, see TraceWrite.
std::size_t record_write(Ctx& ctx, FileTrace& f, std::uint32_t writer,
                         std::uint64_t start_tick, std::uint32_t page,
                         std::uint32_t npages) {
  const std::uint64_t done = ctx.trace.next_tick();
  const std::size_t first = f.writes.size();
  for (std::uint32_t i = 0; i < npages; ++i) {
    const std::uint32_t p = page + i;
    const fs::PageCache::PageState* st =
        ctx.vol.fs().page_cache().find(f.inode->ino, p);
    BIO_CHECK_MSG(st != nullptr, "trace writer lost its page");
    f.writes.push_back(TraceWrite{f.inode->lba_of_page(p), st->version, p,
                                  start_tick, done, writer});
  }
  f.settled_size = std::max(f.settled_size, page + npages);
  ++ctx.trace.ops_done;
  return first;
}

/// Issues one sync through `fd` and records it in the trace iff it returns
/// success. Spawned detached for the close-during-sync chaos path and
/// awaited inline everywhere else, so it takes everything by pointer.
sim::Task do_sync(Ctx* ctx, FileTrace* f, api::Fd fd, SyncPick pick,
                  std::uint32_t writer) {
  TraceSync s = begin_sync(
      ctx->trace, *f,
      pick.is_intent
          ? api::must(ctx->vfs.policy_of(fd)).resolve(pick.intent)
          : pick.direct,
      writer);
  const api::Status st = pick.is_intent
                            ? co_await ctx->vfs.sync(fd, pick.intent)
                            : co_await ctx->vfs.sync(fd, pick.direct);
  if (sync_ok(*ctx, st)) finish_sync(ctx->trace, *f, std::move(s));
}

/// One writer's own view: the files it touches (the shared ones first,
/// then its private ones), its own descriptor per file and its RNG stream.
struct Writer {
  Ctx& ctx;
  std::uint32_t id;
  sim::Rng rng;
  std::vector<std::size_t> files;
  std::vector<api::File> fds;

  FileTrace& file(std::size_t li) { return ctx.trace.files[files[li]]; }
  /// The writer's own descriptor, or the file's anchor when fd churn (or
  /// an unlinked name) left the writer without one.
  api::Fd fd(std::size_t li) {
    return fds[li].valid() ? fds[li].fd() : file(li).anchor.fd();
  }
  /// Biased towards shared files: cross-writer interleaving is the point.
  std::size_t pick() {
    if (rng.chance(0.55))
      return static_cast<std::size_t>(rng.uniform(0, ctx.shared_files - 1));
    return static_cast<std::size_t>(rng.uniform(0, files.size() - 1));
  }
};

/// Opens the writer's own descriptor for file `li` by its current name
/// unless it holds one. An unlinked (or displaced) file is skipped:
/// opening its *name* now would bind the descriptor to whichever file took
/// the name over. The check is race-free because open() of an existing
/// name never suspends.
sim::Task reopen(Writer& w, std::size_t li) {
  const FileTrace& f = w.file(li);
  if (w.fds[li].valid() || f.unlinked) co_return;
  api::Result<api::File> r =
      co_await w.ctx.vfs.open(w.ctx.prefix + f.rel_name(), {});
  if (r.ok()) w.fds[li] = r.value();
}

/// Rename — mostly to a fresh name, sometimes a POSIX replace-rename
/// displacing another live file's name.
sim::Task rename_file(Writer& w, FileTrace& f) {
  Ctx& ctx = w.ctx;
  ConcurrentTrace& trace = ctx.trace;
  if (f.unlinked || f.ns_busy) co_return;
  f.ns_busy = true;
  FileTrace* victim = nullptr;
  if (w.rng.chance(0.3) &&
      trace.unlinks < static_cast<std::uint32_t>(trace.files.size()) / 2) {
    FileTrace& v = trace.files[static_cast<std::size_t>(
        w.rng.uniform(0, trace.files.size() - 1))];
    if (&v != &f && !v.unlinked && !v.ns_busy) victim = &v;
  }
  if (victim != nullptr) victim->ns_busy = true;
  const std::string next =
      victim != nullptr
          ? victim->rel_name()
          : f.rel_names.front() + ".r" + std::to_string(f.rel_names.size());
  const api::Status st =
      co_await ctx.vfs.rename(ctx.prefix + f.rel_name(), ctx.prefix + next);
  f.ns_busy = false;
  if (victim != nullptr) victim->ns_busy = false;
  if (!namespace_ok(ctx, st)) co_return;
  f.rel_names.push_back(next);
  ++trace.renames;
  if (victim != nullptr) {
    victim->unlinked = true;
    ++trace.unlinks;
  }
}

/// Unlink (at most half the files); the anchor keeps the file writable
/// and its extent alive for the rest of the run.
sim::Task unlink_file(Writer& w, FileTrace& f) {
  Ctx& ctx = w.ctx;
  ConcurrentTrace& trace = ctx.trace;
  if (f.unlinked || f.ns_busy ||
      trace.unlinks >= static_cast<std::uint32_t>(trace.files.size()) / 2)
    co_return;
  f.ns_busy = true;
  const api::Status st = co_await ctx.vfs.unlink(ctx.prefix + f.rel_name());
  f.ns_busy = false;
  if (!namespace_ok(ctx, st)) co_return;
  f.unlinked = true;
  ++trace.unlinks;
}

// ---- direct backend -----------------------------------------------------------

/// One op through direct api::Vfs calls.
sim::Task direct_op(Writer& w) {
  Ctx& ctx = w.ctx;
  ConcurrentTrace& trace = ctx.trace;
  sim::Rng& rng = w.rng;
  const std::size_t li = w.pick();
  FileTrace& f = w.file(li);
  const api::Fd fd = w.fd(li);
  const int dice = static_cast<int>(rng.uniform(0, 99));

  if (dice < 34) {
    // Positional write, 1-3 pages anywhere in the extent.
    const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(1, 3));
    const std::uint32_t page = static_cast<std::uint32_t>(
        rng.uniform(0, kWriterExtentBlocks - n));
    const std::uint64_t t0 = trace.next_tick();
    api::Result<std::uint32_t> r = co_await ctx.vfs.pwrite(fd, page, n);
    if (r.ok())
      record_write(ctx, f, w.id, t0, page, r.value());
    else if (r.error() == api::Errno::kRoFs)
      ctx.read_only = true;
  } else if (dice < 46) {
    // O_APPEND-style write at EOF; concurrent appenders land disjoint.
    const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(1, 2));
    const std::uint64_t t0 = trace.next_tick();
    api::Result<std::uint32_t> r = co_await ctx.vfs.append(fd, n);
    if (r.ok()) {
      // The write landed at (post-append offset - npages); reading it
      // back here is race-free: no suspension since append returned.
      const std::uint64_t off = ctx.vfs.offset(fd).value();
      record_write(ctx, f, w.id, t0,
                   static_cast<std::uint32_t>(off) - r.value(), r.value());
    } else if (r.error() == api::Errno::kRoFs) {
      ctx.read_only = true;
    }
  } else if (dice < 72) {
    // The sync matrix — sometimes through the shared anchor descriptor,
    // so acked-durability attribution crosses fds.
    const SyncPick pick = ctx.matrix[static_cast<std::size_t>(
        rng.uniform(0, ctx.matrix.size() - 1))];
    const api::Fd sfd = rng.chance(0.25) ? f.anchor.fd() : fd;
    co_await do_sync(&ctx, &f, sfd, pick, w.id);
  } else if (dice < 80) {
    co_await rename_file(w, f);
  } else if (dice < 84) {
    co_await unlink_file(w, f);
  } else if (dice < 92) {
    // fd churn: close the writer's own descriptor and reopen by the
    // current name. 50%: close while a sync through that fd is still
    // suspended (the fd-lifecycle edge the vnode pins must survive).
    if (w.fds[li].valid()) {
      if (rng.chance(0.5)) {
        const SyncPick pick = ctx.matrix[static_cast<std::size_t>(
            rng.uniform(0, ctx.matrix.size() - 1))];
        // iolint: detached-owner(setup joins ctx.chaos after the writers
        // finish; ctx and the FileTrace records outlive every sync)
        ctx.chaos.push_back(ctx.vol.sim().spawn(
            "wl:chaos", do_sync(&ctx, &f, w.fds[li].fd(), pick, w.id)));
        co_await ctx.vol.sim().yield();  // let the sync pin the vnode
        ++trace.closes_during_sync;
      }
      api::must(w.fds[li].close());
      co_await reopen(w, li);
      ++trace.fd_cycles;
    }
  }
}

// ---- ring backend -------------------------------------------------------------

/// Chain bookkeeping: the submission-structure claims of one linked chain,
/// accumulated as its members complete (in whatever order a buggy ring
/// runs them — that is the point; see TraceSync::chain_covered).
struct ChainRec {
  std::vector<std::size_t> covered;
  std::vector<std::size_t> successors;
  /// Index into f->syncs once the chain's sync completed; later-completing
  /// members then append straight to the recorded sync's claim vectors.
  std::ptrdiff_t sidx = -1;
};

/// One submitted sqe awaiting completion, keyed by user_data.
struct Pending {
  api::RingOp op = api::RingOp::kNop;
  FileTrace* f = nullptr;
  std::uint32_t page = 0;
  /// The syscall a sync sqe stands for (kNone for data ops).
  api::Syscall call = api::Syscall::kNone;
  ChainRec* rec = nullptr;
  /// Write linked *after* the chain's sync (vs covered by it).
  bool is_successor = false;
  /// Dispatch resolved the sqe's fd *number* to a different inode than the
  /// one the sqe was built for: fd churn closed it and a concurrent
  /// reopen recycled the slot (the classic io_uring stale-fd hazard). The
  /// op is real IO but promises nothing about the intended file, so its
  /// trace claims are dropped.
  bool aliased = false;
  /// Stamped by the start hook (synchronous in the chain driver): the
  /// write's start tick, or the sync's start snapshot.
  std::uint64_t start_tick = 0;
  TraceSync sync;
};

/// A writer's ring plus the bookkeeping its completion hooks fill in.
/// Lives in the writer's frame; the hooks capture `this`, so it never
/// moves.
class RingSubmitter {
 public:
  explicit RingSubmitter(Writer& w) : w_(w), ring_(w.ctx.vfs) {
    if (w.ctx.ignore_links) ring_.set_ignore_links_for_test(true);
    api::must(ring_.register_buffers({4, 4, 4, 4}));
    ring_.set_on_op_start([this](const api::Sqe& sqe) { on_start(sqe); });
    ring_.set_on_op_complete([this](const api::Sqe& sqe, std::int32_t res) {
      on_complete(sqe, res);
    });
  }
  RingSubmitter(const RingSubmitter&) = delete;
  RingSubmitter& operator=(const RingSubmitter&) = delete;

  /// One op: a batch of linked chains and unlinked sqes, fd churn while
  /// it is in flight, an out-of-order reap, then reopen and namespace
  /// churn (direct Vfs calls; the ring carries data and sync ops only, as
  /// io_uring did before unlinkat support).
  sim::Task batch() {
    Writer& w = w_;
    sim::Rng& rng = w.rng;
    // The stack's order point (its substitution-table row) or fsync.
    const api::Syscall order = api::SyncPolicy::for_stack(w.ctx.vol.kind())
                                   .resolve(api::SyncIntent::kOrder);
    // Linked chains: 1-2 covered writes, an order/durability sync, and
    // sometimes a successor write gated behind the sync.
    for (std::uint32_t c = 0; c < kChainsPerBatch; ++c) {
      const std::size_t li = w.pick();
      ChainRec* rec = &chains_.emplace_back();
      const std::uint32_t covered = rng.chance(0.4) ? 2 : 1;
      for (std::uint32_t i = 0; i < covered; ++i)
        push_write(li, rec, /*successor=*/false, /*link=*/true);
      const api::Syscall call =
          rng.chance(0.6) ? order : api::Syscall::kFsync;
      const bool tail = rng.chance(0.6);
      push_sync(li, call, rec, tail);
      if (tail) push_write(li, rec, /*successor=*/true, /*link=*/false);
    }
    // Unlinked sqes: free-running writes, reads and syncs.
    for (std::uint32_t u = 0; u < kUnlinkedPerBatch; ++u) {
      const std::size_t li = w.pick();
      const int dice = static_cast<int>(rng.uniform(0, 99));
      if (dice < 55) {
        push_write(li, nullptr, false, false);
      } else if (dice < 80) {
        push(li, api::RingOp::kRead, 0,
             static_cast<std::uint32_t>(rng.uniform(1, 4)), false, {});
      } else {
        push_sync(li, rng.chance(0.5) ? order : api::Syscall::kFsync,
                  nullptr, false);
      }
    }

    const std::uint32_t submitted = ring_.submit();

    // fd churn: occasionally close one of this writer's descriptors while
    // its sqes are still in flight — undispatched chain members then
    // surface as -EBADF cqes and cancel their chain tails.
    if (rng.chance(0.18)) {
      const std::size_t li = w.pick();
      if (w.fds[li].valid()) {
        api::must(w.fds[li].close());
        ++w.ctx.trace.fd_cycles;
      }
    }
    for (std::uint32_t i = 0; i < submitted; ++i)
      (void)co_await ring_.wait_cqe();
    chains_.clear();  // fully reaped: no completion references them now

    for (std::size_t li = 0; li < w.files.size(); ++li)
      co_await reopen(w, li);
    if (rng.chance(0.3)) {
      FileTrace& f = w.file(w.pick());
      if (rng.chance(0.7))
        co_await rename_file(w, f);
      else
        co_await unlink_file(w, f);
    }
  }

 private:
  void push(std::size_t li, api::RingOp op, std::uint32_t page,
            std::uint32_t npages, bool link, Pending p) {
    api::Sqe sqe;
    sqe.op = op;
    sqe.fd = w_.fd(li);
    sqe.page = page;
    sqe.npages = npages;
    sqe.flags = link ? api::kSqeLink : std::uint8_t{0};
    sqe.user_data = next_ud_++;
    if (op == api::RingOp::kWrite)
      sqe.buf_index = static_cast<std::int32_t>(w_.rng.uniform(0, 3));
    p.op = op;
    p.f = &w_.file(li);
    p.page = page;
    pending_[sqe.user_data] = std::move(p);
    BIO_CHECK(ring_.push(sqe));
  }

  void push_write(std::size_t li, ChainRec* rec, bool successor, bool link) {
    const auto n = static_cast<std::uint32_t>(w_.rng.uniform(1, 3));
    const auto page = static_cast<std::uint32_t>(
        w_.rng.uniform(0, kWriterExtentBlocks - n));
    Pending p;
    p.rec = rec;
    p.is_successor = successor;
    push(li, api::RingOp::kWrite, page, n, link, std::move(p));
  }

  void push_sync(std::size_t li, api::Syscall call, ChainRec* rec,
                 bool link) {
    Pending p;
    p.call = call;
    p.rec = rec;
    push(li, api::ring_op_for(call), 0, 0, link, std::move(p));
  }

  void on_start(const api::Sqe& sqe) {
    auto it = pending_.find(sqe.user_data);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    // The start hook runs synchronously in the chain driver, immediately
    // before the Vfs call resolves the fd — this is exactly the binding
    // the op will act on.
    const api::Result<std::uint32_t> ino = w_.ctx.vfs.ino_of(sqe.fd);
    p.aliased = !ino.ok() || ino.value() != p.f->inode->ino;
    if (p.call != api::Syscall::kNone)
      p.sync = begin_sync(w_.ctx.trace, *p.f, p.call, w_.id);
    else
      p.start_tick = w_.ctx.trace.next_tick();
  }

  void on_complete(const api::Sqe& sqe, std::int32_t res) {
    auto it = pending_.find(sqe.user_data);
    if (it == pending_.end()) return;
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (res < 0) return;    // failed/cancelled sqes promise nothing
    if (p.aliased) return;  // hit a recycled fd: wrong file, no claims
    FileTrace& f = *p.f;
    if (p.op == api::RingOp::kWrite) {
      const std::size_t first =
          record_write(w_.ctx, f, w_.id, p.start_tick, p.page,
                       static_cast<std::uint32_t>(res));
      if (p.rec == nullptr) return;
      for (std::size_t idx = first; idx < f.writes.size(); ++idx) {
        (p.is_successor ? p.rec->successors : p.rec->covered).push_back(idx);
        if (p.rec->sidx >= 0) {
          // The chain's sync already completed (only possible when links
          // are being ignored): keep its recorded claims complete.
          TraceSync& s = f.syncs[static_cast<std::size_t>(p.rec->sidx)];
          (p.is_successor ? s.chain_successors : s.chain_covered)
              .push_back(idx);
        }
      }
    } else if (p.call != api::Syscall::kNone) {
      if (p.rec != nullptr) {
        p.sync.chain_covered = p.rec->covered;
        p.sync.chain_successors = p.rec->successors;
      }
      const std::size_t sidx =
          finish_sync(w_.ctx.trace, f, std::move(p.sync));
      if (p.rec != nullptr) p.rec->sidx = static_cast<std::ptrdiff_t>(sidx);
    }
    // reads: exercised for concurrency, nothing to claim
  }

  Writer& w_;
  api::Ring ring_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  /// deque: stable ChainRec addresses across push_back within a batch.
  std::deque<ChainRec> chains_;
  std::uint64_t next_ud_ = 1;
};

// ---- the driver ---------------------------------------------------------------

sim::Task writer_body(Ctx* ctxp, std::uint32_t id, sim::Rng rng) {
  Ctx& ctx = *ctxp;
  Writer w{ctx, id, rng, {}, {}};
  for (std::uint32_t i = 0; i < ctx.shared_files; ++i) w.files.push_back(i);
  w.files.push_back(ctx.shared_files + id);  // the private file
  // Every writer opens its OWN descriptor for every file it touches —
  // independent fds over shared inodes are the point of this workload.
  // Earlier-spawned writers may already have churned the namespace.
  w.fds.resize(w.files.size());
  for (std::size_t li = 0; li < w.files.size(); ++li) co_await reopen(w, li);

  std::optional<RingSubmitter> ring;
  if (ctx.ring) ring.emplace(w);
  for (std::uint32_t op = 0; op < ctx.p.ops_per_writer; ++op) {
    if (ctx.read_only) break;  // degraded read-only: stop mutating
    if (ring)
      co_await ring->batch();
    else
      co_await direct_op(w);
    if (w.rng.chance(0.35))
      co_await ctx.vol.sim().delay(w.rng.uniform(1, 400) * 1_us);
    if (w.rng.chance(0.06))
      co_await ctx.vol.sim().delay(w.rng.uniform(2'000, 6'000) * 1_us);
  }
  ++ctx.trace.writers_finished;
}

/// Creates every file in index order, each pinned by its anchor
/// descriptor, then settles the namespace with one direct fsync of the
/// newest file, recorded as an fsync fact on every file. Transactions
/// retire durably in commit order, so waiting the newest create's
/// transaction covers every earlier create even when the journal's
/// transaction-size bound split them; a direct fsync because a
/// policy-resolved sync would be fbarrier on BFS-OD and promise less than
/// the record claims.
sim::Task create_and_settle(Ctx& ctx) {
  ConcurrentTrace& trace = ctx.trace;
  for (FileTrace& f : trace.files) {
    api::OpenOptions oo;
    oo.create = true;
    oo.extent_blocks = kWriterExtentBlocks;
    f.anchor = api::must(co_await ctx.vfs.open(ctx.prefix + f.rel_name(), oo));
    f.inode = ctx.vol.fs().lookup(f.rel_name());
    BIO_CHECK(f.inode != nullptr);
  }
  const TraceSync settle = begin_sync(trace, trace.files.back(),
                                      api::Syscall::kFsync, ~std::uint32_t{0});
  const api::Status settled = co_await ctx.vfs.sync(
      trace.files.back().anchor.fd(), api::Syscall::kFsync);
  if (!sync_ok(ctx, settled)) co_return;
  for (FileTrace& f : trace.files) finish_sync(trace, f, settle);
}

sim::Task setup_and_run(std::unique_ptr<Ctx> ctx) {
  ConcurrentTrace& trace = ctx->trace;
  const ConcurrentWritersParams& p = ctx->p;
  ctx->shared_files =
      p.writers + kSharedFiles >= kMinFiles ? kSharedFiles
                                            : kMinFiles - p.writers;
  // Never resized again: FileTrace& stay stable for the whole run.
  trace.files.resize(ctx->shared_files + p.writers);
  trace.writers_total = p.writers;
  for (std::uint32_t i = 0; i < ctx->shared_files; ++i) {
    trace.files[i].rel_names.push_back("s" + std::to_string(i));
    trace.files[i].shared = true;
  }
  for (std::uint32_t w = 0; w < p.writers; ++w)
    trace.files[ctx->shared_files + w].rel_names.push_back(
        "w" + std::to_string(w) + ".p0");
  co_await create_and_settle(*ctx);

  sim::Rng base(ctx->seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<sim::Thread> threads;
  for (std::uint32_t w = 0; w < p.writers; ++w)
    // iolint: detached-owner(the join loop below waits every writer and
    // chaos task; the Ctx unique_ptr outlives them in this frame)
    threads.push_back(ctx->vol.sim().spawn(
        "wl:w" + std::to_string(w), writer_body(ctx.get(), w, base.fork())));
  // Keep the Ctx alive until every writer and every detached chaos sync
  // has finished (more chaos tasks cannot appear once the writers are
  // done, so the plain index loop below sees all of them).
  for (const sim::Thread& t : threads) co_await ctx->vol.sim().join(t);
  for (std::size_t i = 0; i < ctx->chaos.size(); ++i)
    co_await ctx->vol.sim().join(ctx->chaos[i]);
}

void spawn_writers(std::unique_ptr<Ctx> ctx) {
  core::Volume& vol = ctx->vol;
  // iolint: detached-owner(the simulator run drives setup, which joins
  // every writer; callers keep vol, vfs and the trace alive for the run)
  vol.sim().spawn("wl:setup", setup_and_run(std::move(ctx)));
}

}  // namespace

void spawn_vfs_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                       const ConcurrentWritersParams& params,
                       std::uint64_t seed, bool fault_tolerant,
                       ConcurrentTrace& trace) {
  spawn_writers(std::make_unique<Ctx>(
      Ctx{vol, vfs, std::move(prefix), params, seed, trace,
          sync_matrix(vol), 0, /*ring=*/false, fault_tolerant,
          /*ignore_links=*/false, false, {}}));
}

void spawn_ring_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                        const ConcurrentWritersParams& params,
                        std::uint64_t seed, bool ignore_links,
                        ConcurrentTrace& trace) {
  spawn_writers(std::make_unique<Ctx>(
      Ctx{vol, vfs, std::move(prefix), params, seed, trace,
          sync_matrix(vol), 0, /*ring=*/true, /*fault_tolerant=*/false,
          ignore_links, false, {}}));
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
  spawn_vfs_writers(vol, vfs, prefix, params, /*seed=*/1,
                    /*fault_tolerant=*/false, trace);
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
