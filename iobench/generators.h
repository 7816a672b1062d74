// iobench's traffic generators. They live here, not in src/wl, so that no
// change to the library can alter the benchmark's inputs; `iobench
// --parity` pins the SQLite and varmail generators to wl::run_sqlite and
// wl::run_varmail bit for bit. All three are closed loops: a client issues
// its next call only when the previous one returned (varmail: when a ring
// slot is free).
//
// Setup calls go through api::must (a failure there is a harness bug);
// measured calls are timed through the Recorder and count unexpected
// errnos instead of aborting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/ring.h"
#include "api/vfs.h"
#include "recorder.h"
#include "sim/rng.h"

namespace iobench {

/// What a generator touches; everything outlives the simulation run.
struct Env {
  core::Stack& stack;
  api::Vfs& vfs;
  Recorder& rec;
  Durability& dur;
  Phase& phase;
};

inline Intent intent_of(api::SyncIntent i) {
  return i == api::SyncIntent::kOrder ? Intent::kOrder : Intent::kDurable;
}

inline Call sync_call(api::Vfs& vfs, const api::File& f,
                      api::SyncIntent intent) {
  return call_of(api::must(vfs.policy_of(f.fd())).resolve(intent));
}

/// Timed pwrite of a file the ledger knows as `id`.
inline sim::TaskOf<bool> timed_pwrite(Env& env, api::File f, std::uint32_t id,
                                      std::uint32_t page, std::uint32_t n,
                                      std::uint32_t op, std::uint32_t track) {
  const Recorder::Token t = env.rec.begin(Call::kPwrite, op, track);
  const api::Result<std::uint32_t> r = co_await f.pwrite(page, n);
  env.rec.end(t, Intent::kNone, r.ok());
  if (!r.ok()) {
    env.rec.unexpected();
    co_return false;
  }
  env.rec.add_user_pages(n);
  env.dur.wrote(id, page + n);
  co_return true;
}

/// Timed policy-resolved sync. A durability point that returns OK acks
/// every page written before it was issued.
inline sim::TaskOf<bool> timed_sync(Env& env, api::File f, std::uint32_t id,
                                    api::SyncIntent intent, Call cls,
                                    std::uint32_t op, std::uint32_t track) {
  const std::uint32_t covers = env.dur.written(id);
  const Recorder::Token t = env.rec.begin(cls, op, track);
  const api::Status s = co_await f.sync(intent);
  env.rec.end(t, intent_of(intent), s.ok());
  if (!s.ok()) {
    env.rec.unexpected();
    co_return false;
  }
  if (intent != api::SyncIntent::kOrder) env.dur.acked(id, covers);
  co_return true;
}

// ---- SQLite PERSIST (sqlite-bfs, sqlite-ext4) -------------------------------

/// The wl::SqliteParams defaults; one op is one transaction.
struct SqliteSpec {
  std::uint64_t txns = 0;
  std::uint32_t db_pages = 4096;
  std::uint32_t db_pages_per_tx = 2;
  std::uint32_t journal_pages_per_tx = 2;
  std::uint32_t journal_extent = 2048;
};

inline constexpr std::uint32_t kSqliteDb = 0;
inline constexpr std::uint32_t kSqliteJournal = 1;
inline std::string sqlite_name(std::uint32_t id) {
  return id == kSqliteDb ? "app.db" : "app.db-journal";
}

/// One SQLite client: populate the database, then PERSIST-mode txns —
/// journal pages, order point; journal header, order point; random db
/// pages, order point; journal header, durability point. Call for call the
/// sequence wl::run_sqlite issues, so the simulated results match it.
inline sim::Task sqlite_client(Env env, SqliteSpec p, sim::Rng rng) {
  api::Vfs& vfs = env.vfs;
  api::File db = api::must(co_await vfs.open(
      sqlite_name(kSqliteDb), {.create = true, .extent_blocks = p.db_pages}));
  for (std::uint32_t off = 0; off < p.db_pages; off += blk::kMaxMergedBlocks) {
    const std::uint32_t n =
        std::min<std::uint32_t>(blk::kMaxMergedBlocks, p.db_pages - off);
    api::must(co_await db.pwrite(off, n));
    api::must(co_await db.fsync());
  }
  api::File journal = api::must(co_await vfs.open(
      sqlite_name(kSqliteJournal),
      {.create = true, .extent_blocks = p.journal_extent}));
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.fsync());
  env.dur.wrote(kSqliteDb, p.db_pages);
  env.dur.acked(kSqliteDb, p.db_pages);
  env.dur.wrote(kSqliteJournal, 1);
  env.dur.acked(kSqliteJournal, 1);

  using api::SyncIntent;
  const Call order_db = sync_call(vfs, db, SyncIntent::kOrder);
  const Call order_j = sync_call(vfs, journal, SyncIntent::kOrder);
  const Call durable_j = sync_call(vfs, journal, SyncIntent::kDurability);
  const std::uint32_t extent = api::must(journal.extent_blocks());
  env.phase.begin();
  std::uint32_t cursor = 1;
  for (std::uint64_t i = 0; i < p.txns; ++i) {
    const std::uint32_t op = env.rec.op_begin(0);
    // The rollback journal is reused per txn: a cursor that wraps within
    // the journal file's extent.
    if (cursor + p.journal_pages_per_tx + 2 >= extent) cursor = 1;
    co_await timed_pwrite(env, journal, kSqliteJournal, cursor,
                          p.journal_pages_per_tx, op, 0);
    cursor += p.journal_pages_per_tx;
    co_await timed_sync(env, journal, kSqliteJournal, SyncIntent::kOrder,
                        order_j, op, 0);
    co_await timed_pwrite(env, journal, kSqliteJournal, 0, 1, op, 0);
    co_await timed_sync(env, journal, kSqliteJournal, SyncIntent::kOrder,
                        order_j, op, 0);
    for (std::uint32_t k = 0; k < p.db_pages_per_tx; ++k) {
      const auto page =
          static_cast<std::uint32_t>(rng.uniform(0, p.db_pages - 1));
      co_await timed_pwrite(env, db, kSqliteDb, page, 1, op, 0);
    }
    co_await timed_sync(env, db, kSqliteDb, SyncIntent::kOrder, order_db, op,
                        0);
    co_await timed_pwrite(env, journal, kSqliteJournal, 0, 1, op, 0);
    co_await timed_sync(env, journal, kSqliteJournal, SyncIntent::kDurability,
                        durable_j, op, 0);
    env.rec.op_end(op);
  }
  env.phase.client_done();
}

// ---- buffered random overwrites (randwrite-ext4) ----------------------------

/// One op is one 4 KiB pwrite; every `sync_every` writes the client fsyncs
/// (a durability point outside any op). The 49,152-page (192 MiB) file is
/// 37.5% of the plain SSD's 512 MiB of NAND and 12x its 16 MiB write cache,
/// so GC runs in the measured phase. At 65,536 pages the FTL aborts
/// ("allocate_slot without space") within ~120k writes on EXT4-DR and
/// BFS-DR alike; see README.md.
struct RandwriteSpec {
  std::uint64_t writes = 0;
  std::uint32_t pages = 49152;
  std::uint32_t sync_every = 256;
};

inline constexpr std::uint32_t kRandwriteFile = 0;
inline std::string randwrite_name(std::uint32_t) { return "data"; }

inline sim::Task randwrite_client(Env env, RandwriteSpec p, sim::Rng rng) {
  api::File f = api::must(co_await env.vfs.open(
      randwrite_name(kRandwriteFile),
      {.create = true, .extent_blocks = p.pages}));
  for (std::uint32_t off = 0; off < p.pages; off += blk::kMaxMergedBlocks) {
    const std::uint32_t n =
        std::min<std::uint32_t>(blk::kMaxMergedBlocks, p.pages - off);
    api::must(co_await f.pwrite(off, n));
    api::must(co_await f.fsync());
  }
  env.dur.wrote(kRandwriteFile, p.pages);
  env.dur.acked(kRandwriteFile, p.pages);

  const Call sync_cls = sync_call(env.vfs, f, api::SyncIntent::kFullSync);
  env.phase.begin();
  for (std::uint64_t i = 0; i < p.writes; ++i) {
    const std::uint32_t op = env.rec.op_begin(0);
    const auto page = static_cast<std::uint32_t>(rng.uniform(0, p.pages - 1));
    co_await timed_pwrite(env, f, kRandwriteFile, page, 1, op, 0);
    env.rec.op_end(op);
    if ((i + 1) % p.sync_every == 0)
      co_await timed_sync(env, f, kRandwriteFile, api::SyncIntent::kFullSync,
                          sync_cls, kNoParent, 0);
  }
  env.phase.client_done();
}

// ---- varmail through api::Ring (varmail-q4) ---------------------------------

/// The wl::VarmailParams ring flavour. One op is one mail operation:
/// an unlink (direct call), or a create / append / read chain timed from
/// its first push to its last completion.
struct VarmailSpec {
  std::uint32_t threads = 16;
  std::uint32_t files = 400;
  std::uint32_t file_pages = 4;
  std::uint32_t iterations = 0;
  std::uint32_t ring_qd = 8;
};

inline std::string mail_name(std::uint32_t id) {
  return "mail" + std::to_string(id);
}

struct MailShared {
  struct Live {
    std::string name;
    std::uint32_t id = 0;
  };
  std::vector<Live> live;
  std::uint32_t next_id = 0;
  /// filebench flowops, counted exactly as wl::run_varmail counts them.
  std::uint64_t flowops = 0;
};

/// Populates the file set (a setup phase of its own, run to quiescence
/// before the measured phase, as wl::run_varmail does).
inline sim::Task varmail_setup(Env env, VarmailSpec p, MailShared& shared) {
  api::File last;
  for (std::uint32_t i = 0; i < p.files; ++i) {
    const std::uint32_t id = shared.next_id++;
    api::File f = api::must(co_await env.vfs.open(
        mail_name(id), {.create = true, .extent_blocks = p.file_pages * 2}));
    api::must(co_await f.pwrite(0, p.file_pages));
    if (last.valid()) api::must(last.close());
    last = f;
    shared.live.push_back({mail_name(id), id});
    env.dur.wrote(id, p.file_pages);
  }
  api::must(co_await last.fsync());
  api::must(last.close());
  for (const MailShared::Live& l : shared.live)
    env.dur.acked(l.id, p.file_pages);
}

inline bool is_sync_op(api::RingOp op) {
  return op == api::RingOp::kFsync || op == api::RingOp::kFdatasync ||
         op == api::RingOp::kFdatabarrier;
}

inline Call ring_call(api::RingOp op) {
  switch (op) {
    case api::RingOp::kRead: return Call::kPread;
    case api::RingOp::kWrite: return Call::kPwrite;
    case api::RingOp::kFsync: return Call::kFsync;
    case api::RingOp::kFdatasync: return Call::kFdatasync;
    case api::RingOp::kFdatabarrier: return Call::kFdatabarrier;
    default: break;
  }
  BIO_CHECK_MSG(false, "ring op outside the benchmark's traffic");
  return Call::kPwrite;
}

/// One mail client: the wl::run_varmail ring flow (same calls, same rng
/// draws, same flowops accounting) with every sqe timed through the Ring's
/// start/complete hooks.
inline sim::Task mail_client(Env env, VarmailSpec p, MailShared& shared,
                             sim::Rng rng, std::uint32_t thread) {
  struct Slot {
    api::File file;
    enum Kind : std::uint8_t { kCreate, kAppend, kRead } kind = kCreate;
    std::uint32_t remaining = 0;  // cqes the chain still owes the reaper
    std::uint32_t failed = 0;
    // Hook side: the op span and the sqe in execution.
    std::uint32_t id = 0;
    std::uint32_t op = kNoParent;
    std::uint32_t unfinished = 0;  // sqes whose completion hook has not run
    Recorder::Token chain;
    Recorder::Token sqe;
    bool sqe_open = false;
    std::uint32_t covers = 0;
  };

  Recorder& rec = env.rec;
  api::Vfs& vfs = env.vfs;
  // Trace tracks: the client's own calls, then one per ring slot.
  const std::uint32_t main_track = thread * (p.ring_qd + 2);
  api::Ring ring(vfs);
  // One spare slot beyond the QD: a chain is only claimed after the reap
  // loop has brought the chains in flight below ring_qd.
  std::vector<Slot> slots(p.ring_qd + 1);
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) free_slots.push_back(i);
  std::uint32_t chains_in_flight = 0;
  const auto track_of = [main_track](std::size_t slot) {
    return main_track + 1 + static_cast<std::uint32_t>(slot);
  };

  // The hooks run synchronously in the chain drivers; the ring, and with it
  // the hooks, is destroyed only after every chain has been reaped below.
  ring.set_on_op_start([&](const api::Sqe& sqe) {
    Slot& s = slots[static_cast<std::size_t>(sqe.user_data)];
    if (is_sync_op(sqe.op)) s.covers = env.dur.written(s.id);
    s.sqe = rec.begin(ring_call(sqe.op), s.op,
                      track_of(static_cast<std::size_t>(sqe.user_data)));
    s.sqe_open = true;
  });
  ring.set_on_op_complete([&](const api::Sqe& sqe, std::int32_t res) {
    Slot& s = slots[static_cast<std::size_t>(sqe.user_data)];
    const bool sync = is_sync_op(sqe.op);
    if (s.sqe_open) {
      s.sqe_open = false;
      rec.end(s.sqe, sync ? Intent::kDurable : Intent::kNone, res >= 0);
      // A full mail refuses the append (ENOSPC); nothing else may fail.
      const bool expected = s.kind == Slot::kAppend &&
                            sqe.op == api::RingOp::kWrite &&
                            res == api::negated_errno(api::Errno::kNoSpc);
      if (res < 0 && !expected) rec.unexpected();
      if (res >= 0 && sqe.op == api::RingOp::kWrite) {
        rec.add_user_pages(sqe.npages);
        env.dur.wrote(s.id, sqe.page + sqe.npages);
      }
      if (res >= 0 && sync) env.dur.acked(s.id, s.covers);
    } else if (res != api::kECanceled) {
      rec.unexpected();  // refused at submit time
    }
    if (--s.unfinished == 0) {
      rec.end(s.chain, Intent::kNone, res >= 0);
      rec.op_end(s.op);
    }
  });

  const auto full_sync_op = [&vfs](const api::File& f) {
    return api::ring_op_for(api::must(vfs.policy_of(f.fd()))
                                .resolve(api::SyncIntent::kFullSync));
  };
  const auto claim_slot = [&](api::File f, Slot::Kind kind,
                              std::uint32_t nops, std::uint32_t id) {
    const std::size_t slot = free_slots.back();
    free_slots.pop_back();
    Slot& c = slots[slot];
    c.file = std::move(f);
    c.kind = kind;
    c.remaining = nops;
    c.failed = 0;
    c.id = id;
    c.unfinished = nops;
    c.op = rec.op_begin(track_of(slot));
    c.chain = rec.begin(Call::kRingChain, c.op, track_of(slot));
    ++chains_in_flight;
    return slot;
  };
  const auto submit = [&] {
    ring.submit();
    rec.sample_inflight(ring.in_flight());
  };
  const auto reap_one = [&](const api::Cqe& cqe) {
    Slot& c = slots[static_cast<std::size_t>(cqe.user_data)];
    if (cqe.res < 0) ++c.failed;
    if (--c.remaining > 0) return;
    switch (c.kind) {
      case Slot::kCreate:
        if (c.failed == 0) shared.flowops += 3;  // create + write + sync
        break;
      case Slot::kAppend:
        if (c.failed == 0) shared.flowops += 3;  // open + append + sync
        break;
      case Slot::kRead:
        if (c.failed == 0) shared.flowops += 2;  // open + read
        break;
    }
    const Recorder::Token t = rec.begin(Call::kClose, kNoParent, main_track);
    const api::Status closed = c.file.close();
    rec.end(t, Intent::kNone, closed.ok());
    if (!closed.ok()) rec.unexpected();
    free_slots.push_back(static_cast<std::size_t>(cqe.user_data));
    --chains_in_flight;
  };
  const auto timed_open =
      [&](std::string name,
          api::OpenOptions opts) -> sim::TaskOf<api::Result<api::File>> {
    const Recorder::Token t = rec.begin(Call::kOpen, kNoParent, main_track);
    api::Result<api::File> r = co_await vfs.open(std::move(name), opts);
    rec.end(t, Intent::kNone, r.ok());
    co_return r;
  };

  for (std::uint32_t iter = 0; iter < p.iterations; ++iter) {
    // 1. delete an existing mail (keep at least a handful alive).
    if (shared.live.size() > 8) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform(0, shared.live.size() - 1));
      const MailShared::Live victim = shared.live[idx];
      shared.live.erase(shared.live.begin() +
                        static_cast<std::ptrdiff_t>(idx));
      env.dur.removed(victim.id);
      const std::uint32_t op = rec.op_begin(main_track);
      const Recorder::Token t = rec.begin(Call::kUnlink, op, main_track);
      const api::Status st = co_await vfs.unlink(victim.name);
      rec.end(t, Intent::kNone, st.ok());
      rec.op_end(op);
      if (!st.ok()) rec.unexpected();
      ++shared.flowops;
    }
    // 2. create a new mail: linked write -> full-sync chain.
    {
      while (chains_in_flight >= p.ring_qd) reap_one(co_await ring.wait_cqe());
      const std::uint32_t id = shared.next_id++;
      api::Result<api::File> opened = co_await timed_open(
          mail_name(id), {.create = true,
                          .exclusive = true,
                          .extent_blocks = p.file_pages * 2});
      if (!opened.ok()) {
        rec.unexpected();
      } else {
        api::File f = opened.value();
        const api::RingOp sync_op = full_sync_op(f);
        const api::Fd fd = f.fd();
        const std::size_t slot = claim_slot(std::move(f), Slot::kCreate, 2, id);
        BIO_CHECK(ring.push({.op = api::RingOp::kWrite,
                             .fd = fd,
                             .page = 0,
                             .npages = p.file_pages,
                             .flags = api::kSqeLink,
                             .user_data = slot}));
        BIO_CHECK(ring.push({.op = sync_op, .fd = fd, .user_data = slot}));
        submit();
        shared.live.push_back({mail_name(id), id});
      }
    }
    // 3. append to an existing mail: linked write -> full-sync chain. The
    // mail may have vanished (ENOENT) or be full (the write completes
    // -ENOSPC and cancels its sync); both are expected outcomes.
    if (!shared.live.empty()) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform(0, shared.live.size() - 1));
      const MailShared::Live target = shared.live[idx];
      api::Result<api::File> opened = co_await timed_open(target.name, {});
      if (opened.ok()) {
        while (chains_in_flight >= p.ring_qd)
          reap_one(co_await ring.wait_cqe());
        api::File f = opened.value();
        const std::uint32_t size = api::must(f.size_blocks());
        const api::RingOp sync_op = full_sync_op(f);
        const api::Fd fd = f.fd();
        const std::size_t slot =
            claim_slot(std::move(f), Slot::kAppend, 2, target.id);
        BIO_CHECK(ring.push({.op = api::RingOp::kWrite,
                             .fd = fd,
                             .page = size,  // append = write at EOF
                             .npages = 1,
                             .flags = api::kSqeLink,
                             .user_data = slot}));
        BIO_CHECK(ring.push({.op = sync_op, .fd = fd, .user_data = slot}));
        submit();
      } else if (opened.error() != api::Errno::kNoEnt) {
        rec.unexpected();
      }
    }
    // 4. read a whole mail: one unlinked sqe.
    if (!shared.live.empty()) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform(0, shared.live.size() - 1));
      const MailShared::Live target = shared.live[idx];
      api::Result<api::File> opened = co_await timed_open(target.name, {});
      if (opened.ok()) {
        api::File f = opened.value();
        const std::uint32_t size = api::must(f.size_blocks());
        if (size == 0) {
          api::must(f.close());
        } else {
          while (chains_in_flight >= p.ring_qd)
            reap_one(co_await ring.wait_cqe());
          const api::Fd fd = f.fd();
          const std::size_t slot =
              claim_slot(std::move(f), Slot::kRead, 1, target.id);
          BIO_CHECK(ring.push({.op = api::RingOp::kRead,
                               .fd = fd,
                               .page = 0,
                               .npages = size,
                               .user_data = slot}));
          submit();
        }
      } else if (opened.error() != api::Errno::kNoEnt) {
        rec.unexpected();
      }
    }
  }
  // Drain: every chain reaps before the ring (and its slot Files) go away.
  while (chains_in_flight > 0) reap_one(co_await ring.wait_cqe());
  env.phase.client_done();
}

/// Runs the whole varmail workload on a started stack: setup to
/// quiescence, then `threads` clients to quiescence. Returns the flowops
/// the clients counted.
inline std::uint64_t run_varmail(Env env, const VarmailSpec& p,
                                 sim::Rng rng) {
  MailShared shared;
  // iolint: detached-owner(run() below blocks until setup drains; the
  // objects behind env and `shared` outlive the run in the caller's scope)
  env.stack.sim().spawn("setup", varmail_setup(env, p, shared));
  env.stack.sim().run();
  env.phase.begin();
  for (std::uint32_t t = 0; t < p.threads; ++t)
    // iolint: detached-owner(run() below blocks until every client is done;
    // env's objects and `shared` outlive the run in this scope)
    env.stack.sim().spawn("mail:" + std::to_string(t),
                          mail_client(env, p, shared, rng.fork(), t));
  env.stack.sim().run();
  return shared.flowops;
}

}  // namespace iobench
