#include "wl/varmail.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "api/ring.h"
#include "api/vfs.h"
#include "sim/check.h"

namespace bio::wl {

namespace {

struct Shared {
  std::vector<std::string> live_files;
  std::uint64_t next_name = 0;
  std::uint64_t flowops = 0;
};

sim::Task mail_thread(api::Vfs& vfs, const VarmailParams& p, Shared& shared,
                      sim::Rng rng) {
  for (std::uint32_t iter = 0; iter < p.iterations; ++iter) {
    // 1. delete an existing mail (keep at least a handful alive).
    if (shared.live_files.size() > 8) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      std::string victim = shared.live_files[idx];
      shared.live_files.erase(
          shared.live_files.begin() + static_cast<std::ptrdiff_t>(idx));
      api::must(co_await vfs.unlink(victim));
      ++shared.flowops;
    }
    // 2. create a new mail, write it fully, sync it.
    {
      std::string name = "mail" + std::to_string(shared.next_name++);
      api::File f = api::must(co_await vfs.open(
          name, {.create = true,
                 .exclusive = true,
                 .extent_blocks = p.file_pages * 2}));
      api::must(co_await f.pwrite(0, p.file_pages));
      api::must(co_await f.sync_file());
      api::must(f.close());
      shared.live_files.push_back(std::move(name));
      shared.flowops += 3;  // create + write + sync
    }
    // 3. append to an existing mail, sync it. The mail may have vanished
    // (ENOENT) or be full (ENOSPC); both are normal outcomes, not errors.
    if (!shared.live_files.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      api::Result<api::File> opened =
          co_await vfs.open(shared.live_files[idx]);
      if (opened.ok()) {
        api::File f = opened.value();
        const api::Result<std::uint32_t> appended = co_await f.append(1);
        if (appended.ok()) {
          api::must(co_await f.sync_file());
          shared.flowops += 3;  // open + append + sync
        }
        api::must(f.close());
      }
    }
    // 4. read a whole mail.
    if (!shared.live_files.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      api::Result<api::File> opened =
          co_await vfs.open(shared.live_files[idx]);
      if (opened.ok()) {
        api::File f = opened.value();
        const std::uint32_t size = api::must(f.size_blocks());
        if (size > 0) {
          api::must(co_await f.pread(0, size));
          shared.flowops += 2;  // open + read
        }
        api::must(f.close());
      }
    }
  }
}

// Ring-mode flavour of the same flow. Each create/append becomes a linked
// write -> full-sync chain and each read an unlinked sqe; a thread keeps up
// to `ring_qd` chains in flight, so independent mails overlap where the
// direct flavour serializes on every co_await. The chain's File stays open
// in its slot until the last cqe arrives. Two concurrent appends to the
// same mail may land on the same EOF page (the ring loosens program order
// across chains by design); flowops accounting per chain outcome matches
// the direct flavour.
struct ChainSlot {
  api::File file;
  enum Kind : std::uint8_t { kCreate, kAppend, kRead } kind = kCreate;
  std::uint32_t remaining = 0;  // cqes this chain still owes
  std::uint32_t failed = 0;
};

sim::Task mail_thread_ring(api::Vfs& vfs, const VarmailParams& p,
                           Shared& shared, sim::Rng rng) {
  api::Ring ring(vfs);
  // One spare slot beyond the QD: a chain is only allocated after the reap
  // loop has brought in_flight below ring_qd.
  std::vector<ChainSlot> slots(p.ring_qd + 1);
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) free_slots.push_back(i);
  std::uint32_t chains_in_flight = 0;

  auto full_sync_op = [&vfs](const api::File& f) {
    return api::ring_op_for(api::must(vfs.policy_of(f.fd()))
                                .resolve(api::SyncIntent::kFullSync));
  };
  auto claim_slot = [&](api::File f, ChainSlot::Kind kind,
                        std::uint32_t nops) {
    const std::size_t slot = free_slots.back();
    free_slots.pop_back();
    ChainSlot& c = slots[slot];
    c.file = std::move(f);
    c.kind = kind;
    c.remaining = nops;
    c.failed = 0;
    ++chains_in_flight;
    return slot;
  };
  auto reap_one = [&](const api::Cqe& cqe) {
    ChainSlot& c = slots[static_cast<std::size_t>(cqe.user_data)];
    if (cqe.res < 0) ++c.failed;
    if (--c.remaining > 0) return;
    switch (c.kind) {
      case ChainSlot::kCreate:
        // A fresh exclusive file with room for the whole write: failure
        // here is a bug, exactly like the direct flavour's must().
        BIO_CHECK_MSG(c.failed == 0, "varmail ring create chain failed");
        shared.flowops += 3;  // create + write + sync
        break;
      case ChainSlot::kAppend:
        // -ENOSPC on a full mail cancels the linked sync (-ECANCELED);
        // both mirror the direct flavour skipping the sync, counting 0.
        if (c.failed == 0) shared.flowops += 3;  // open + append + sync
        break;
      case ChainSlot::kRead:
        if (c.failed == 0) shared.flowops += 2;  // open + read
        break;
    }
    api::must(c.file.close());
    free_slots.push_back(static_cast<std::size_t>(cqe.user_data));
    --chains_in_flight;
  };

  for (std::uint32_t iter = 0; iter < p.iterations; ++iter) {
    // 1. delete an existing mail (direct — namespace op).
    if (shared.live_files.size() > 8) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      std::string victim = shared.live_files[idx];
      shared.live_files.erase(
          shared.live_files.begin() + static_cast<std::ptrdiff_t>(idx));
      // A victim with a chain in flight is fine: the slot's open File
      // keeps the inode alive, as POSIX unlink-while-open does.
      api::must(co_await vfs.unlink(victim));
      ++shared.flowops;
    }
    // 2. create a new mail: linked write -> full-sync chain.
    {
      while (chains_in_flight >= p.ring_qd)
        reap_one(co_await ring.wait_cqe());
      std::string name = "mail" + std::to_string(shared.next_name++);
      api::File f = api::must(co_await vfs.open(
          name, {.create = true,
                 .exclusive = true,
                 .extent_blocks = p.file_pages * 2}));
      const api::RingOp sync_op = full_sync_op(f);
      const api::Fd fd = f.fd();
      const std::size_t slot =
          claim_slot(std::move(f), ChainSlot::kCreate, 2);
      BIO_CHECK(ring.push({.op = api::RingOp::kWrite,
                           .fd = fd,
                           .page = 0,
                           .npages = p.file_pages,
                           .flags = api::kSqeLink,
                           .user_data = slot}));
      BIO_CHECK(ring.push({.op = sync_op, .fd = fd, .user_data = slot}));
      ring.submit();
      shared.live_files.push_back(std::move(name));
    }
    // 3. append to an existing mail: linked write -> full-sync chain. The
    // mail may have vanished (ENOENT, direct open) or be full (the write
    // completes -ENOSPC and cancels its sync); both are normal outcomes.
    if (!shared.live_files.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      api::Result<api::File> opened =
          co_await vfs.open(shared.live_files[idx]);
      if (opened.ok()) {
        while (chains_in_flight >= p.ring_qd)
          reap_one(co_await ring.wait_cqe());
        api::File f = opened.value();
        const std::uint32_t size = api::must(f.size_blocks());
        const api::RingOp sync_op = full_sync_op(f);
        const api::Fd fd = f.fd();
        const std::size_t slot =
            claim_slot(std::move(f), ChainSlot::kAppend, 2);
        BIO_CHECK(ring.push({.op = api::RingOp::kWrite,
                             .fd = fd,
                             .page = size,  // append = write at EOF
                             .npages = 1,
                             .flags = api::kSqeLink,
                             .user_data = slot}));
        BIO_CHECK(ring.push({.op = sync_op, .fd = fd, .user_data = slot}));
        ring.submit();
      }
    }
    // 4. read a whole mail: one unlinked sqe.
    if (!shared.live_files.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform(0, shared.live_files.size() - 1));
      api::Result<api::File> opened =
          co_await vfs.open(shared.live_files[idx]);
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
              claim_slot(std::move(f), ChainSlot::kRead, 1);
          BIO_CHECK(ring.push({.op = api::RingOp::kRead,
                               .fd = fd,
                               .page = 0,
                               .npages = size,
                               .user_data = slot}));
          ring.submit();
        }
      }
    }
  }
  // Drain: every chain reaps before the Ring (and its slot Files) go away.
  while (chains_in_flight > 0) reap_one(co_await ring.wait_cqe());
}

}  // namespace

VarmailResult run_varmail(core::Stack& stack, const VarmailParams& params,
                          sim::Rng rng) {
  VarmailResult result;
  stack.start();
  api::Vfs vfs(stack);
  auto shared = std::make_unique<Shared>();

  // Pre-populate the file set (untimed from the benchmark's perspective —
  // accounting resets afterwards).
  auto setup = [&vfs, &params, s = shared.get()]() -> sim::Task {
    api::File last;
    for (std::uint32_t i = 0; i < params.files; ++i) {
      std::string name = "mail" + std::to_string(s->next_name++);
      api::File f = api::must(co_await vfs.open(
          name, {.create = true, .extent_blocks = params.file_pages * 2}));
      api::must(co_await f.pwrite(0, params.file_pages));
      if (last.valid()) api::must(last.close());
      last = f;
      s->live_files.push_back(std::move(name));
    }
    api::must(co_await last.fsync());
    api::must(last.close());
  };
  stack.sim().spawn("setup", setup());
  stack.sim().run();

  stack.device().reset_qd_accounting();
  const sim::SimTime t0 = stack.sim().now();
  for (std::uint32_t t = 0; t < params.threads; ++t)
    // iolint: detached-owner(run() below blocks until every thread is
    // done; vfs and the Shared state outlive the run in this scope)
    stack.sim().spawn(
        "mail:" + std::to_string(t),
        params.ring_qd > 0
            ? mail_thread_ring(vfs, params, *shared, rng.fork())
            : mail_thread(vfs, params, *shared, rng.fork()));
  stack.sim().run();

  result.elapsed = stack.sim().now() - t0;
  result.ops_done = shared->flowops;
  if (result.elapsed > 0)
    result.ops_per_sec =
        static_cast<double>(result.ops_done) / sim::to_seconds(result.elapsed);
  return result;
}

}  // namespace bio::wl
