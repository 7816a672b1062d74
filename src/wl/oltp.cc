#include "wl/oltp.h"

#include <string>

#include "api/vfs.h"
#include "sim/check.h"

namespace bio::wl {

namespace {

/// Redo-log pages each transaction appends.
constexpr std::uint32_t kRedoPagesPerTx = 1;

struct Shared {
  api::File table;
  api::File redo;
  api::File binlog;
  std::uint32_t redo_cursor = 0;
  std::uint32_t binlog_cursor = 0;
  std::uint64_t tx_done = 0;
  std::uint64_t tx_since_checkpoint = 0;
};

sim::Task oltp_thread(const OltpParams& p, Shared& s, sim::Rng rng) {
  for (std::uint64_t i = 0; i < p.transactions_per_thread; ++i) {
    // 1. redo log (group-commit style: append + durable sync).
    if (s.redo_cursor + kRedoPagesPerTx >= api::must(s.redo.extent_blocks()))
      s.redo_cursor = 0;
    api::must(co_await s.redo.pwrite(s.redo_cursor, kRedoPagesPerTx));
    s.redo_cursor += kRedoPagesPerTx;
    api::must(co_await s.redo.durability_point());

    // 2. binlog.
    if (s.binlog_cursor + 1 >= api::must(s.binlog.extent_blocks()))
      s.binlog_cursor = 0;
    api::must(co_await s.binlog.pwrite(s.binlog_cursor, 1));
    s.binlog_cursor += 1;
    api::must(co_await s.binlog.durability_point());

    // 3. dirty table pages (buffer pool, written back at checkpoints).
    for (std::uint32_t r = 0; r < p.rows_pages_per_tx; ++r) {
      const std::uint32_t page =
          static_cast<std::uint32_t>(rng.uniform(0, p.table_pages - 1));
      api::must(co_await s.table.pwrite(page, 1));
    }
    ++s.tx_done;
    if (++s.tx_since_checkpoint >= p.checkpoint_every) {
      s.tx_since_checkpoint = 0;
      api::must(co_await s.table.durability_point());  // fuzzy checkpoint
    }
  }
}

}  // namespace

OltpResult run_oltp_insert(core::Stack& stack, const OltpParams& params,
                           sim::Rng rng) {
  OltpResult result;
  stack.start();
  api::Vfs vfs(stack);
  auto shared = std::make_unique<Shared>();

  auto setup = [&vfs, &params, s = shared.get()]() -> sim::Task {
    s->table = api::must(co_await vfs.open(
        "ibdata", {.create = true, .extent_blocks = params.table_pages}));
    for (std::uint32_t off = 0; off < params.table_pages;
         off += blk::kMaxMergedBlocks) {
      const std::uint32_t n = std::min<std::uint32_t>(
          blk::kMaxMergedBlocks, params.table_pages - off);
      api::must(co_await s->table.pwrite(off, n));
      api::must(co_await s->table.fsync());
    }
    s->redo = api::must(co_await vfs.open(
        "ib_logfile0", {.create = true, .extent_blocks = 4096}));
    s->binlog = api::must(co_await vfs.open(
        "binlog.000001", {.create = true, .extent_blocks = 4096}));
    api::must(co_await s->redo.pwrite(0, 1));
    api::must(co_await s->binlog.pwrite(0, 1));
    api::must(co_await s->redo.fsync());
    api::must(co_await s->binlog.fsync());
  };
  stack.sim().spawn("setup", setup());
  stack.sim().run();

  stack.device().reset_qd_accounting();
  const sim::SimTime t0 = stack.sim().now();
  for (std::uint32_t t = 0; t < params.threads; ++t)
    // iolint: detached-owner(run() below blocks until every thread is
    // done; vfs and the Shared state outlive the run in this scope)
    stack.sim().spawn("oltp:" + std::to_string(t),
                      oltp_thread(params, *shared, rng.fork()));
  stack.sim().run();

  result.elapsed = stack.sim().now() - t0;
  result.tx_done = shared->tx_done;
  if (result.elapsed > 0)
    result.tx_per_sec =
        static_cast<double>(result.tx_done) / sim::to_seconds(result.elapsed);
  return result;
}

}  // namespace bio::wl
