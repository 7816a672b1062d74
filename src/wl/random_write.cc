#include "wl/random_write.h"

#include <string>
#include <vector>

#include "api/vfs.h"

namespace bio::wl {

namespace {

sim::Task workload_body(core::Stack& stack, api::Vfs& vfs,
                        const RandomWriteParams& p, sim::Rng rng,
                        RandomWriteResult& out) {
  sim::Simulator& sim = stack.sim();
  const std::uint32_t nfiles = std::max<std::uint32_t>(1, p.files);

  std::vector<api::File> files(nfiles);
  const std::uint32_t per_file_ws = p.working_set_pages / nfiles;
  const std::uint32_t extent =
      p.allocating ? static_cast<std::uint32_t>(p.ops / nfiles) + 2
                   : per_file_ws;
  for (std::uint32_t fidx = 0; fidx < nfiles; ++fidx) {
    files[fidx] = api::must(co_await vfs.open(
        "bench" + std::to_string(fidx),
        {.create = true, .extent_blocks = extent}));
    if (!p.allocating) {
      // Pre-allocate so the measured writes are overwrites (no journal
      // commit from i_size changes), as in the paper's 4KB random write.
      for (std::uint32_t off = 0; off < per_file_ws;
           off += blk::kMaxMergedBlocks) {
        const std::uint32_t n =
            std::min<std::uint32_t>(blk::kMaxMergedBlocks, per_file_ws - off);
        api::must(co_await files[fidx].pwrite(off, n));
        api::must(co_await files[fidx].fsync());
      }
      api::must(co_await files[fidx].fsync());
    }
  }
  api::File file = files[0];

  // ---- measured phase ----------------------------------------------------
  stack.device().reset_qd_accounting();
  sim::ThreadCtx* self = sim.current_thread();
  const std::uint64_t cs0 = self->context_switches;
  const sim::SimTime t0 = sim.now();

  for (std::uint64_t i = 0; i < p.ops; ++i) {
    file = files[i % nfiles];
    if (p.allocating) {
      api::must(co_await file.append(1));
    } else {
      const std::uint32_t page =
          static_cast<std::uint32_t>(rng.uniform(0, per_file_ws - 1));
      api::must(co_await file.pwrite(page, 1));
    }
    switch (p.mode) {
      case RandomWriteParams::Mode::kBuffered:
        break;
      case RandomWriteParams::Mode::kFdatasync:
        api::must(co_await file.fdatasync());
        break;
      case RandomWriteParams::Mode::kFdatabarrier:
        api::must(co_await file.fdatabarrier());
        break;
      case RandomWriteParams::Mode::kSyncFile: {
        const sim::SimTime s0 = sim.now();
        api::must(co_await file.sync_file());
        out.sync_latency.add(sim.now() - s0);
        break;
      }
    }
    ++out.ops_done;
  }

  out.elapsed = sim.now() - t0;
  out.context_switches_per_op =
      static_cast<double>(self->context_switches - cs0) /
      static_cast<double>(p.ops);
  out.avg_queue_depth = stack.device().average_queue_depth();
  if (out.elapsed > 0)
    out.iops = static_cast<double>(out.ops_done) / sim::to_seconds(out.elapsed);
}

}  // namespace

RandomWriteResult run_random_write(core::Stack& stack,
                                   const RandomWriteParams& params,
                                   sim::Rng rng) {
  RandomWriteResult result;
  stack.start();
  api::Vfs vfs(stack);
  // iolint: detached-owner(run() below blocks until the workload drains;
  // vfs and result outlive the run in this scope)
  stack.sim().spawn("app", workload_body(stack, vfs, params, std::move(rng),
                                         result));
  stack.sim().run();
  return result;
}

}  // namespace bio::wl
