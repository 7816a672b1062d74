#include "wl/fxmark.h"

#include <string>
#include <vector>

#include "api/vfs.h"

namespace bio::wl {

namespace {

sim::Task dwsl_thread(const FxmarkParams& p, api::File file,
                      std::uint64_t& ops) {
  for (std::uint32_t i = 0; i < p.writes_per_thread; ++i) {
    // Allocating write: every append extends i_size, so every fsync
    // commits a journal transaction — the DWSL pattern.
    api::must(co_await file.append(1));
    api::must(co_await file.fsync());
    ++ops;
  }
}

}  // namespace

ShardedFxmarkResult run_fxmark_dwsl_sharded(
    core::Stack& node, const FxmarkParams& params,
    const std::function<void()>& on_measured_start) {
  ShardedFxmarkResult result;
  const std::size_t nvol = node.volume_count();
  node.start();
  api::Vfs vfs(node);

  auto path_of = [&node, nvol](std::uint32_t core, const std::string& file) {
    const core::Volume& vol = node.volume(core % nvol);
    return vol.name().empty() ? file : "/" + vol.name() + "/" + file;
  };

  std::vector<api::File> files(params.cores);
  auto setup = [&]() -> sim::Task {
    for (std::uint32_t c = 0; c < params.cores; ++c) {
      files[c] = api::must(co_await vfs.open(
          path_of(c, "dwsl" + std::to_string(c)),
          {.create = true, .extent_blocks = params.writes_per_thread + 1}));
    }
  };
  node.sim().spawn("setup", setup());
  node.sim().run();

  for (std::size_t v = 0; v < nvol; ++v)
    node.volume(v).device().reset_qd_accounting();
  if (on_measured_start) on_measured_start();
  const sim::SimTime t0 = node.sim().now();
  // The dwsl threads hold references into result.volume_ops; run() blocks
  // until every one of them has finished.
  result.volume_ops.assign(nvol, 0);
  for (std::uint32_t c = 0; c < params.cores; ++c)
    // iolint: detached-owner(run() below blocks until every thread is
    // done; files/result outlive the run in this scope)
    node.sim().spawn("dwsl:" + std::to_string(c),
                     dwsl_thread(params, files[c],
                                 result.volume_ops[c % nvol]));
  node.sim().run();

  result.elapsed = node.sim().now() - t0;
  result.volume_ops_per_sec.resize(nvol, 0.0);
  for (std::size_t v = 0; v < nvol; ++v) {
    result.ops_done += result.volume_ops[v];
    if (result.elapsed > 0)
      result.volume_ops_per_sec[v] =
          static_cast<double>(result.volume_ops[v]) /
          sim::to_seconds(result.elapsed);
  }
  if (result.elapsed > 0)
    result.ops_per_sec =
        static_cast<double>(result.ops_done) / sim::to_seconds(result.elapsed);
  return result;
}

FxmarkResult run_fxmark_dwsl(core::Stack& stack, const FxmarkParams& params) {
  // Exactly the one-volume sharded case (an unnamed volume routes plain
  // "dwsl<c>" names through the root mount).
  const ShardedFxmarkResult r = run_fxmark_dwsl_sharded(stack, params);
  return FxmarkResult{r.ops_per_sec, r.ops_done, r.elapsed};
}

}  // namespace bio::wl
