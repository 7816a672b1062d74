// Table 1: fsync() latency statistics (mean / median / 99 / 99.9 / 99.99
// percentile) for EXT4 vs BarrierFS on UFS, plain-SSD and supercap-SSD.
// The device log is pre-filled so garbage collection runs during the
// benchmark, producing the long tails the paper reports.
#include <vector>

#include "bench_util.h"
#include "wl/random_write.h"

using namespace bio;
using bench::make_stack;

namespace {

struct Row {
  double mean_ms, median_ms, p99_ms, p999_ms, p9999_ms;
};

Row run_case(const flash::DeviceProfile& dev, core::StackKind kind,
             std::uint64_t ops) {
  wl::RandomWriteParams p;
  p.mode = wl::RandomWriteParams::Mode::kSyncFile;
  p.allocating = true;  // DWSL pattern: every fsync commits a transaction
  p.ops = ops;
  p.working_set_pages = 4096;
  auto stack = make_stack(kind, dev);
  // Age the FTL: 88% utilization over a wide LBA span -> GC activity.
  sim::Rng prefill_rng(11);
  stack->device().log().prefill(
      0.88, stack->fs().layout().data_base() + 60000, prefill_rng);
  const wl::RandomWriteResult r =
      wl::run_random_write(*stack, p, sim::Rng(5));
  const sim::LatencyRecorder& lat = r.sync_latency;
  return Row{lat.mean() / 1e6, sim::to_millis(lat.median()),
             sim::to_millis(lat.percentile(99.0)),
             sim::to_millis(lat.percentile(99.9)),
             sim::to_millis(lat.percentile(99.99))};
}

}  // namespace

int main() {
  bench::banner("Table 1", "fsync() latency statistics (msec)");
  core::Table table({"device", "fs", "mean", "median", "99th", "99.9th",
                     "99.99th"});
  const std::uint64_t kOps = 4000;
  const std::vector<flash::DeviceProfile> devices = {
      flash::DeviceProfile::ufs(), flash::DeviceProfile::plain_ssd(),
      flash::DeviceProfile::supercap_ssd()};
  // 3 devices x 2 filesystems, each cell with its own aged stack; printed
  // in device order below.
  const std::vector<Row> cells = bench::run_cells<Row>(
      static_cast<int>(devices.size()) * 2, [&devices, kOps](int i) {
        return run_case(devices[static_cast<std::size_t>(i / 2)],
                        i % 2 == 0 ? core::StackKind::kExt4DR
                                   : core::StackKind::kBfsDR,
                        kOps);
      });
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& dev = devices[d];
    const Row ext4 = cells[d * 2];
    const Row bfs = cells[d * 2 + 1];
    table.add_row({dev.name, "EXT4", core::Table::num(ext4.mean_ms),
                   core::Table::num(ext4.median_ms),
                   core::Table::num(ext4.p99_ms),
                   core::Table::num(ext4.p999_ms),
                   core::Table::num(ext4.p9999_ms)});
    table.add_row({dev.name, "BFS", core::Table::num(bfs.mean_ms),
                   core::Table::num(bfs.median_ms),
                   core::Table::num(bfs.p99_ms),
                   core::Table::num(bfs.p999_ms),
                   core::Table::num(bfs.p9999_ms)});
    std::printf("%s:\n", dev.name.c_str());
    bench::expect_shape(bfs.mean_ms < 0.8 * ext4.mean_ms,
                        "BFS cuts mean fsync latency substantially "
                        "(paper: -40% SSDs, -60% UFS)");
    bench::expect_shape(bfs.p9999_ms <= ext4.p9999_ms,
                        "BFS improves the 99.99th percentile tail");
    bench::expect_shape(ext4.p9999_ms > ext4.mean_ms + 0.8,
                        "GC stalls add at least ~1ms to the 99.99th "
                        "percentile tail");
  }
  std::printf("\n");
  table.print();
  return 0;
}
