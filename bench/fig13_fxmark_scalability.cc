// Fig 13: fxmark DWSL — filesystem journaling scalability over core count
// on plain-SSD and supercap-SSD. EXT4 serializes commits through a single
// committing transaction with transfer-and-flush; BarrierFS pipelines them,
// so it scales to roughly 2x on plain-SSD and ~1.3x at saturation on
// supercap (paper's numbers).
#include <vector>

#include "bench_util.h"
#include "wl/fxmark.h"

using namespace bio;
using bench::make_stack;

namespace {

double run_case(const flash::DeviceProfile& dev, core::StackKind kind,
                std::uint32_t cores) {
  wl::FxmarkParams p;
  p.cores = cores;
  p.writes_per_thread = 150;
  auto stack = make_stack(kind, dev);
  auto r = wl::run_fxmark_dwsl(*stack, p);
  return r.ops_per_sec;
}

}  // namespace

int main() {
  bench::banner("Fig 13", "fxmark DWSL journaling scalability (ops/s)");
  const std::vector<std::uint32_t> cores = {1, 2, 4, 6, 8, 10, 12};
  const std::vector<flash::DeviceProfile> devices = {
      flash::DeviceProfile::plain_ssd(), flash::DeviceProfile::supercap_ssd()};
  // 2 devices x 7 core counts x 2 stacks = 28 independent cells; printed
  // per device below in core-count order.
  const int per_dev = static_cast<int>(cores.size()) * 2;
  const std::vector<double> cells = bench::run_cells<double>(
      static_cast<int>(devices.size()) * per_dev,
      [&devices, &cores, per_dev](int i) {
        const auto& dev = devices[static_cast<std::size_t>(i / per_dev)];
        const int within = i % per_dev;
        const std::uint32_t c = cores[static_cast<std::size_t>(within / 2)];
        return run_case(dev,
                        within % 2 == 0 ? core::StackKind::kExt4DR
                                        : core::StackKind::kBfsDR,
                        c);
      });
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& dev = devices[d];
    std::printf("\n[%s]\n", dev.name.c_str());
    core::Table table({"cores", "EXT4-DR ops/s", "BFS-DR ops/s", "BFS/EXT4"});
    double ext4_max = 0, bfs_max = 0, ext4_1 = 0, bfs_1 = 0;
    double ext4_6 = 0, ext4_12 = 0;
    for (std::size_t ci = 0; ci < cores.size(); ++ci) {
      const std::uint32_t c = cores[ci];
      const double e = cells[d * static_cast<std::size_t>(per_dev) + ci * 2];
      const double b =
          cells[d * static_cast<std::size_t>(per_dev) + ci * 2 + 1];
      table.add_row({std::to_string(c), core::Table::num(e, 0),
                     core::Table::num(b, 0), core::Table::num(b / e, 2)});
      ext4_max = std::max(ext4_max, e);
      bfs_max = std::max(bfs_max, b);
      if (c == 1) {
        ext4_1 = e;
        bfs_1 = b;
      }
      if (c == 6) ext4_6 = e;
      if (c == 12) ext4_12 = e;
    }
    table.print();
    if (dev.plp) {
      // Supercap: both stacks saturate the NAND early (paper: 6 cores);
      // BFS leads while the journal is the bottleneck (low core counts).
      bench::expect_shape(bfs_1 > 1.15 * ext4_1,
                          "BFS-DR leads before device saturation (paper: "
                          "~1.3x)");
      bench::expect_shape(ext4_12 < 1.15 * ext4_6,
                          "throughput saturates around 6 cores");
    } else {
      bench::expect_shape(bfs_max > 1.5 * ext4_max,
                          "BFS-DR ~2x EXT4-DR at full throttle (paper: 2x)");
      bench::expect_shape(bfs_1 > 1.5 * ext4_1,
                          "BFS-DR ~2x at low core counts too");
    }
  }
  return 0;
}
