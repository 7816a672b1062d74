// Fig 1: ordered write() (write + fdatasync) vs orderless buffered write()
// across devices of increasing parallelism, plus an HDD reference point.
// The paper's observation: the ordered/buffered ratio collapses as device
// parallelism grows (power-law fit y = a * x^b, b ≈ -1), and power-loss
// protection (supercap) does NOT rescue it.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "wl/random_write.h"

using namespace bio;
using bench::make_stack;

int main() {
  bench::banner("Fig 1", "Ordered IO vs Buffered IO across device classes");

  std::vector<flash::DeviceProfile> devices =
      flash::DeviceProfile::fig1_devices();
  devices.push_back(flash::DeviceProfile::hdd());

  core::Table table({"device", "buffered KIOPS", "ordered IOPS",
                     "ordered/buffered (%)"});
  std::vector<double> xs, ys;
  double supercap_ratio = 0.0, max_flash_buffered = 0.0;
  double ratio_at_min = 0.0, ratio_at_max = 0.0;
  double min_buf = 1e18, max_buf = 0.0;

  // Each device cell simulates its two stacks independently; compute in
  // parallel, print (and fit) in device order below.
  struct Cell {
    double ordered_iops = 0.0;
    double buffered_iops = 0.0;
  };
  const std::vector<Cell> cells = bench::run_cells<Cell>(
      static_cast<int>(devices.size()), [&devices](int i) {
        const auto& dev = devices[static_cast<std::size_t>(i)];
        // Ordered: allocating 4K writes + fdatasync on EXT4-DR (journal
        // commit per write, transfer-and-flush all the way).
        wl::RandomWriteParams ordered_params;
        ordered_params.mode = wl::RandomWriteParams::Mode::kFdatasync;
        ordered_params.allocating = true;
        ordered_params.ops = 300;
        auto ordered_stack = make_stack(core::StackKind::kExt4DR, dev);
        auto ordered =
            wl::run_random_write(*ordered_stack, ordered_params, sim::Rng(1));

        // Buffered: plain write() stream, throttled by writeback.
        wl::RandomWriteParams buf_params;
        buf_params.mode = wl::RandomWriteParams::Mode::kBuffered;
        buf_params.ops = 30000;
        buf_params.working_set_pages =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                32768, dev.geometry.physical_pages() * 2 / 5));
        auto buf_stack = make_stack(core::StackKind::kExt4DR, dev);
        auto buffered =
            wl::run_random_write(*buf_stack, buf_params, sim::Rng(2));
        return Cell{ordered.iops, buffered.iops};
      });

  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& dev = devices[d];
    const double ordered_iops = cells[d].ordered_iops;
    const double buffered_iops = cells[d].buffered_iops;

    const double ratio = 100.0 * ordered_iops / buffered_iops;
    table.add_row({dev.name, bench::k_of(buffered_iops),
                   core::Table::num(ordered_iops, 0),
                   core::Table::num(ratio, 2)});
    if (dev.name != "HDD") {
      xs.push_back(std::log(buffered_iops));
      ys.push_back(std::log(ratio));
      if (dev.name == "supercap-SSD") supercap_ratio = ratio;
      max_flash_buffered = std::max(max_flash_buffered, buffered_iops);
      if (buffered_iops < min_buf) {
        min_buf = buffered_iops;
        ratio_at_min = ratio;
      }
      if (buffered_iops > max_buf) {
        max_buf = buffered_iops;
        ratio_at_max = ratio;
      }
    }
  }
  table.print();

  // Least-squares slope of log(ratio) vs log(buffered): the paper fits
  // y = 3.4e3 * x^-1.1; we check the decline is power-law-ish (b < -0.5).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::printf("\npower-law fit: ratio ~ buffered^%.2f (paper: ^-1.1)\n",
              slope);
  bench::expect_shape(slope < -0.5,
                      "ordered/buffered ratio declines with parallelism");
  bench::expect_shape(ratio_at_max < ratio_at_min,
                      "most-parallel flash device has the lowest ratio");
  bench::expect_shape(supercap_ratio > ratio_at_max,
                      "supercap (PLP) sits above the trend but does not fix "
                      "the ordering overhead");
  return 0;
}
