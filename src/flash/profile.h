// Named device profiles matching the paper's test hardware (§6.1, Fig 1).
//
// Absolute timings are calibrated so that *relative* behaviour matches the
// paper: the ordered/buffered IOPS ratio falls with parallelism (Fig 1),
// barrier writes keep the queue full (Figs 9/10), and supercap devices see
// near-free flushes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flash/geometry.h"
#include "flash/types.h"
#include "sim/time.h"

namespace bio::flash {

struct DeviceProfile {
  std::string name = "plain-ssd";
  Geometry geometry;
  NandTiming nand;

  /// NCQ depth (QD in the paper: UFS 16, SATA 32).
  std::uint32_t queue_depth = 32;
  /// Writeback cache capacity in 4 KiB entries.
  std::size_t cache_entries = 1024;
  /// Power-loss protection (supercapacitor): the cache itself is durable.
  bool plp = false;
  /// How the device honours barrier writes. kNone = legacy device.
  BarrierMode barrier_mode = BarrierMode::kNone;
  /// tPROG penalty applied when barrier support is enabled (the paper
  /// charges 5% on plain-SSD to simulate barrier overhead).
  double barrier_program_penalty = 0.0;

  /// Controller per-command processing latency.
  sim::SimTime cmd_overhead = 5'000;
  /// Host-interface DMA time per 4 KiB block.
  sim::SimTime dma_4k = 7'000;
  /// Flush command round-trip overhead (excluding the drain itself).
  sim::SimTime flush_overhead = 30'000;
  /// Flush service time on a PLP device (tε in Fig 8).
  sim::SimTime plp_flush_latency = 25'000;
  /// Serving a read from the writeback cache.
  sim::SimTime read_hit_latency = 10'000;
  /// True if the device implements FUA as write-then-full-flush (common on
  /// SATA); false for native FUA (UFS command set, NVMe).
  bool fua_implies_flush = false;

  /// A copy with `barrier_mode` set to `mode`. The StorageDevice
  /// constructor charges barrier_program_penalty when the mode is not
  /// kNone and the device has no PLP.
  DeviceProfile with_barrier(BarrierMode mode) const;

  // ---- the paper's devices ----------------------------------------------

  /// Galaxy S6 UFS 2.0: single channel, QD 16 (the device where the
  /// authors actually implemented barrier firmware).
  static DeviceProfile ufs();
  /// 850 PRO class SATA 3.0 SSD: 8 channels, QD 32, TLC-style slow program.
  static DeviceProfile plain_ssd();
  /// 843TN class SATA 3.0 SSD with supercap PLP.
  static DeviceProfile supercap_ssd();

  // ---- additional Fig 1 points ------------------------------------------

  static DeviceProfile emmc();             // A: mobile eMMC 5.0
  static DeviceProfile nvme_ssd();         // D: server NVMe
  static DeviceProfile pcie_ssd();         // F: server PCIe
  static DeviceProfile flash_array();      // G: 32-channel flash array
  static DeviceProfile hdd();              // rotating-media reference

  /// All Fig 1 profiles (A..G) in increasing-parallelism order.
  static std::vector<DeviceProfile> fig1_devices();
};

}  // namespace bio::flash
