#include "flash/profile.h"

namespace bio::flash {

using namespace bio::sim::literals;

DeviceProfile DeviceProfile::with_barrier(BarrierMode mode) const {
  DeviceProfile p = *this;
  p.barrier_mode = mode;
  return p;
}

DeviceProfile DeviceProfile::ufs() {
  DeviceProfile p;
  p.name = "UFS";
  p.geometry = Geometry{.channels = 1,
                        .ways_per_channel = 8,
                        .blocks_per_chip = 128,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 50_us,
                      .program_page = 250_us,
                      .erase_block = 3'000_us,
                      .channel_xfer = 8_us};
  p.queue_depth = 16;
  p.cache_entries = 512;
  p.plp = false;
  p.barrier_mode = BarrierMode::kNone;  // experiments opt in via with_barrier
  p.barrier_program_penalty = 0.0;      // real firmware support: free
  p.cmd_overhead = 35_us;
  p.dma_4k = 25_us;
  p.flush_overhead = 80_us;
  p.read_hit_latency = 15_us;
  p.fua_implies_flush = true;  // mobile stacks emulate FUA as write+flush
  return p;
}

DeviceProfile DeviceProfile::plain_ssd() {
  DeviceProfile p;
  p.name = "plain-SSD";
  p.geometry = Geometry{.channels = 8,
                        .ways_per_channel = 2,
                        .blocks_per_chip = 128,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 60_us,
                      .program_page = 350_us,
                      .erase_block = 3'500_us,
                      .channel_xfer = 6_us};
  p.queue_depth = 32;
  p.cache_entries = 4096;
  p.plp = false;
  p.barrier_mode = BarrierMode::kNone;
  // §6.1: barrier support on this device is simulated at a 5% penalty.
  p.barrier_program_penalty = 0.05;
  p.cmd_overhead = 5_us;
  p.dma_4k = 7_us;
  // TLC-class SATA SSD: flush dumps controller state, costing milliseconds.
  p.flush_overhead = 2'200_us;
  p.read_hit_latency = 8_us;
  p.fua_implies_flush = true;  // SATA: FUA emulated as write + flush
  return p;
}

DeviceProfile DeviceProfile::supercap_ssd() {
  DeviceProfile p;
  p.name = "supercap-SSD";
  p.geometry = Geometry{.channels = 8,
                        .ways_per_channel = 3,
                        .blocks_per_chip = 128,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 60_us,
                      .program_page = 450_us,
                      .erase_block = 3'500_us,
                      .channel_xfer = 6_us};
  p.queue_depth = 32;
  p.cache_entries = 4096;
  p.plp = true;  // supercap: the writeback cache is power-safe
  p.barrier_mode = BarrierMode::kNone;
  p.barrier_program_penalty = 0.0;  // PLP makes barrier support trivial
  p.cmd_overhead = 5_us;
  p.dma_4k = 7_us;
  p.flush_overhead = 15_us;
  p.plp_flush_latency = 20_us;
  p.read_hit_latency = 8_us;
  return p;
}

DeviceProfile DeviceProfile::emmc() {
  DeviceProfile p;
  p.name = "eMMC";
  p.geometry = Geometry{.channels = 1,
                        .ways_per_channel = 2,
                        .blocks_per_chip = 128,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 80_us,
                      .program_page = 700_us,
                      .erase_block = 4'000_us,
                      .channel_xfer = 20_us};
  p.queue_depth = 16;
  p.cache_entries = 256;
  p.cmd_overhead = 60_us;
  p.dma_4k = 45_us;
  p.flush_overhead = 120_us;
  p.read_hit_latency = 30_us;
  p.fua_implies_flush = true;
  return p;
}

DeviceProfile DeviceProfile::nvme_ssd() {
  DeviceProfile p;
  p.name = "NVMe";
  p.geometry = Geometry{.channels = 16,
                        .ways_per_channel = 4,
                        .blocks_per_chip = 64,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 60_us,
                      .program_page = 350_us,
                      .erase_block = 3'500_us,
                      .channel_xfer = 4_us};
  p.queue_depth = 128;
  p.cache_entries = 8192;
  p.cmd_overhead = 2_us;
  p.dma_4k = 3_us;
  p.flush_overhead = 600_us;
  p.read_hit_latency = 4_us;
  return p;
}

DeviceProfile DeviceProfile::pcie_ssd() {
  DeviceProfile p = nvme_ssd();
  p.name = "PCIe";
  p.geometry.channels = 24;
  p.geometry.blocks_per_chip = 48;
  p.flush_overhead = 500_us;
  return p;
}

DeviceProfile DeviceProfile::flash_array() {
  DeviceProfile p;
  p.name = "Flash-array";
  p.geometry = Geometry{.channels = 32,
                        .ways_per_channel = 4,
                        .blocks_per_chip = 32,
                        .pages_per_block = 64};
  p.nand = NandTiming{.read_page = 60_us,
                      .program_page = 400_us,
                      .erase_block = 3'500_us,
                      .channel_xfer = 4_us};
  p.queue_depth = 128;
  p.cache_entries = 16384;
  p.cmd_overhead = 2_us;
  p.dma_4k = 2_us;
  p.flush_overhead = 500_us;
  p.read_hit_latency = 4_us;
  return p;
}

DeviceProfile DeviceProfile::hdd() {
  DeviceProfile p;
  p.name = "HDD";
  // Crude rotating-media stand-in: one "chip" whose page program models an
  // average positioned write. Only used for the Fig 1 reference point.
  p.geometry = Geometry{.channels = 1,
                        .ways_per_channel = 1,
                        .blocks_per_chip = 512,
                        .pages_per_block = 128};
  p.nand = NandTiming{.read_page = 1'500_us,
                      .program_page = 1'500_us,
                      .erase_block = 1_us,
                      .channel_xfer = 10_us};
  p.queue_depth = 32;
  p.cache_entries = 1024;
  p.cmd_overhead = 30_us;
  p.dma_4k = 20_us;
  p.flush_overhead = 100_us;
  p.read_hit_latency = 20_us;
  p.fua_implies_flush = true;
  return p;
}

std::vector<DeviceProfile> DeviceProfile::fig1_devices() {
  return {emmc(),         ufs(),      plain_ssd(), nvme_ssd(),
          supercap_ssd(), pcie_ssd(), flash_array()};
}

const char* to_string(BarrierMode m) noexcept {
  switch (m) {
    case BarrierMode::kNone: return "none";
    case BarrierMode::kInOrderRecovery: return "in-order-recovery";
  }
  return "?";
}

const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kSimple: return "simple";
    case Priority::kOrdered: return "ordered";
    case Priority::kHeadOfQueue: return "head-of-queue";
  }
  return "?";
}

const char* to_string(OpCode op) noexcept {
  switch (op) {
    case OpCode::kWrite: return "write";
    case OpCode::kRead: return "read";
    case OpCode::kFlush: return "flush";
  }
  return "?";
}

const char* to_string(IoStatus s) noexcept {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kTransientError: return "transient-error";
    case IoStatus::kHardError: return "hard-error";
  }
  return "?";
}

}  // namespace bio::flash
