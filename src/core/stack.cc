#include "core/stack.h"

#include <utility>

#include "sim/check.h"

namespace bio::core {

namespace {

/// Every stack's simulator: a blocked thread resumes 15 µs after its wake,
/// the context switch the paper counts (Fig 11).
constexpr sim::Simulator::Params kSimParams{.wake_latency = 15'000};

}  // namespace

const char* to_string(StackKind k) noexcept {
  switch (k) {
    case StackKind::kExt4DR: return "EXT4-DR";
    case StackKind::kExt4OD: return "EXT4-OD";
    case StackKind::kBfsDR: return "BFS-DR";
    case StackKind::kBfsOD: return "BFS-OD";
    case StackKind::kOptFs: return "OptFS";
  }
  return "?";
}

VolumeConfig VolumeConfig::make(StackKind kind, flash::DeviceProfile device,
                                std::string name) {
  VolumeConfig c;
  c.kind = kind;
  c.name = std::move(name);
  const bool mobile = device.name == "UFS" || device.name == "eMMC";
  switch (kind) {
    case StackKind::kExt4DR:
    case StackKind::kExt4OD:
      c.device = device.with_barrier(flash::BarrierMode::kNone);
      c.fs.journal = fs::JournalKind::kJbd2;
      c.fs.nobarrier = kind == StackKind::kExt4OD;
      c.fs.journal_checksum = mobile;  // §6.3: smartphone EXT4 setup
      break;
    case StackKind::kBfsDR:
    case StackKind::kBfsOD:
      c.device = device.with_barrier(flash::BarrierMode::kInOrderRecovery);
      c.fs.journal = fs::JournalKind::kBarrierFs;
      break;
    case StackKind::kOptFs:
      c.device = device.with_barrier(flash::BarrierMode::kNone);
      c.fs.journal = fs::JournalKind::kOptFs;
      break;
  }
  return c;
}

NodeConfig NodeConfig::from(std::vector<VolumeConfig> bases) {
  for (std::size_t i = 0; i < bases.size(); ++i)
    bases[i].name = "v" + std::to_string(i);
  return NodeConfig{std::move(bases)};
}

Volume::Volume(sim::Simulator& sim, VolumeConfig config)
    : config_(std::move(config)), sim_(sim) {
  device_ = std::make_unique<flash::StorageDevice>(sim_, config_.device);
  blk_ = std::make_unique<blk::BlockLayer>(sim_, *device_, config_.blk);
  fs_ = std::make_unique<fs::Filesystem>(sim_, *blk_, config_.fs);
}

void Volume::start() {
  device_->start();
  blk_->start();
  fs_->start();
}

Stack::Stack(VolumeConfig config) : sim_(kSimParams) {
  volumes_.push_back(std::make_unique<Volume>(sim_, std::move(config)));
}

Stack::Stack(NodeConfig config) : sim_(kSimParams) {
  BIO_CHECK_MSG(!config.volumes.empty(), "node with zero volumes");
  for (VolumeConfig& v : config.volumes)
    volumes_.push_back(std::make_unique<Volume>(sim_, std::move(v)));
}

void Stack::start() {
  for (const std::unique_ptr<Volume>& v : volumes_) v->start();
}

}  // namespace bio::core
