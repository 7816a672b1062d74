#include "core/stack.h"

#include <utility>

#include "sim/check.h"

namespace bio::core {

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
      c.blk.scheduler = "elevator";
      c.fs.journal = fs::JournalKind::kJbd2;
      c.fs.nobarrier = kind == StackKind::kExt4OD;
      c.fs.journal_checksum = mobile;  // §6.3: smartphone EXT4 setup
      break;
    case StackKind::kBfsDR:
    case StackKind::kBfsOD:
      c.device = device.with_barrier(flash::BarrierMode::kInOrderRecovery);
      c.blk.scheduler = "elevator";
      c.fs.journal = fs::JournalKind::kBarrierFs;
      break;
    case StackKind::kOptFs:
      c.device = device.with_barrier(flash::BarrierMode::kNone);
      c.blk.scheduler = "elevator";
      c.fs.journal = fs::JournalKind::kOptFs;
      break;
  }
  return c;
}

StackConfig StackConfig::make(StackKind kind, flash::DeviceProfile device) {
  return of_volume(VolumeConfig::make(kind, std::move(device)),
                   StackConfig{}.sim);
}

VolumeConfig StackConfig::volume(std::string name) const {
  VolumeConfig v;
  v.kind = kind;
  v.name = std::move(name);
  v.device = device;
  v.blk = blk;
  v.fs = fs;
  return v;
}

StackConfig StackConfig::of_volume(const VolumeConfig& v,
                                   sim::Simulator::Params sim_params) {
  StackConfig c;
  c.kind = v.kind;
  c.device = v.device;
  c.blk = v.blk;
  c.fs = v.fs;
  c.sim = sim_params;
  return c;
}

NodeConfig NodeConfig::from(const std::vector<StackConfig>& bases) {
  NodeConfig cfg;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (i == 0) cfg.sim = bases[i].sim;
    cfg.volumes.push_back(bases[i].volume("v" + std::to_string(i)));
  }
  return cfg;
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

Stack::Stack(StackConfig config)
    : config_(std::move(config)), sim_(config_.sim) {
  volumes_.push_back(std::make_unique<Volume>(sim_, config_.volume()));
}

Stack::Stack(NodeConfig config) : sim_(config.sim) {
  BIO_CHECK_MSG(!config.volumes.empty(), "node with zero volumes");
  for (VolumeConfig& v : config.volumes)
    volumes_.push_back(std::make_unique<Volume>(sim_, std::move(v)));
  // Materialize the compat surface (config()/kind()) from volume 0.
  config_ = StackConfig::of_volume(volumes_[0]->config(), config.sim);
}

Volume* Stack::find_volume(const std::string& name) noexcept {
  for (const std::unique_ptr<Volume>& v : volumes_)
    if (v->name() == name) return v.get();
  return nullptr;
}

void Stack::start() {
  for (const std::unique_ptr<Volume>& v : volumes_) v->start();
}

}  // namespace bio::core
