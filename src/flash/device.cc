#include "flash/device.h"

#include <algorithm>
#include <iterator>

namespace bio::flash {

StorageDevice::StorageDevice(sim::Simulator& sim, DeviceProfile profile)
    : sim_(sim),
      profile_(std::move(profile)),
      nand_(sim, profile_.geometry, profile_.nand,
            profile_.barrier_mode != BarrierMode::kNone && !profile_.plp
                ? profile_.barrier_program_penalty
                : 0.0),
      log_(sim, nand_),
      cache_(sim, profile_.cache_entries),
      queue_event_(sim),
      // At most two cache->flash programs in flight per chip.
      drain_slots_(sim, 2 * profile_.geometry.chips()) {
  // One submission port per flash channel (blk-mq hardware queues).
  ports_.reserve(profile_.geometry.channels);
  for (std::uint32_t i = 0; i < profile_.geometry.channels; ++i)
    ports_.push_back(std::make_unique<Port>(sim_));
}

void StorageDevice::start() {
  BIO_CHECK(!started_);
  started_ = true;
  start_time_ = sim_.now();
  qd_last_change_ = sim_.now();
  log_.start();
  // Device-internal actors are hardware: no host scheduler wake latency.
  sim_.spawn("dev:drain", drain_loop())->wake_latency = 0;
}

bool StorageDevice::try_submit(std::shared_ptr<Command> cmd) {
  BIO_CHECK_MSG(started_, "StorageDevice::start() not called");
  BIO_CHECK_MSG(cmd->done != nullptr, "command without completion event");
  Port& port = *ports_[cmd->port % ports_.size()];
  if (port.window.size() >= profile_.queue_depth) {
    ++stats_.busy_rejections;
    return false;
  }
  cmd->seq = next_seq_++;
  ++port.submissions;
  if (port.free_slots.empty()) port.free_slots.emplace_back();
  port.window.splice(port.window.end(), port.free_slots,
                     port.free_slots.begin());
  const SlotIter it = std::prev(port.window.end());
  *it = Slot{std::move(cmd), false};
  // A new data command may precede the current minima (a lower fence epoch
  // on another port), so the frontier moves here too. That only pushes back
  // other commands' transfer turns, so no waiter needs a notify.
  const Command& c = *it->cmd;
  if (c.op != OpCode::kFlush) {
    data_front_ = std::min(data_front_, key_of(c));
    if (c.priority == Priority::kOrdered)
      ordered_front_ = std::min(ordered_front_, key_of(c));
  }
  note_qd_change();
  // iolint: detached-owner(ports_ live on the device, which outlives every
  // command handler; complete() recycles only this handler's own slot)
  sim_.spawn("dev:cmd", handle(port, it))->wake_latency = 0;
  return true;
}

bool StorageDevice::transfer_eligible(const Slot& slot) {
  // §3.4: the command *processing* overlaps freely; only the order of the
  // data transfers is fenced by ORDERED priorities. "Earlier" means lower
  // (fence_epoch, seq), across every port's window — ports parallelise
  // transfers, not the ordering contract. Epoch-major: multi-queue hosts
  // can submit commands out of epoch order across ports, and a lower fence
  // epoch always transfers first. Fenced hosts stamp EVERY command (reads
  // and orderless writes included) with its enqueue-time epoch, so no
  // command jumps the fence with a stale epoch-0 stamp; single-queue hosts
  // stamp every command epoch 0, collapsing this to the classic seq order.
  const Command& cmd = *slot.cmd;
  if (cmd.priority == Priority::kHeadOfQueue) return true;
  if (cmd.op == OpCode::kFlush) return true;  // flushes never wait for data
  if (frontier_stale_) refresh_frontier();
  // ORDERED: every earlier data command has transferred. SIMPLE: every
  // earlier ORDERED data command has.
  const FenceKey& front =
      cmd.priority == Priority::kOrdered ? data_front_ : ordered_front_;
  return !(front < key_of(cmd));
}

void StorageDevice::refresh_frontier() {
  data_front_ = ordered_front_ = kNoCommand;
  for (const auto& port : ports_) {
    for (const Slot& s : port->window) {
      if (s.dma_done || s.cmd->op == OpCode::kFlush) continue;
      data_front_ = std::min(data_front_, key_of(*s.cmd));
      if (s.cmd->priority == Priority::kOrdered)
        ordered_front_ = std::min(ordered_front_, key_of(*s.cmd));
    }
  }
  frontier_stale_ = false;
}

void StorageDevice::note_transferred(Slot& slot) {
  slot.dma_done = true;
  // Retiring a command that is not a minimum leaves both minima as they are.
  const FenceKey k = key_of(*slot.cmd);
  if (k == data_front_ || k == ordered_front_) frontier_stale_ = true;
}

sim::Task StorageDevice::handle(Port& port, SlotIter it) {
  switch (it->cmd->op) {
    case OpCode::kWrite:
      return handle_write(port, it);
    case OpCode::kRead:
      return handle_read(port, it);
    case OpCode::kFlush:
      return handle_flush(port, it);
  }
  BIO_CHECK_MSG(false, "unknown command opcode");
  return {};
}

void StorageDevice::complete(Port& port, SlotIter it) {
  // The slot already transferred (or is a flush), so it holds no frontier
  // minimum: recycling it leaves the frontier as it is, with no refresh.
  // Keep the command (and, through the aliased ownership, the originating
  // request) alive past the slot's recycling: `done` points into that
  // request.
  std::shared_ptr<Command> cmd = std::move(it->cmd);
  port.free_slots.splice(port.free_slots.begin(), port.window, it);
  note_qd_change();
  queue_event_.notify_all();
  cmd->done->trigger();
}

sim::Task StorageDevice::handle_write(Port& port, SlotIter it) {
  std::shared_ptr<Command> cmd = it->cmd;
  // GC stall: the controller is busy while GC erases a segment, the
  // classic pause behind the 99.99th-percentile latency tails (Table 1).
  while (log_.erasing()) co_await log_.erase_done().wait();
  co_await sim_.delay(profile_.cmd_overhead);
  if (cmd->flush_before) co_await do_flush();

  while (!transfer_eligible(*it)) co_await queue_event_.wait();
  co_await port.host_bus.acquire();
  co_await sim_.delay(profile_.dma_4k *
                      static_cast<sim::SimTime>(cmd->blocks.size()));
  // Fault injection decides how much of the payload lands. A transient
  // program failure lands nothing; a torn write lands its leading blocks;
  // timing (bus, DMA) is identical either way.
  const FaultSpec* fault =
      fault_plan_ == nullptr
          ? nullptr
          : fault_plan_->match_write(++fault_write_ops_, cmd->blocks);
  std::size_t land = cmd->blocks.size();
  if (fault != nullptr && fault->kind != FaultKind::kHardMedia &&
      profile_.barrier_mode != BarrierMode::kNone) {
    // A barrier-enabled device absorbs transient program failures (and
    // tears) in its own FTL: remap + reprogram, charged one extra tPROG.
    // Surfacing the error would void the ordering contract the device
    // sells — the host-side retry re-enters a *later* epoch, so a commit
    // record behind the failed write could drain first and recovery would
    // replay it over a stale descriptor chain (DESIGN.md §11). Hard media
    // errors still fail through: reprogramming cannot fix them.
    ++stats_.faults_injected;
    ++stats_.in_device_retries;
    co_await sim_.delay(profile_.nand.program_page);
    fault = nullptr;
  } else if (fault != nullptr) {
    ++stats_.faults_injected;
    cmd->status = fault->kind == FaultKind::kHardMedia
                      ? IoStatus::kHardError
                      : IoStatus::kTransientError;
    land = fault->kind == FaultKind::kTornWrite
               ? std::min<std::size_t>(fault->torn_keep, land)
               : 0;
    // A barrier write that hard-fails is rejected atomically: admitting a
    // torn prefix of an epoch-delimiting write would let the *next* epoch
    // persist over the hole (the stale blocks never entered the cache, so
    // in-order drain cannot fence on them) — a durable commit record over
    // a torn descriptor chain, which non-checksummed journals cannot
    // detect at recovery (DESIGN.md §11).
    if (cmd->barrier && profile_.barrier_mode != BarrierMode::kNone) land = 0;
  }
  // A failed write never closes an epoch: the barrier tag travels on the
  // last block, which did not land (or landed without the device's
  // completion promise).
  const bool honor_barrier = fault == nullptr && cmd->barrier &&
                             profile_.barrier_mode != BarrierMode::kNone;
  for (std::size_t i = 0; i < land; ++i) {
    const bool last = i + 1 == cmd->blocks.size();
    co_await cache_.acquire_slot();
    cache_.insert(cmd->blocks[i].first, cmd->blocks[i].second, epoch_,
                  honor_barrier && last);
  }
  port.host_bus.release();
  const std::uint64_t through = cache_.next_order();
  cmd->persist_through = land > 0 ? through : 0;
  if (honor_barrier) ++epoch_;
  if (cmd->barrier && fault == nullptr) ++stats_.barrier_writes;
  note_transferred(*it);
  queue_event_.notify_all();

  if (cmd->fua && fault == nullptr) {
    if (profile_.fua_implies_flush && !profile_.plp)
      co_await do_flush();  // SATA-style FUA: write + full flush
    else
      while (!persisted_through(through)) co_await cache_.drained().wait();
  }

  ++stats_.writes;
  stats_.blocks_written += land;
  complete(port, it);
}

sim::Task StorageDevice::handle_read(Port& port, SlotIter it) {
  std::shared_ptr<Command> cmd = it->cmd;
  co_await sim_.delay(profile_.cmd_overhead);
  if (fault_plan_ != nullptr) {
    const FaultSpec* fault =
        fault_plan_->match_read(++fault_read_ops_, cmd->read_lba);
    if (fault != nullptr) {
      ++stats_.faults_injected;
      cmd->status = fault->kind == FaultKind::kHardMedia
                        ? IoStatus::kHardError
                        : IoStatus::kTransientError;
    }
  }
  if (cache_.lookup(cmd->read_lba).has_value()) {
    ++stats_.cache_read_hits;
    co_await sim_.delay(profile_.read_hit_latency);
  } else {
    co_await log_.read(cmd->read_lba);
  }
  while (!transfer_eligible(*it)) co_await queue_event_.wait();
  co_await port.host_bus.acquire();
  co_await sim_.delay(profile_.dma_4k);
  port.host_bus.release();
  note_transferred(*it);
  queue_event_.notify_all();
  ++stats_.reads;
  complete(port, it);
}

sim::Task StorageDevice::handle_flush(Port& port, SlotIter it) {
  while (log_.erasing()) co_await log_.erase_done().wait();
  co_await sim_.delay(profile_.cmd_overhead);
  co_await do_flush();
  ++stats_.flushes;
  complete(port, it);
}

sim::Task StorageDevice::do_flush() {
  const std::uint64_t seq = ++flush_entries_;
  co_await sim_.delay(profile_.flush_overhead);
  // The snapshot: every entry transferred so far.
  const std::uint64_t through = cache_.next_order();
  if (profile_.plp) {
    // Power-safe cache: a flush only acknowledges.
    co_await sim_.delay(profile_.plp_flush_latency);
  } else {
    while (!cache_.drained_through(through)) co_await cache_.drained().wait();
  }
  flush_horizon_ = std::max(flush_horizon_, seq);
  flushed_through_ = std::max(flushed_through_, through);
}

bool StorageDevice::persisted_through(std::uint64_t through) const noexcept {
  return profile_.plp || cache_.drained_through(through);
}

// ---- drain ----------------------------------------------------------------

sim::Task StorageDevice::drain_loop() {
  for (;;) {
    WritebackCache::Entry e;
    while (!cache_.try_claim(e)) co_await cache_.inserted().wait();
    SegmentLog::Reservation r;
    // Sequential reservation: log order == transfer order, which is what
    // in-order recovery truncation relies on.
    while (!log_.try_reserve(e.lba, e.version, r))
      co_await log_.space_freed().wait();
    co_await drain_slots_.acquire();
    sim_.spawn("dev:pgm", drain_one(e, r))->wake_latency = 0;
  }
}

sim::Task StorageDevice::drain_one(WritebackCache::Entry e,
                                   SegmentLog::Reservation r) {
  co_await nand_.program(log_.chip_of(r));
  log_.programmed(r);
  cache_.mark_drained(e.order);
  drain_slots_.release();
}

// ---- analysis --------------------------------------------------------------

std::unordered_map<Lba, Version> StorageDevice::durable_state() const {
  if (profile_.plp) {
    // The cache survives power loss: programmed pages overlaid with every
    // still-cached entry, in transfer order.
    auto state = log_.durable_programmed_set();
    for (const auto& e : cache_.undrained_entries())
      state[e.lba] = e.version;
    return state;
  }
  switch (profile_.barrier_mode) {
    case BarrierMode::kInOrderRecovery:
      return log_.durable_in_order_recovery();
    case BarrierMode::kNone:
      return log_.durable_programmed_set();
  }
  return {};
}

void StorageDevice::note_qd_change() {
  const sim::SimTime now = sim_.now();
  qd_area_ += static_cast<double>(qd_current_) *
              static_cast<double>(now - qd_last_change_);
  qd_last_change_ = now;
  qd_current_ = queue_depth();
  if (qd_trace_enabled_)
    qd_trace_.record(now, static_cast<double>(qd_current_));
}

void StorageDevice::reset_qd_accounting() {
  qd_area_ = 0.0;
  qd_last_change_ = sim_.now();
  start_time_ = sim_.now();
  qd_trace_.clear();
}

double StorageDevice::average_queue_depth() const {
  const sim::SimTime now = sim_.now();
  const double area = qd_area_ + static_cast<double>(qd_current_) *
                                     static_cast<double>(now - qd_last_change_);
  const sim::SimTime span = now - start_time_;
  return span == 0 ? 0.0 : area / static_cast<double>(span);
}

}  // namespace bio::flash
