#include "blk/block_layer.h"

namespace bio::blk {

BlockLayer::BlockLayer(sim::Simulator& sim, flash::StorageDevice& dev,
                       BlockLayerConfig config)
    : sim_(sim), dev_(dev), config_(std::move(config)), pool_(sim),
      drained_(sim) {
  BIO_CHECK_MSG(config_.nr_queues >= 1, "nr_queues must be >= 1");
  // The fence exists only when there is something to fence across: several
  // queues whose sequencers run epoch ordering independently. Single-queue
  // stacks keep fence_ null and take none of the fence branches.
  if (config_.nr_queues > 1 && order_preserving())
    fence_ = std::make_unique<EpochFence>(sim);
  queues_.reserve(config_.nr_queues);
  for (std::uint32_t q = 0; q < config_.nr_queues; ++q) {
    auto queue = std::make_unique<Queue>(sim);
    std::unique_ptr<IoScheduler> base = make_scheduler(config_.scheduler);
    if (order_preserving()) {
      auto epoch = std::make_unique<EpochScheduler>(std::move(base));
      epoch->set_fence(fence_.get());
      queue->epoch = epoch.get();
      queue->scheduler = std::move(epoch);
    } else {
      queue->scheduler = std::move(base);
    }
    queues_.push_back(std::move(queue));
  }
}

void BlockLayer::start() {
  BIO_CHECK(!started_);
  started_ = true;
  for (std::uint32_t q = 0; q < queues_.size(); ++q)
    sim_.spawn("blk:dispatch", dispatch_loop(q));
}

void BlockLayer::submit(RequestPtr r) {
  const sim::ThreadCtx* t = sim_.current_thread();
  const std::uint32_t q =
      t == nullptr ? 0 : static_cast<std::uint32_t>(t->id % queues_.size());
  submit_on(q, std::move(r));
}

void BlockLayer::submit_on(std::uint32_t queue, RequestPtr r) {
  BIO_CHECK_MSG(started_, "BlockLayer::start() not called");
  BIO_CHECK(queue < queues_.size());
  ++stats_.submitted;
  queues_[queue]->scheduler->enqueue(std::move(r));
  if (backlog() > config_.nr_requests) congested_ = true;
  queues_[queue]->work.notify_all();
}

std::size_t BlockLayer::backlog() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q->scheduler->size();
  return n;
}

bool BlockLayer::peers_drained(std::uint32_t queue,
                               std::uint64_t epoch) const {
  for (std::uint32_t j = 0; j < queues_.size(); ++j) {
    if (j == queue) continue;
    if (queues_[j]->epoch->min_pending_fence_epoch() <= epoch) return false;
  }
  return true;
}

sim::Task BlockLayer::throttle() {
  while (congested_) co_await drained_.wait();
}

std::shared_ptr<flash::Command> BlockLayer::to_command(const RequestPtr& r,
                                                       bool fault_aware) const {
  // The command is embedded in the request; the device receives an aliasing
  // shared_ptr into it, which both avoids a per-dispatch allocation and
  // keeps the request alive while the device holds the command.
  flash::Command& cmd = r->cmd;
  cmd = flash::Command{};
  // Fault-aware dispatch interposes the retry watcher between the device
  // IRQ and the host-visible completion; otherwise the device IRQ *is* the
  // completion, exactly as before fault injection existed.
  cmd.done = fault_aware ? &r->device_done : &r->completion;
  cmd.fence_epoch = r->fence_epoch;
  switch (r->op) {
    case ReqOp::kWrite:
      cmd.op = flash::OpCode::kWrite;
      cmd.blocks = std::span<const Block>(r->blocks.data(), r->blocks.size());
      cmd.fua = r->fua;
      cmd.flush_before = r->flush;
      if (order_preserving()) {
        cmd.barrier = r->barrier;
        // §3.4: the barrier write is dispatched with ORDERED priority; all
        // other writes (even order-preserving ones) stay SIMPLE, because
        // intra-epoch reordering is legal.
        cmd.priority =
            r->barrier ? flash::Priority::kOrdered : flash::Priority::kSimple;
      } else {
        // Legacy stack: ordering attributes never reach the device.
        cmd.barrier = false;
        cmd.priority = flash::Priority::kSimple;
      }
      break;
    case ReqOp::kRead:
      cmd.op = flash::OpCode::kRead;
      cmd.read_lba = r->read_lba;
      break;
    case ReqOp::kFlush:
      cmd.op = flash::OpCode::kFlush;
      cmd.priority = flash::Priority::kHeadOfQueue;
      break;
  }
  return std::shared_ptr<flash::Command>(r, &cmd);
}

sim::Task BlockLayer::dispatch_loop(std::uint32_t q) {
  Queue& queue = *queues_[q];
  for (;;) {
    RequestPtr r = queue.scheduler->dequeue();
    if (r == nullptr) {
      co_await queue.work.wait();
      continue;
    }
    // Cross-queue fence protocol; fence_ is null on single-queue stacks and
    // every branch below collapses away.
    const bool fenced = fence_ != nullptr;
    if (fenced && r->barrier) {
      // Submission gate: the device fences transfers by (fence_epoch, seq),
      // but it cannot fence requests it has not seen. Hold the barrier until
      // every peer queue has submitted its work stamped <= the epoch this
      // barrier closes. Idle queues have nothing pending and never stall
      // the gate; peers keep draining while it waits.
      while (!peers_drained(q, r->fence_epoch))
        co_await fence_->progress().wait();
    }
    const bool fault_aware = dev_.has_fault_plan();
    std::shared_ptr<flash::Command> cmd = to_command(r, fault_aware);
    cmd->port = q % dev_.port_count();
    co_await submit_until_accepted(cmd);
    ++stats_.dispatched;
    if (fenced && r->is_write()) {
      // The write's stamp stops gating peer barriers; wake any gate
      // waiting for this queue to drain.
      queue.epoch->note_submitted(*r);
      fence_->progress().notify_all();
    }
    if (congested_ && backlog() <= config_.nr_requests / 2) {
      congested_ = false;
      drained_.notify_all();
    }
    if (fault_aware) sim_.spawn("blk:retry", retry_watcher(r, std::move(cmd)));
    if (!r->absorbed.empty()) sim_.spawn("blk:fanout", fanout(r));
  }
}

sim::Task BlockLayer::submit_until_accepted(
    const std::shared_ptr<flash::Command>& cmd) {
  while (!dev_.try_submit(cmd)) {
    ++stats_.busy_retries;
    co_await dev_.queue_activity().wait();
  }
}

sim::Task BlockLayer::fanout(RequestPtr r) {
  co_await r->completion.wait();
  trigger_absorbed(*r);
}

sim::Task BlockLayer::retry_watcher(RequestPtr r,
                                    std::shared_ptr<flash::Command> cmd) {
  co_await r->device_done.wait();
  std::uint32_t attempt = 0;
  for (;;) {
    if (r->cmd.status == flash::IoStatus::kOk) break;
    if (r->cmd.status == flash::IoStatus::kHardError) {
      // Media error: retrying cannot help, fail through immediately.
      ++stats_.hard_faults;
      break;
    }
    ++stats_.transient_faults;
    if (attempt >= config_.max_io_retries) break;  // bounded: give up
    ++attempt;
    ++stats_.io_retries;
    co_await sim_.delay(config_.io_retry_backoff << (attempt - 1));
    // Re-arm and re-dispatch the same command (same payload span; a torn
    // write's retry re-lands the full payload).
    r->cmd.status = flash::IoStatus::kOk;
    r->device_done.recycle();
    co_await submit_until_accepted(cmd);
    co_await r->device_done.wait();
  }
  if (r->cmd.status != flash::IoStatus::kOk) {
    ++stats_.io_failures;
    if (swallow_io_errors_) r->cmd.status = flash::IoStatus::kOk;
  }
  r->completion.trigger();
}

sim::Task BlockLayer::write_and_wait(std::vector<Block> blocks, bool ordered,
                                     bool barrier, bool flush, bool fua) {
  RequestPtr r = pool_.make_write(std::span<const Block>(blocks), ordered,
                                  barrier, flush, fua);
  submit(r);
  co_await r->completion.wait();
}

sim::Task BlockLayer::flush_and_wait() {
  RequestPtr r = pool_.make_flush();
  submit(r);
  co_await r->completion.wait();
}

sim::Task BlockLayer::read_and_wait(flash::Lba lba) {
  RequestPtr r = pool_.make_read(lba);
  submit(r);
  co_await r->completion.wait();
}

}  // namespace bio::blk
