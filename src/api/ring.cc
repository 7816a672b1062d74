#include "api/ring.h"

#include <string>
#include <utility>

#include "sim/simulator.h"

namespace bio::api {

namespace {

bool is_data_op(RingOp op) noexcept {
  return op == RingOp::kRead || op == RingOp::kWrite;
}

/// The inverse of ring_op_for: the sync syscall a ring op runs (kNone for
/// nop and data ops).
Syscall syscall_of(RingOp op) noexcept {
  switch (op) {
    case RingOp::kFsync: return Syscall::kFsync;
    case RingOp::kFdatasync: return Syscall::kFdatasync;
    case RingOp::kFbarrier: return Syscall::kFbarrier;
    case RingOp::kFdatabarrier: return Syscall::kFdatabarrier;
    case RingOp::kOsync: return Syscall::kOsync;
    case RingOp::kDsync: return Syscall::kDsync;
    default: return Syscall::kNone;
  }
}

}  // namespace

std::int32_t negated_errno(Errno e) {
  switch (e) {
    case Errno::kOk: return 0;
    case Errno::kNoEnt: return -2;    // -ENOENT
    case Errno::kBadF: return -9;     // -EBADF
    case Errno::kExist: return -17;   // -EEXIST
    case Errno::kXDev: return -18;    // -EXDEV
    case Errno::kInval: return -22;   // -EINVAL
    case Errno::kNoSpc: return -28;   // -ENOSPC
    case Errno::kIo: return -5;       // -EIO
    case Errno::kRoFs: return -30;    // -EROFS
  }
  return -22;
}

RingOp ring_op_for(Syscall call) noexcept {
  switch (call) {
    case Syscall::kFsync: return RingOp::kFsync;
    case Syscall::kFdatasync: return RingOp::kFdatasync;
    case Syscall::kFbarrier: return RingOp::kFbarrier;
    case Syscall::kFdatabarrier: return RingOp::kFdatabarrier;
    case Syscall::kOsync: return RingOp::kOsync;
    case Syscall::kDsync: return RingOp::kDsync;
    case Syscall::kNone: return RingOp::kNop;
  }
  return RingOp::kNop;
}

Ring::Ring(Vfs& vfs) : core_(std::make_shared<Core>(vfs, vfs.simulator())) {}

Ring::~Ring() {
  core_->closed = true;
  // Wake wait_cqe() callers so they observe the closed ring instead of
  // sleeping on a Notify nobody will signal again.
  core_->cq_ready.notify_all();
}

bool Ring::push(const Sqe& sqe) {
  if (sq_.size() >= kSqEntries) return false;
  sq_.push_back(sqe);
  return true;
}

Errno Ring::precheck(const Sqe& sqe) const {
  if (sqe.op == RingOp::kNop) return Errno::kOk;
  const Result<fs::JournalKind> jk = core_->vfs->journal_kind(sqe.fd);
  if (!jk.ok()) return jk.error();
  if (is_data_op(sqe.op)) {
    if (sqe.npages == 0) return Errno::kInval;
    if (sqe.buf_index >= 0) {
      const auto idx = static_cast<std::size_t>(sqe.buf_index);
      if (idx >= core_->buffer_pages.size()) return Errno::kInval;
      if (sqe.npages > core_->buffer_pages[idx]) return Errno::kInval;
    }
    return Errno::kOk;
  }
  // A sync op must name a call the fd's journal runs (every other op maps
  // to kNone, which no journal runs).
  return fs::supports(syscall_of(sqe.op), jk.value()) ? Errno::kOk
                                                      : Errno::kInval;
}

std::uint32_t Ring::submit(std::uint32_t n) {
  std::uint32_t dispatched = 0;
  while (dispatched < n && !sq_.empty()) {
    // Take one whole chain: consecutive sqes glued by kSqeLink. Chains are
    // never split across submit() calls, so `n` landing mid-chain still
    // takes the chain's tail.
    Chain chain;
    if (!core_->spare_chains.empty()) {
      chain = std::move(core_->spare_chains.back());
      core_->spare_chains.pop_back();
    }
    for (;;) {
      const Sqe sqe = sq_.pop_front();
      const bool linked = (sqe.flags & kSqeLink) != 0 && !sq_.empty();
      chain.push_back(Prepped{sqe, precheck(sqe)});
      if (!linked || ignore_links_) break;
    }
    dispatched += static_cast<std::uint32_t>(chain.size());
    core_->in_flight += static_cast<std::uint32_t>(chain.size());
    core_->sim->spawn("ring-chain", chain_driver(core_, std::move(chain)));
  }
  return dispatched;
}

sim::Task Ring::chain_driver(std::shared_ptr<Core> core, Chain chain) {
  bool cancelled = false;
  for (const Prepped& p : chain) {
    if (core->closed) break;
    if (cancelled) {
      complete(*core, p.sqe, kECanceled);
      continue;
    }
    if (p.precheck != Errno::kOk) {
      // Fail-fast verdict from submit time: an error cqe, never a
      // filesystem call — and the rest of the chain is cancelled.
      complete(*core, p.sqe, negated_errno(p.precheck));
      cancelled = true;
      continue;
    }
    if (core->on_op_start) core->on_op_start(p.sqe);
    const std::int32_t res = co_await execute(*core, p.sqe);
    if (core->closed) break;  // the Ring died while this op was in flight
    complete(*core, p.sqe, res);
    if (res < 0) cancelled = true;
  }
  chain.clear();
  core->spare_chains.push_back(std::move(chain));
}

sim::TaskOf<std::int32_t> Ring::execute(Core& core, const Sqe& sqe) {
  if (sqe.op == RingOp::kNop) co_return 0;
  if (is_data_op(sqe.op)) {
    const Result<std::uint32_t> r =
        sqe.op == RingOp::kRead
            ? co_await core.vfs->pread(sqe.fd, sqe.page, sqe.npages)
            : co_await core.vfs->pwrite(sqe.fd, sqe.page, sqe.npages);
    co_return r.ok() ? static_cast<std::int32_t>(r.value())
                     : negated_errno(r.error());
  }
  const Status s = co_await core.vfs->sync(sqe.fd, syscall_of(sqe.op));
  co_return negated_errno(s.error());
}

void Ring::complete(Core& core, const Sqe& sqe, std::int32_t res) {
  core.cq.push_back(Cqe{sqe.user_data, res});
  --core.in_flight;
  if (core.on_op_complete) core.on_op_complete(sqe, res);
  core.cq_ready.notify_all();
}

sim::TaskOf<Cqe> Ring::wait_cqe() {
  // Local shared_ptr copy taken before the first suspension: the Ring (and
  // with it `this`) may be destroyed while this coroutine sleeps.
  std::shared_ptr<Core> core = core_;
  while (!core->closed && core->cq.empty()) co_await core->cq_ready.wait();
  if (core->cq.empty()) co_return Cqe{0, kECanceled};
  co_return core->cq.pop_front();
}

std::size_t Ring::cq_ready() const noexcept { return core_->cq.size(); }

std::uint32_t Ring::in_flight() const noexcept { return core_->in_flight; }

Status Ring::register_buffers(
    const std::vector<std::uint32_t>& pages_per_buffer) {
  if (!core_->buffer_pages.empty()) return Errno::kInval;
  if (core_->in_flight > 0) return Errno::kInval;
  if (pages_per_buffer.empty()) return Errno::kInval;
  for (std::uint32_t pages : pages_per_buffer)
    if (pages == 0) return Errno::kInval;
  core_->buffer_pages = pages_per_buffer;
  return Status{};
}

void Ring::set_on_op_start(StartHook hook) {
  core_->on_op_start = std::move(hook);
}

void Ring::set_on_op_complete(CompleteHook hook) {
  core_->on_op_complete = std::move(hook);
}

void Ring::set_ignore_links_for_test(bool ignore) noexcept {
  ignore_links_ = ignore;
}

}  // namespace bio::api
