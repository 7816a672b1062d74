#include "sim/simulator.h"

namespace bio::sim {

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(
    Task::Handle h) noexcept {
  auto& p = h.promise();
  if (p.continuation) return p.continuation;
  // Top-level (detached) task: self-destroy and notify the simulator.
  Simulator* sim = p.sim;
  ThreadCtx* thr = p.thread;
  std::exception_ptr error = p.error;
  h.destroy();
  if (sim != nullptr) sim->on_top_level_done(thr, error);
  return std::noop_coroutine();
}

std::coroutine_handle<> Task::Awaiter::await_suspend(
    std::coroutine_handle<> parent) {
  BIO_CHECK_MSG(!child.promise().detached,
                "cannot co_await a task that was spawned");
  child.promise().continuation = parent;
  return child;  // symmetric transfer: start the child immediately
}

Simulator::~Simulator() {
  // Drop pending events first so nothing resumes into destroyed frames,
  // then destroy the frames of still-suspended top-level tasks (this
  // cascades into any nested child tasks they own). A destroyed frame may
  // drop Thread handles, which recycle contexts into the still-live pool.
  queue_.clear();
  for (std::size_t i = 0; i < contexts_.size(); ++i)
    if (contexts_[i].frame_) std::exchange(contexts_[i].frame_, {}).destroy();
}

Thread Simulator::spawn(std::string name, Task task) {
  BIO_CHECK_MSG(task.valid(), "spawn of an empty task");
  ThreadCtx* ctx = free_contexts_;
  if (ctx != nullptr) {
    free_contexts_ = ctx->next_free_;
    ctx->next_free_ = nullptr;
    ctx->context_switches = 0;
    ctx->blocks = 0;
    ctx->finished = false;
    ctx->wake_latency.reset();
  } else {
    ctx = &contexts_.emplace_back();
    ctx->sim_ = this;
  }
  ctx->name = std::move(name);
  ctx->id = next_thread_id_++;

  Task::Handle h = task.release();
  h.promise().sim = this;
  h.promise().detached = true;
  h.promise().thread = ctx;
  ctx->frame_ = h;
  schedule_resume(now_, h, ctx, false);
  return Thread(*ctx);
}

void Simulator::schedule_resume(SimTime at, std::coroutine_handle<> h,
                                ThreadCtx* thr, bool is_wakeup) {
  BIO_CHECK_MSG(at >= now_, "scheduling into the past");
  const std::uintptr_t aux = reinterpret_cast<std::uintptr_t>(thr) |
                             (is_wakeup ? kWakeupBit : 0);
  queue_.push(Scheduled{at, next_seq_++, h.address(), aux});
}

void Simulator::dispatch(const Scheduled& ev) {
  now_ = ev.at;
  ++events_dispatched_;
  ThreadCtx* thr = reinterpret_cast<ThreadCtx*>(ev.aux & ~kWakeupBit);
  if ((ev.aux & kWakeupBit) != 0 && thr != nullptr) ++thr->context_switches;
  current_ = thr;
  std::coroutine_handle<>::from_address(ev.frame).resume();
  current_ = nullptr;
}

void Simulator::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    const Scheduled ev = queue_.pop();
    dispatch(ev);
  }
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulator::run_until(SimTime t) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.top().at <= t) {
    const Scheduled ev = queue_.pop();
    dispatch(ev);
  }
  if (now_ < t) now_ = t;
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulator::on_top_level_done(ThreadCtx* thr, std::exception_ptr error) {
  if (error) {
    if (!failure_) failure_ = error;
    stopped_ = true;
  }
  if (thr == nullptr) return;
  thr->frame_ = {};
  thr->finished = true;
  thr->joiners.wake_all(*this);
  if (thr->pins_ == 0) recycle(*thr);
}

}  // namespace bio::sim
