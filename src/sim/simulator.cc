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
  ready_.clear();
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
  if (at == now_)
    ready_.push_back({h.address(), aux});
  else
    queue_.push(Scheduled{at, next_seq_++, h.address(), aux});
}

void Simulator::resume(void* frame, std::uintptr_t aux) {
  ++events_dispatched_;
  ThreadCtx* thr = reinterpret_cast<ThreadCtx*>(aux & ~kWakeupBit);
  if ((aux & kWakeupBit) != 0 && thr != nullptr) ++thr->context_switches;
  current_ = thr;
  std::coroutine_handle<>::from_address(frame).resume();
  current_ = nullptr;
}

bool Simulator::dispatch_next(SimTime t) {
  // A heap entry due now was pushed before time reached now, so it precedes
  // every resume scheduled during this instant (the ready queue).
  if (!queue_.empty() && queue_.top().at == now_) {
    const Scheduled ev = queue_.pop();
    resume(ev.frame, ev.aux);
  } else if (!ready_.empty()) {
    const Ready e = ready_.pop_front();
    resume(e.frame, e.aux);
  } else if (!queue_.empty() && queue_.top().at <= t) {
    const Scheduled ev = queue_.pop();
    now_ = ev.at;
    resume(ev.frame, ev.aux);
  } else {
    return false;
  }
  return true;
}

void Simulator::run() {
  while (!failure_ && dispatch_next(kSimTimeMax)) {
  }
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulator::run_until(SimTime t) {
  if (now_ <= t) {
    while (!failure_ && dispatch_next(t)) {
    }
    // A failure may have left resumes due at or before `t`: time must not
    // pass them, or it would later run backwards.
    if (ready_.empty() && (queue_.empty() || queue_.top().at > t)) now_ = t;
  }
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulator::on_top_level_done(ThreadCtx* thr, std::exception_ptr error) {
  if (error && !failure_) failure_ = error;
  if (thr == nullptr) return;
  thr->frame_ = {};
  thr->finished = true;
  thr->joiners.wake_all(*this);
  if (thr->pins_ == 0) recycle(*thr);
}

}  // namespace bio::sim
