#include "src/sweep/commit.h"

namespace ccas::sweep {

CommitPipeline::CommitPipeline(int lanes, std::function<void()> tick,
                               std::chrono::milliseconds tick_every)
    : tick_(std::move(tick)),
      tick_every_(tick_every),
      pending_(static_cast<size_t>(lanes > 0 ? lanes : 1), false),
      writer_([this] { writer_loop(); }) {}

CommitPipeline::~CommitPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
  }
  work_cv_.notify_all();
  writer_.join();
}

void CommitPipeline::submit(int lane, Job job) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return !pending_[static_cast<size_t>(lane)]; });
  pending_[static_cast<size_t>(lane)] = true;
  queue_.emplace_back(lane, std::move(job));
  lock.unlock();
  work_cv_.notify_one();
}

void CommitPipeline::drain(int lane) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return !pending_[static_cast<size_t>(lane)]; });
}

void CommitPipeline::writer_loop() {
  using Clock = std::chrono::steady_clock;
  const bool ticking = tick_ && tick_every_ > std::chrono::milliseconds::zero();
  Clock::time_point next_tick = Clock::now() + tick_every_;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto ready = [this] { return closing_ || !queue_.empty(); };
    if (ticking) {
      work_cv_.wait_until(lock, next_tick, ready);
      if (Clock::now() >= next_tick) {
        lock.unlock();
        tick_();
        lock.lock();
        next_tick = Clock::now() + tick_every_;
        continue;
      }
    } else {
      work_cv_.wait(lock, ready);
    }
    if (queue_.empty()) {
      if (closing_) return;
      continue;
    }
    auto [lane, job] = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    job();
    job = nullptr;  // release captures before the lane is reported idle
    lock.lock();
    pending_[static_cast<size_t>(lane)] = false;
    done_cv_.notify_all();
  }
}

}  // namespace ccas::sweep
