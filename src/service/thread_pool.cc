#include "service/thread_pool.h"

#include <utility>

#include "common/logging.h"

namespace spacetwist::service {

ThreadPool::ThreadPool(size_t num_threads, const ThreadPoolOptions& options) {
  SPACETWIST_CHECK(num_threads >= 1);
  telemetry::MetricRegistry* registry =
      telemetry::MetricRegistry::OrDefault(options.registry);
  queue_depth_ = registry->GetGauge("service.thread_pool.queue_depth");
  queue_depth_hist_ =
      registry->GetHistogram("service.thread_pool.queue_depth_hist");
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    SPACETWIST_CHECK(!stopping_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    const auto depth = static_cast<int64_t>(queue_.size());
    queue_depth_->Set(depth);
    queue_depth_hist_->Record(static_cast<uint64_t>(depth));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) idle_cv_.Wait(&mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    task();
    {
      MutexLock lock(&mu_);
      if (--in_flight_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace spacetwist::service
