#ifndef SPACETWIST_SERVICE_THREAD_POOL_H_
#define SPACETWIST_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

namespace spacetwist::service {

/// Tuning knobs for ThreadPool. Defaults preserve the historical behavior
/// (unbounded queue, process-default registry).
struct ThreadPoolOptions {
  /// Maximum number of *queued* (not yet executing) tasks. 0 = unbounded.
  /// When the bound is hit, TrySubmit rejects with kResourceExhausted —
  /// the same backpressure signal the serving engine uses — instead of
  /// letting an overloaded submitter grow the deque without limit.
  size_t max_queue = 0;
  /// Instrument sink; nullptr = process-wide default registry.
  telemetry::MetricRegistry* registry = nullptr;
};

/// Fixed-size worker pool executing submitted tasks FIFO. The serving
/// engine's request executor, used in both load modes (docs/SERVICE.md §7):
///
///  * Closed-loop (`eval::RunLoad` under `Pacing::kClosed`): one task per
///    client step, each task re-enqueues the client's next query from
///    inside itself, so the queue never exceeds the client count and
///    `Submit` suffices.
///  * Open-loop (`engine::EventEngine`): the event loop admits decoded
///    requests via `TrySubmit` against a `max_queue` bound; when arrivals
///    outrun the workers the pool rejects with kResourceExhausted and the
///    engine turns that into wire-level backpressure.
///
/// `Wait()` barriers on full drain and accounts for re-submissions because
/// a task is only retired after it finishes running.
///
/// Exported instruments (docs/OBSERVABILITY.md):
///   service.thread_pool.queue_depth       gauge, queued tasks right now
///   service.thread_pool.queue_depth_hist  histogram, depth at each submit
///   service.thread_pool.rejected          counter, TrySubmit bound hits
class ThreadPool {
 public:
  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit ThreadPool(size_t num_threads)
      : ThreadPool(num_threads, ThreadPoolOptions{}) {}
  ThreadPool(size_t num_threads, const ThreadPoolOptions& options);

  /// Drains every pending task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task`; runs as soon as a worker frees up. Ignores the
  /// `max_queue` bound — for closed-loop submitters whose in-flight count
  /// is structurally bounded (one task per client).
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Bounded enqueue: rejects with kResourceExhausted when `max_queue`
  /// tasks are already queued (never rejects when the bound is 0). The
  /// task is untouched on rejection, so the caller can retry or shed it.
  [[nodiscard]] Status TrySubmit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until no task is queued or running. Safe to call repeatedly;
  /// new work may be submitted afterwards.
  void Wait() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  void Enqueue(std::function<void()> task) REQUIRES(mu_);

  const size_t max_queue_;

  // Rank: near-outermost — workers run tasks *outside* the queue lock, but
  // Submit may be called from client code holding nothing, and a task that
  // re-submits does so after the lock is dropped.
  Mutex mu_ ACQUIRED_AFTER(lock_order::kThreadPool)
      ACQUIRED_BEFORE(lock_order::kEngineFront){LockRank::kThreadPool,
                                                "service.thread_pool"};
  CondVar work_cv_;  ///< signals workers: work or shutdown
  CondVar idle_cv_;  ///< signals Wait(): fully drained
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;  ///< queued + executing tasks
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< written only in ctor/dtor

  telemetry::Gauge* queue_depth_;          ///< resolved once in ctor
  telemetry::Histogram* queue_depth_hist_;
  telemetry::Counter* rejected_;
};

}  // namespace spacetwist::service

#endif  // SPACETWIST_SERVICE_THREAD_POOL_H_
