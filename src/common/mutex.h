#ifndef SPACETWIST_COMMON_MUTEX_H_
#define SPACETWIST_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace spacetwist {

/// Global lock-rank table — the repo's deadlock-immunity contract
/// (docs/ANALYSIS.md §"Lock ranks"). Every `Mutex` is constructed with one
/// of these ranks, and a thread may only acquire a mutex whose rank is
/// strictly greater than every rank it already holds. Any two code paths
/// that obey this rule cannot form a lock-order cycle, so the whole serving
/// stack is deadlock-free by construction.
///
/// The numeric order is the nesting order observed on the serving paths,
/// outermost first:
///
///   FaultyTransport::RoundTrip holds its schedule lock across
///   inner->HandleFrame          -> kFaultyTransport before everything;
///   Absorb offers a retiring session's spans to the trace sink and
///   stream traversal (a scatter-gather merge's shard streams included)
///   fetches R-tree pages, both under a stripe
///                               -> kEngineFront before kTraceSink /
///                                  kBufferPool;
///   instrument registration may happen under any of the above
///                               -> kMetricRegistry is the innermost.
///
/// Picking a rank for a new Mutex: find every path that can hold your lock
/// while taking another (or vice versa) and slot your rank between them;
/// when the lock is a leaf that never nests, give it the level of the layer
/// it lives in. Gaps between values are left for exactly this. The ordering
/// is enforced twice: statically by clang's acquired_before/after analysis
/// via the sentinels in common/lock_rank.h (-Wthread-safety-beta), and at
/// runtime by the per-thread enforcer below (SPACETWIST_LOCK_RANK_CHECKS).
enum class LockRank : int {
  kFaultyTransport = 100,  ///< net::FaultyTransport schedule (outermost)
  kEventTransport = 150,   ///< engine::InProcessEventTransport queues
  kThreadPool = 200,       ///< service::ThreadPool queue
  kEngineFront = 500,      ///< ServiceEngine session-table stripes
  kTraceSink = 800,        ///< telemetry::TraceSink buffer
  kFlightRecorder = 850,   ///< telemetry::FlightRecorder ring
  kBufferPool = 900,       ///< storage::BufferPool LRU bookkeeping
  kMetricRegistry = 1000,  ///< telemetry::MetricRegistry stripes (innermost)
};

class Mutex;

namespace lock_rank_internal {

#ifdef SPACETWIST_LOCK_RANK_CHECKS
/// Debug-mode runtime enforcer: each thread keeps a stack of the ranked
/// locks it holds. Acquiring a rank <= the deepest held rank aborts with
/// both lock names — the deterministic cross-TU complement to the static
/// acquired_before/after analysis (which cannot see e.g. the stripe ->
/// buffer-pool nesting behind an InnSource's virtual NextBatch). Compiled
/// out entirely when SPACETWIST_LOCK_RANK_CHECKS is OFF (release builds),
/// so the discipline costs nothing where it is not being checked.
void OnAcquire(const Mutex* mu, int rank, const char* name);
void OnRelease(const Mutex* mu, const char* name);
#endif

}  // namespace lock_rank_internal

/// Annotated std::mutex wrapper. Concurrent classes use `Mutex` (not a raw
/// std::mutex) so the clang thread-safety analysis can verify that every
/// access to a `GUARDED_BY(mu_)` member actually holds the lock. Lock it
/// with the scoped `MutexLock` below; call Lock()/Unlock() directly only in
/// code that cannot use a scope (and keep the annotations honest).
///
/// Every Mutex carries a LockRank and a name: the rank feeds the
/// deadlock-immunity enforcement above, the name makes a violation report
/// actionable. Both are compile-time constants at every call site.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name)
#ifdef SPACETWIST_LOCK_RANK_CHECKS
      : rank_(static_cast<int>(rank)), name_(name) {
  }
#else
  {
    (void)rank;
    (void)name;
  }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#ifdef SPACETWIST_LOCK_RANK_CHECKS
    // Checked before blocking: a would-be deadlock aborts with a report
    // instead of hanging the test run.
    lock_rank_internal::OnAcquire(this, rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
#ifdef SPACETWIST_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  /// A failed TryLock leaves the rank stack untouched; a successful one is
  /// held under the same strict ordering rule as Lock() — an out-of-rank
  /// try-lock cannot deadlock by itself, but it licenses a blocking
  /// acquisition elsewhere to, so the discipline stays uniform.
  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifdef SPACETWIST_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(this, rank_, name_);
#endif
    return true;
  }

  /// Underlying handle, for CondVar's adopt/release dance only.
  std::mutex& native() { return mu_; }

 private:
  friend class CondVar;

  std::mutex mu_;
#ifdef SPACETWIST_LOCK_RANK_CHECKS
  const int rank_;
  const char* const name_;
#endif
};

/// RAII lock for `Mutex`, annotated so clang tracks the critical section:
///
///   MutexLock lock(&mu_);
///   // GUARDED_BY(mu_) members may be touched here
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with `Mutex`. Wait() atomically releases and
/// re-acquires the mutex like std::condition_variable::wait; the REQUIRES
/// annotation makes clang verify the caller holds the lock around the wait.
/// Spurious wakeups are possible — always wait in a loop re-checking the
/// guarded predicate.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    // Adopt the already-held lock for the wait, then release the guard so
    // ownership stays with the caller's MutexLock on return. The rank stack
    // mirrors the handoff: the wait drops the rank, the wakeup re-checks it
    // against whatever the thread still holds.
    std::unique_lock<std::mutex> lock(mu->native(), std::adopt_lock);
#ifdef SPACETWIST_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(mu, mu->name_);
#endif
    cv_.wait(lock);
#ifdef SPACETWIST_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(mu, mu->rank_, mu->name_);
#endif
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace spacetwist

#endif  // SPACETWIST_COMMON_MUTEX_H_
