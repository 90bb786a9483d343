#ifndef SPACETWIST_STORAGE_BUFFER_POOL_H_
#define SPACETWIST_STORAGE_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <unordered_map>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "telemetry/registry.h"

namespace spacetwist::storage {

/// LRU page cache in front of a Pager. All R-tree traversal goes through
/// this class, so its counters measure query-time server load (logical vs
/// physical page reads). Writes are write-through: the working sets here are
/// read-mostly after bulk load, and write-through keeps recovery semantics
/// trivial for the simulation.
///
/// Fetch returns a shared handle; a page stays valid while any handle is
/// alive even if the pool evicts it, so cursors can safely hold nodes across
/// subsequent fetches.
///
/// Thread-safe: the LRU/map bookkeeping and counters are guarded by an
/// internal mutex (annotated, so lock discipline is compile-checked on
/// clang), which lets many sessions traverse the same tree from worker
/// threads (the serving engine, src/service). The lock covers only the
/// bookkeeping; page deserialization happens outside it in the callers, and
/// the uncontended single-threaded cost is a few nanoseconds per fetch.
class BufferPool {
 public:
  using PageHandle = std::shared_ptr<const Page>;

  /// `capacity` is the number of cached pages (>= 1). Cache traffic is
  /// additionally published to `registry` (null = the process-wide default)
  /// as the storage.buffer_pool.{hits,misses,evictions} counters — the
  /// paper's R-tree node I/O cost metric, aggregated across pools.
  BufferPool(Pager* pager, size_t capacity,
             telemetry::MetricRegistry* registry = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t capacity() const { return capacity_; }
  size_t cached_pages() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return map_.size();
  }
  /// Snapshot of the I/O counters (consistent even under concurrency).
  IoStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  Pager* pager() const { return pager_; }

  /// Fetches page `id`, from cache when possible. When `missed` is
  /// non-null it receives whether this fetch went to the pager — the
  /// per-fetch answer a before/after stats() diff cannot give once other
  /// threads share the pool.
  Result<PageHandle> Fetch(PageId id, bool* missed = nullptr) EXCLUDES(mu_);

  /// Writes `page` through to disk and refreshes the cached copy.
  Status Write(PageId id, const Page& page) EXCLUDES(mu_);

  /// Allocates a fresh page on the underlying pager.
  PageId Allocate();

  /// Drops all cached pages (counters are preserved).
  void Clear() EXCLUDES(mu_);

 private:
  struct Entry {
    PageHandle page;
    std::list<PageId>::iterator lru_it;
  };

  void Touch(PageId id, Entry* entry) REQUIRES(mu_);
  void EvictIfNeeded() REQUIRES(mu_);

  Pager* pager_;
  size_t capacity_;
  telemetry::Counter* hits_;
  telemetry::Counter* misses_;
  telemetry::Counter* evictions_;
  // Rank: fetched during R-tree traversal under an engine stripe, so it
  // sits below both engine levels; only the registry nests inside it.
  mutable Mutex mu_ ACQUIRED_AFTER(lock_order::kBufferPool)
      ACQUIRED_BEFORE(lock_order::kMetricRegistry){LockRank::kBufferPool,
                                                   "storage.buffer_pool"};
  std::list<PageId> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<PageId, Entry> map_ GUARDED_BY(mu_);
  IoStats stats_ GUARDED_BY(mu_);
};

}  // namespace spacetwist::storage

#endif  // SPACETWIST_STORAGE_BUFFER_POOL_H_
