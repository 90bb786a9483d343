#include "storage/buffer_pool.h"

#include <utility>

#include "common/logging.h"

namespace spacetwist::storage {

BufferPool::BufferPool(Pager* pager, size_t capacity,
                       telemetry::MetricRegistry* registry)
    : pager_(pager), capacity_(capacity) {
  SPACETWIST_CHECK(pager != nullptr);
  SPACETWIST_CHECK(capacity >= 1);
  telemetry::MetricRegistry* r = telemetry::MetricRegistry::OrDefault(registry);
  hits_ = r->GetCounter("storage.buffer_pool.hits");
  misses_ = r->GetCounter("storage.buffer_pool.misses");
  evictions_ = r->GetCounter("storage.buffer_pool.evictions");
}

Result<BufferPool::PageHandle> BufferPool::Fetch(PageId id, bool* missed) {
  MutexLock lock(&mu_);
  ++stats_.logical_reads;
  auto it = map_.find(id);
  const bool miss = it == map_.end();
  if (missed != nullptr) *missed = miss;
  if (!miss) {
    Touch(id, &it->second);
    hits_->Add();
    return it->second.page;
  }
  ++stats_.physical_reads;
  misses_->Add();
  auto page = std::make_shared<Page>(pager_->page_size());
  SPACETWIST_RETURN_NOT_OK(pager_->Read(id, page.get()));
  EvictIfNeeded();
  lru_.push_front(id);
  map_[id] = Entry{page, lru_.begin()};
  return PageHandle(std::move(page));
}

Status BufferPool::Write(PageId id, const Page& page) {
  MutexLock lock(&mu_);
  ++stats_.physical_writes;
  SPACETWIST_RETURN_NOT_OK(pager_->Write(id, page));
  auto it = map_.find(id);
  if (it != map_.end()) {
    // Refresh the cached copy; existing handles keep seeing the old bytes
    // (copy-on-write semantics), which is fine for read-mostly workloads.
    it->second.page = std::make_shared<Page>(page);
    Touch(id, &it->second);
  }
  return Status::OK();
}

PageId BufferPool::Allocate() { return pager_->Allocate(); }

void BufferPool::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  map_.clear();
}

void BufferPool::Touch(PageId id, Entry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(id);
  entry->lru_it = lru_.begin();
}

void BufferPool::EvictIfNeeded() {
  while (map_.size() >= capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    evictions_->Add();
  }
}

}  // namespace spacetwist::storage
