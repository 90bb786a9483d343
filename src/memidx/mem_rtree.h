#ifndef SPACETWIST_MEMIDX_MEM_RTREE_H_
#define SPACETWIST_MEMIDX_MEM_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "memidx/arena.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page.h"

namespace spacetwist::memidx {

/// Memtx-style in-memory copy of a paged R-tree — the serving fast path.
/// Nodes live in fixed-size Arena slots (no pager, no buffer pool, no
/// serialization on the read path); leaves store their float32 coordinates
/// as structure-of-arrays so the batched distance kernel streams over them.
///
/// The tree is copied from the pages of an rtree::RTree (CopyOf): slot i is
/// page i, decoded with the decoders PageStore uses on the same pages
/// (mem_inn_stream.h), so node i here holds page i's entries in page i's
/// order, float32 bits included. That is what makes the memidx INN stream
/// byte-identical to the paged oracle, ties included; the differential
/// suite (tests/index_differential_test.cc) pins it down. The copy is a
/// snapshot: a later mutation of the paged tree needs a fresh CopyOf.
///
/// Immutable once built, so reads may run from any number of threads.
class MemRTree {
 public:
  /// Copies every page of `tree`'s pager, in page-id order, into the slot
  /// of the same id, with root, height and size from `tree`. Pages are read
  /// from the pager directly, so the tree's buffer pool (its LRU, stats()
  /// and the storage.buffer_pool.* counters) does not see the copy; nothing
  /// else may use the tree meanwhile, since those reads bypass the pool's
  /// lock. A page whose header claims more entries than fit is kCorruption.
  static Result<std::unique_ptr<MemRTree>> CopyOf(const rtree::RTree& tree);

  MemRTree(const MemRTree&) = delete;
  MemRTree& operator=(const MemRTree&) = delete;

  /// Payload starts 8 bytes into a slot (4-byte header + pad), keeping
  /// every array 4-byte aligned for the typed slot views.
  static constexpr size_t kPayloadOffset = 8;

  storage::PageId root() const { return root_; }
  int height() const { return height_; }
  uint64_t size() const { return size_; }
  size_t leaf_capacity() const { return leaf_capacity_; }

  /// Materializes node `id` as the shared in-memory image (widened to
  /// doubles) — the differential tests use this; the serving stream reads
  /// slots directly through the views below.
  Status ReadNode(storage::PageId id, rtree::Node* node) const;

  /// Zero-copy views into a node's slot for the serving stream.
  struct LeafView {
    uint32_t count = 0;
    const float* xs = nullptr;
    const float* ys = nullptr;
    const uint32_t* ids = nullptr;
  };
  /// One branch entry, in the on-page layout (rtree/node.h).
  struct BranchRecord {
    float min_x, min_y, max_x, max_y;
    uint32_t child;
  };
  struct BranchView {
    uint32_t count = 0;
    const BranchRecord* entries = nullptr;
  };

  bool IsLeaf(storage::PageId id) const { return Header(id).level == 0; }
  /// Starts node `id`'s slot toward cache without touching it. The arena
  /// far exceeds L2, so a node's first access is a DRAM miss; the serving
  /// stream prefetches the heap's next node entry while the current pop is
  /// processed, hiding most of that latency. Covers the header plus the
  /// head of each leaf array (a branch's record array shares the payload
  /// offset, so the same lines help there too).
  void PrefetchNode(storage::PageId id) const {
    const unsigned char* slot =
        static_cast<const unsigned char*>(arena_.Slot(id));
    const unsigned char* ys =
        slot + kPayloadOffset + leaf_capacity_ * sizeof(float);
    const unsigned char* ids = ys + leaf_capacity_ * sizeof(float);
    for (size_t off = 0; off < 3 * 64; off += 64) {
      __builtin_prefetch(slot + off);
      __builtin_prefetch(ys + off);
      __builtin_prefetch(ids + off);
    }
  }
  /// Inline: one call per node expansion on the serving hot path.
  LeafView Leaf(storage::PageId id) const {
    const unsigned char* slot =
        static_cast<const unsigned char*>(arena_.Slot(id));
    LeafView view;
    view.count = Header(id).count;
    view.xs = reinterpret_cast<const float*>(slot + kPayloadOffset);
    view.ys = view.xs + leaf_capacity_;
    view.ids = reinterpret_cast<const uint32_t*>(view.ys + leaf_capacity_);
    return view;
  }
  BranchView Branch(storage::PageId id) const {
    const unsigned char* slot =
        static_cast<const unsigned char*>(arena_.Slot(id));
    BranchView view;
    view.count = Header(id).count;
    view.entries =
        reinterpret_cast<const BranchRecord*>(slot + kPayloadOffset);
    return view;
  }

 private:
  struct SlotHeader {
    uint16_t level = 0;
    uint16_t count = 0;
  };

  explicit MemRTree(size_t page_size);

  const SlotHeader& Header(storage::PageId id) const {
    return *static_cast<const SlotHeader*>(arena_.Slot(id));
  }

  size_t leaf_capacity_;  ///< rtree::LeafCapacity(page_size), cached
  Arena arena_;
  storage::PageId root_ = storage::kInvalidPageId;
  int height_ = 1;
  uint64_t size_ = 0;
};

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_MEM_RTREE_H_
