#ifndef SPACETWIST_MEMIDX_MEM_RTREE_H_
#define SPACETWIST_MEMIDX_MEM_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "memidx/arena.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "storage/page.h"

namespace spacetwist::memidx {

/// Construction parameters. `page_size` does not buy any disk pages here —
/// it fixes the node capacities to the paged tree's (rtree/node.h), which is
/// one of the levers that keeps the two trees structurally isomorphic.
struct MemRTreeOptions {
  size_t page_size = storage::kDefaultPageSize;
  double min_fill = 0.4;  ///< node underflow threshold fraction
};

/// Memtx-style in-memory R-tree — the serving fast path. Nodes live in
/// fixed-size Arena slots (no pager, no buffer pool, no serialization on
/// the read path); leaves store their float32-quantized coordinates as
/// structure-of-arrays so the batched distance kernel streams over them.
///
/// The tree is *structurally isomorphic* to a paged rtree::RTree built from
/// the same point sequence: bulk load runs the same StrPack tiling
/// (rtree/str_pack.h), Insert/Delete run the same tree_ops.h templates, and
/// slot ids reproduce page-allocation order (monotone, never recycled).
/// Coordinates round-trip through float32 on every node write, exactly like
/// SerializeNode does on a page. Node `i` here therefore holds the same
/// entries in the same order as page `i` there — which is what makes the
/// memidx INN stream byte-identical to the paged oracle, ties included. The
/// differential suite (tests/index_differential_test.cc) pins this down.
///
/// Mutation is single-threaded; reads may run concurrently once mutation
/// stops (same serving contract as the paged tree's concurrent_reads mode).
class MemRTree {
 public:
  /// Creates an empty tree (root = empty leaf in slot 0).
  static Result<std::unique_ptr<MemRTree>> Create(
      const MemRTreeOptions& options);

  /// STR bulk load, mirroring rtree::BulkLoad: `fill` in (0, 1] scales the
  /// per-node packing capacity.
  static Result<std::unique_ptr<MemRTree>> BulkLoad(
      const MemRTreeOptions& options, double fill,
      std::vector<rtree::DataPoint> points);

  MemRTree(const MemRTree&) = delete;
  MemRTree& operator=(const MemRTree&) = delete;

  /// Payload starts 8 bytes into a slot (4-byte header + pad), keeping
  /// every array 4-byte aligned for the typed slot views.
  static constexpr size_t kPayloadOffset = 8;

  const MemRTreeOptions& options() const { return options_; }
  storage::PageId root() const { return root_; }
  int height() const { return height_; }
  uint64_t size() const { return size_; }
  size_t leaf_capacity() const { return leaf_capacity_; }
  size_t branch_capacity() const { return branch_capacity_; }
  size_t node_count() const { return arena_.slots(); }
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

  /// Inserts one point (duplicates allowed). Coordinates are narrowed to
  /// float32 in the node slot, like the paged tree's page write — producers
  /// must hand in quantized points or later exact-match Deletes will miss.
  Status Insert(const rtree::DataPoint& p);

  /// Removes one entry matching `p` exactly (location and id); see
  /// rtree::RTree::Delete for the float32 caveat. Slots of condensed nodes
  /// are not recycled.
  Result<bool> Delete(const rtree::DataPoint& p);

  /// Materializes node `id` as the shared in-memory image (widened to
  /// doubles) — the mutation path and the differential tests use this; the
  /// serving stream reads slots directly through the views below.
  Status ReadNode(storage::PageId id, rtree::Node* node) const;

  /// Zero-copy views into a node's slot for the serving stream.
  struct LeafView {
    uint32_t count = 0;
    const float* xs = nullptr;
    const float* ys = nullptr;
    const uint32_t* ids = nullptr;
  };
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

  /// Structural invariant check for tests: MBR containment, level
  /// consistency, and size bookkeeping.
  Status Validate() const;

 private:
  struct SlotHeader {
    uint16_t level = 0;
    uint16_t count = 0;
  };
  /// Store adapter for the shared mutation algorithms in rtree/tree_ops.h.
  struct MemStore;
  friend struct MemStore;

  explicit MemRTree(const MemRTreeOptions& options);

  static Status ValidateOptions(const MemRTreeOptions& options);

  const SlotHeader& Header(storage::PageId id) const {
    return *static_cast<const SlotHeader*>(arena_.Slot(id));
  }

  /// Narrows `node` into slot `id`, mirroring SerializeNode's float32
  /// quantization and capacity checks.
  Status WriteNode(storage::PageId id, const rtree::Node& node);

  Status ValidateSubtree(storage::PageId id, int expected_level,
                         const geom::Rect& parent_mbr, bool is_root,
                         uint64_t* points_seen) const;

  size_t MinLeafFill() const;
  size_t MinBranchFill() const;

  MemRTreeOptions options_;
  size_t leaf_capacity_;    ///< rtree::LeafCapacity(page_size), cached
  size_t branch_capacity_;  ///< rtree::BranchCapacity(page_size), cached
  Arena arena_;
  storage::PageId root_ = storage::kInvalidPageId;
  int height_ = 1;
  uint64_t size_ = 0;
};

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_MEM_RTREE_H_
