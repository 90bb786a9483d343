#ifndef SPACETWIST_RTREE_RTREE_H_
#define SPACETWIST_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace spacetwist::rtree {

/// Construction parameters for an R-tree.
struct RTreeOptions {
  size_t page_size = storage::kDefaultPageSize;  ///< paper: 1 KB pages
  size_t buffer_pool_pages = 256;  ///< cache size for query processing
  double min_fill = 0.4;           ///< node underflow threshold fraction
  /// Selects nothing: the buffer pool always locks, so read-only traversals
  /// (queries, INN cursors, granular streams) may run from many threads at
  /// once whatever this says; structural mutation (Insert/Delete) stays
  /// single-threaded. Kept only while the serving benchmark still assigns
  /// it; a benchmark change retires it.
  bool concurrent_reads = false;
};

/// Disk-page-based R-tree over 2-D points, in the spirit of Guttman's R-tree
/// with R*-style subtree choice and split. This is the server's POI index;
/// the SpaceTwist server runs incremental NN (see InnCursor) and the
/// granular search (server/granular_inn.h) on top of it, and the in-memory
/// serving index (memidx::MemRTree) is a decoded copy of its pages.
///
/// Not thread safe; the reproduction's client/server simulation is
/// single-threaded and deterministic by design.
class RTree {
 public:
  /// Creates an empty tree whose pages live on `pager`.
  static Result<std::unique_ptr<RTree>> Create(storage::Pager* pager,
                                               const RTreeOptions& options);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  const RTreeOptions& options() const { return options_; }
  storage::PageId root() const { return root_; }
  /// Number of levels; 1 for a tree whose root is a leaf.
  int height() const { return height_; }
  /// Number of stored points.
  uint64_t size() const { return size_; }
  /// Query-time I/O counters (shared by all cursors over this tree).
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  const storage::BufferPool* buffer_pool() const { return pool_.get(); }

  size_t leaf_capacity() const { return LeafCapacity(options_.page_size); }
  size_t branch_capacity() const { return BranchCapacity(options_.page_size); }

  /// Inserts one point (duplicates allowed, as in any spatial index),
  /// growing the root on overflow.
  Status Insert(const DataPoint& p);

  /// Removes one entry matching `p` exactly (location and id), condensing
  /// underfull nodes and reinserting their orphans. Returns whether an
  /// entry was found and removed. Coordinates are stored as float32 on
  /// disk, so `p.point` must be float32-representable (datasets generated
  /// by this library always are) or the entry will not match. Pages of
  /// condensed (dissolved) nodes are not recycled — the simulated disk has
  /// no free list; the simulation's workloads are read-mostly and the leak
  /// is bounded by the number of deletes.
  Result<bool> Delete(const DataPoint& p);

  /// Appends every point inside `window` to `*out`.
  Status RangeQuery(const geom::Rect& window, std::vector<DataPoint>* out);

  /// The `k` nearest points to `q` in ascending distance order (fewer if the
  /// tree holds fewer points).
  Result<std::vector<Neighbor>> KnnQuery(const geom::Point& q, size_t k);

  /// Reads the node stored at `id`. Exposed so the server-side search
  /// algorithms (incremental NN, granular search) can run their own
  /// best-first traversals while sharing this tree's buffer pool. `missed`
  /// is BufferPool::Fetch's per-fetch miss report (null = not wanted).
  Status ReadNode(storage::PageId id, Node* node, bool* missed = nullptr);

  /// Structural invariant check for tests: MBR containment, fill factors,
  /// level consistency, and size bookkeeping. Returns OK when consistent.
  Status Validate();

  /// Used by the bulk loader to adopt a freshly packed tree.
  static std::unique_ptr<RTree> AdoptForBulkLoad(storage::Pager* pager,
                                                 const RTreeOptions& options,
                                                 storage::PageId root,
                                                 int height, uint64_t size);

 private:
  /// What a recursive insert / delete reports to its parent (rtree.cc).
  struct InsertOutcome;
  struct DeleteOutcome;

  RTree(storage::Pager* pager, const RTreeOptions& options);

  Status WriteNode(storage::PageId id, const Node& node);

  Result<InsertOutcome> InsertIntoSubtree(storage::PageId node_id,
                                          const DataPoint& p);
  Result<DeleteOutcome> DeleteFromSubtree(storage::PageId node_id,
                                          const DataPoint& p,
                                          std::vector<DataPoint>* orphans);
  /// Collects every data point stored under `node_id`.
  Status CollectSubtreePoints(storage::PageId node_id,
                              std::vector<DataPoint>* out);

  Status ValidateSubtree(storage::PageId node_id, int expected_level,
                         const geom::Rect& parent_mbr, bool is_root,
                         uint64_t* points_seen);

  size_t MinLeafFill() const;
  size_t MinBranchFill() const;

  RTreeOptions options_;
  std::unique_ptr<storage::BufferPool> pool_;
  storage::PageId root_ = storage::kInvalidPageId;
  int height_ = 1;
  uint64_t size_ = 0;
};

}  // namespace spacetwist::rtree

#endif  // SPACETWIST_RTREE_RTREE_H_
