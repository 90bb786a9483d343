#ifndef SPACETWIST_MEMIDX_MEM_INN_STREAM_H_
#define SPACETWIST_MEMIDX_MEM_INN_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/point.h"
#include "memidx/frontier_heap.h"
#include "memidx/mem_cell_filter.h"
#include "memidx/mem_rtree.h"
#include "rtree/entry.h"
#include "rtree/rtree.h"
#include "serving/inn_backend.h"
#include "storage/buffer_pool.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace spacetwist::memidx {

/// Node stores: where FrontierInnStream gets a node's entries. Load() is one
/// node access; Leaf() and Branch() then hand out the loaded node as
/// MemRTree's views whatever storage is behind it, so the search loop exists
/// once.

/// MemRTree arena slots, read in place (ServingIndex::kMemidx). The slots
/// are the paged tree's pages decoded once by MemRTree::CopyOf, with the
/// same decoders PageStore runs per fetch.
class ArenaStore {
 public:
  using Tree = const MemRTree;

  explicit ArenaStore(const MemRTree* tree) : tree_(tree) {}

  storage::PageId root() const { return tree_->root(); }
  size_t leaf_capacity() const { return tree_->leaf_capacity(); }
  void set_trace(telemetry::Trace* /*trace*/) {}  ///< no page fetches
  void Prefetch(storage::PageId id) const { tree_->PrefetchNode(id); }
  Status Load(storage::PageId id, bool* is_leaf) {
    id_ = id;
    *is_leaf = tree_->IsLeaf(id);
    return Status::OK();
  }
  MemRTree::LeafView Leaf() const { return tree_->Leaf(id_); }
  MemRTree::BranchView Branch() const { return tree_->Branch(id_); }

 private:
  const MemRTree* tree_;
  storage::PageId id_ = 0;
};

/// The paged R-tree's pages through its buffer pool (ServingIndex::kPaged).
/// Load() is one BufferPool::Fetch, issued where GranularInnStream calls
/// ReadNode — the kernel expands the oracle's nodes in the oracle's order —
/// so node reads, page reads and the pool's LRU sequence match the oracle's.
class PageStore {
 public:
  using Tree = rtree::RTree;

  explicit PageStore(rtree::RTree* tree);

  storage::PageId root() const { return tree_->root(); }
  size_t leaf_capacity() const { return xs_.size(); }
  /// While attached, each fetch is a "server.page.fetch" span noting the
  /// page id and whether that fetch missed the pool.
  void set_trace(telemetry::Trace* trace) { trace_ = trace; }
  void Prefetch(storage::PageId /*id*/) const {}  ///< would be a fetch
  /// Fetches page `id` and checks its header (rtree::ReadNodeHeader, the
  /// capacity check DeserializeNode makes), which keeps Leaf() and Branch()
  /// inside the page and their scratch.
  Status Load(storage::PageId id, bool* is_leaf);
  /// Decodes the loaded leaf into structure-of-arrays scratch.
  MemRTree::LeafView Leaf();
  /// Copies the loaded branch's records off the page; the on-page entry is
  /// BranchRecord's layout (static_assert in mem_rtree.cc).
  MemRTree::BranchView Branch();

 private:
  rtree::RTree* tree_;
  telemetry::Trace* trace_ = nullptr;     ///< borrowed; see set_trace()
  storage::BufferPool::PageHandle page_;  ///< the loaded node's page
  uint32_t count_ = 0;                    ///< its checked entry count
  std::vector<float> xs_, ys_;            ///< leaf scratch
  std::vector<uint32_t> ids_;
  std::vector<MemRTree::BranchRecord> branches_;  ///< branch scratch
};

/// Granular INN stream (Algorithm 2) — the serving kernel behind both
/// ServingIndex backends. Same best-first search as the paged oracle
/// server::GranularInnStream; what changes is the plumbing above the nodes:
///
///  * the frontier is an addressable heap of compact 32-byte entries (key
///    + float32 payload, which for a node is its parent-recorded MBR)
///    instead of a std::priority_queue of full DataPoint/PageId items; a
///    newly scanned point that dominates a cell's kth-best pushed point
///    replaces it in place (FrontierHeap::Replace) instead of joining it,
///    so the heap holds at most k live points per cell;
///  * a popped leaf is expanded with one batched squared-distance kernel
///    pass over structure-of-arrays coordinates (memidx/batch_distance.h)
///    instead of per-point geom::Distance calls;
///  * the cell bookkeeping is a MemCellFilter: one open-addressing probe
///    per cell a leaf overlaps, one compare per scanned point against its
///    cell's threshold, and push-time pruning of points that k better
///    same-cell frontier entries already dominate (they could never be
///    reported), so frontier traffic collapses to O(k) per cell;
///  * NextBatch() advances the frontier in bulk, reporting up to a whole
///    PullRequest's beta points per call (PacketChannel drives it), instead
///    of re-entering Next() per point.
///
/// `NodeStore` supplies the nodes. A MemRTree is a decoded copy of the
/// paged tree's pages (slot i is page i), and the heap tie-break
/// (key, point-before-node, ascending id) is the oracle's total order, so
/// on either store the reported point sequence is byte-identical to the
/// oracle's and the expanded nodes are the same — the differential suite
/// pins stream, node reads and page reads.
template <typename NodeStore>
class FrontierInnStream : public serving::InnSource {
 public:
  /// Borrows `tree`, which must outlive the stream. `epsilon` >= 0 is the
  /// client's error bound; `k` >= 1 the number of results it needs.
  FrontierInnStream(typename NodeStore::Tree* tree, const geom::Point& anchor,
                    double epsilon, size_t k,
                    const serving::GranularOptions& options);

  /// Next reported point in ascending distance from the anchor, or
  /// kExhausted when the whole dataset has been scanned/pruned.
  Result<rtree::DataPoint> Next() override;

  /// Bulk advance: appends up to `max_points` reported points to `*out`.
  /// Appending fewer means the stream is dry. A node the store cannot load
  /// (fetch error, corrupt page) ends the call with that status.
  Status NextBatch(size_t max_points,
                   std::vector<rtree::DataPoint>* out) override;

  const geom::Point& anchor() const { return anchor_; }
  double epsilon() const { return epsilon_; }
  size_t k() const { return k_; }
  double last_report_distance() const { return last_report_distance_; }

  /// Introspection for tests and benches. node_reads counts node loads and
  /// matches the oracle exactly (expansion decisions are identical);
  /// heap_pops is at most the oracle's — push-time pruning leaves reported
  /// points plus node expansions, where the oracle also pops every
  /// dominated point.
  size_t live_cells() const { return filter_.live_cells(); }
  size_t peak_live_cells() const { return filter_.peak_live_cells(); }
  uint64_t cells_evicted() const { return filter_.cells_evicted(); }
  size_t reserved_bytes() const { return filter_.reserved_bytes(); }
  uint64_t heap_pops() const override { return pops_; }
  uint64_t node_reads() const override { return node_reads_; }

  /// Forwarded to the store: the page store records a "server.page.fetch"
  /// span per fetch; the arena store has none. The engine's
  /// "server.granular.scan" span records heap_pops/node_reads either way.
  void set_trace(telemetry::Trace* trace) override { store_.set_trace(trace); }

 private:
  /// Expands one node: batched distances + leaf-scan-plan admission for a
  /// leaf, coverage-pruned MBR mindists for a branch; survivors enter the
  /// frontier (fresh push or in-place replacement of a dominated point).
  Status ExpandNode(const FrontierEntry& item);
  /// Applies a non-reject filter verdict: builds the frontier entry for a
  /// scanned point and pushes or replaces per `action`.
  void ApplyAction(int64_t action, double key, float x, float y,
                   uint32_t id);

  NodeStore store_;
  geom::Point anchor_;
  double epsilon_;
  size_t k_;
  MemCellFilter filter_;

  FrontierHeap heap_;
  std::vector<double> scratch_;  ///< batched-kernel output, one leaf's worth
  std::vector<uint32_t> cells_;  ///< a leaf's plan cells (ClassifyLeafPoints)
  std::vector<rtree::DataPoint> single_;  ///< Next()'s one-point batch

  double last_report_distance_ = 0.0;
  uint64_t pops_ = 0;
  uint64_t node_reads_ = 0;

  /// Registry mirrors, aggregated across streams — same server.granular.*
  /// names as the oracle so dashboards and benches compare backends on one
  /// metric family. Flushed once per pull.
  telemetry::Counter* node_reads_metric_;
  telemetry::Counter* heap_pops_metric_;
  telemetry::Counter* points_reported_metric_;
};

/// The in-memory serving stream (ServingIndex::kMemidx, LbsServer).
using MemInnStream = FrontierInnStream<ArenaStore>;
/// The paged serving stream (ServingIndex::kPaged, LbsServer).
using PagedInnStream = FrontierInnStream<PageStore>;

extern template class FrontierInnStream<ArenaStore>;
extern template class FrontierInnStream<PageStore>;

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_MEM_INN_STREAM_H_
