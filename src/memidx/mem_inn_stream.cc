#include "memidx/mem_inn_stream.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "geom/rect.h"
#include "memidx/batch_distance.h"
#include "rtree/node.h"

namespace spacetwist::memidx {

PageStore::PageStore(rtree::RTree* tree)
    : tree_(tree), xs_(tree->leaf_capacity()), ys_(tree->leaf_capacity()),
      ids_(tree->leaf_capacity()), branches_(tree->branch_capacity()) {}

Status PageStore::Load(storage::PageId id, bool* is_leaf) {
  telemetry::Trace::Span fetch;  // a no-op unless a trace is attached
  if (trace_ != nullptr) fetch = trace_->StartSpan("server.page.fetch");
  bool missed = false;
  auto page = tree_->buffer_pool()->Fetch(id, &missed);
  fetch.Note("page", id);
  fetch.Note("miss", missed ? 1 : 0);
  fetch.End();
  SPACETWIST_ASSIGN_OR_RETURN(page_, std::move(page));
  int level = 0;
  size_t count = 0;
  SPACETWIST_RETURN_NOT_OK(rtree::ReadNodeHeader(*page_, &level, &count));
  *is_leaf = level == 0;
  count_ = static_cast<uint32_t>(count);
  return Status::OK();
}

MemRTree::LeafView PageStore::Leaf() {
  rtree::DecodeLeafEntries(*page_, count_, xs_.data(), ys_.data(),
                           ids_.data());
  return MemRTree::LeafView{count_, xs_.data(), ys_.data(), ids_.data()};
}

MemRTree::BranchView PageStore::Branch() {
  std::memcpy(branches_.data(), page_->data() + rtree::kNodeHeaderSize,
              count_ * sizeof(MemRTree::BranchRecord));
  return MemRTree::BranchView{count_, branches_.data()};
}

template <typename NodeStore>
FrontierInnStream<NodeStore>::FrontierInnStream(
    typename NodeStore::Tree* tree, const geom::Point& anchor, double epsilon,
    size_t k, const serving::GranularOptions& options)
    : store_(tree), anchor_(anchor), epsilon_(epsilon), k_(k),
      filter_(anchor, epsilon, k, options.lazy_eviction,
              telemetry::MetricRegistry::OrDefault(options.registry)
                  ->GetCounter("server.granular.cells_visited"),
              telemetry::MetricRegistry::OrDefault(options.registry)
                  ->GetCounter("server.granular.cells_evicted")) {
  SPACETWIST_CHECK(tree != nullptr);
  SPACETWIST_CHECK(epsilon >= 0.0);
  SPACETWIST_CHECK(k >= 1);
  telemetry::MetricRegistry* r =
      telemetry::MetricRegistry::OrDefault(options.registry);
  node_reads_metric_ = r->GetCounter("server.granular.node_reads");
  heap_pops_metric_ = r->GetCounter("server.granular.heap_pops");
  points_reported_metric_ = r->GetCounter("server.granular.points_reported");
  scratch_.resize(store_.leaf_capacity());
  cells_.resize(store_.leaf_capacity());
  FrontierEntry root;
  root.key = 0.0;
  root.id = store_.root();
  root.handle = FrontierEntry::kNodeEntry;
  heap_.Push(root);
}

template <typename NodeStore>
void FrontierInnStream<NodeStore>::ApplyAction(int64_t action, double key,
                                               float x, float y,
                                               uint32_t id) {
  FrontierEntry child;
  child.key = key;
  child.x = x;
  child.y = y;
  child.id = id;
  if (action == MemCellFilter::kFreshAction) {
    child.handle = heap_.next_handle();
    heap_.Push(child);
  } else if (action == MemCellFilter::kUntrackedAction) {
    child.handle = FrontierEntry::kUntracked;
    heap_.Push(child);
  } else {
    child.handle = static_cast<uint32_t>(action);
    heap_.Replace(child.handle, child);
  }
}

template <typename NodeStore>
Status FrontierInnStream<NodeStore>::ExpandNode(const FrontierEntry& item) {
  bool is_leaf = false;
  SPACETWIST_RETURN_NOT_OK(store_.Load(item.id, &is_leaf));
  ++node_reads_;
  if (is_leaf) {
    // Fast path: probe each of the leaf's few overlapped cells once, give
    // every point its plan cell in one pass, then admit per point with one
    // load and one compare. Needs the node's MBR (unknown only for a leaf
    // root).
    MemCellFilter::LeafScanPlan plan;
    if (item.max_x >= item.x && item.max_y >= item.y &&
        filter_.BeginLeafScan(
            geom::Rect{geom::Point{static_cast<double>(item.x),
                                   static_cast<double>(item.y)},
                       geom::Point{static_cast<double>(item.max_x),
                                   static_cast<double>(item.max_y)}},
            &plan)) {
      // Every overlapped cell already reported k points: the oracle would
      // push each point and reject it at pop, so skip the scan outright.
      if (plan.skip_all) return Status::OK();
      const MemRTree::LeafView leaf = store_.Leaf();
      BatchedSquaredDistances(anchor_, leaf.xs, leaf.ys, leaf.count,
                              scratch_.data());
      MemCellFilter::ClassifyLeafPoints(plan, leaf.xs, leaf.ys, leaf.count,
                                        cells_.data());
      for (uint32_t i = 0; i < leaf.count; ++i) {
        // The point's own cell threshold rejects it when its cell is full
        // (-inf) or k pushed points dominate it; only points SlowPush must
        // decide go on, and only pushed points build a frontier entry.
        const uint32_t cell = cells_[i];
        if (scratch_[i] > plan.reject[cell]) continue;
        double key;
        const int64_t action =
            filter_.PushScanPoint(&plan, cell, scratch_[i], leaf.ids[i],
                                  heap_.next_handle(), &key);
        if (action == MemCellFilter::kRejectAction) continue;
        ApplyAction(action, key, leaf.xs[i], leaf.ys[i], leaf.ids[i]);
      }
      return Status::OK();
    }
    // Fallback (filter disabled, unknown MBR, or a leaf spanning more
    // cells than a plan covers): one fused probe per point.
    const MemRTree::LeafView leaf = store_.Leaf();
    BatchedSquaredDistances(anchor_, leaf.xs, leaf.ys, leaf.count,
                            scratch_.data());
    for (uint32_t i = 0; i < leaf.count; ++i) {
      const geom::Point p{static_cast<double>(leaf.xs[i]),
                          static_cast<double>(leaf.ys[i])};
      double key;
      const int64_t action = filter_.AdmitToFrontier(
          p, scratch_[i], leaf.ids[i], heap_.next_handle(), &key);
      if (action == MemCellFilter::kRejectAction) continue;
      ApplyAction(action, key, leaf.xs[i], leaf.ys[i], leaf.ids[i]);
    }
    return Status::OK();
  }
  const MemRTree::BranchView branch = store_.Branch();
  for (uint32_t i = 0; i < branch.count; ++i) {
    const MemRTree::BranchRecord& e = branch.entries[i];
    const geom::Rect mbr{
        geom::Point{static_cast<double>(e.min_x),
                    static_cast<double>(e.min_y)},
        geom::Point{static_cast<double>(e.max_x),
                    static_cast<double>(e.max_y)}};
    if (filter_.CoveredByFullCells(mbr)) continue;
    FrontierEntry child;
    child.key = geom::MinDist(anchor_, mbr);
    child.x = e.min_x;
    child.y = e.min_y;
    child.max_x = e.max_x;
    child.max_y = e.max_y;
    child.id = e.child;
    child.handle = FrontierEntry::kNodeEntry;
    heap_.Push(child);
  }
  return Status::OK();
}

template <typename NodeStore>
Status FrontierInnStream<NodeStore>::NextBatch(
    size_t max_points, std::vector<rtree::DataPoint>* out) {
  // One index visit per pull: the whole beta-point batch advances the
  // frontier in this loop without surfacing per point. Registry counters
  // are flushed once per pull, not per pop — atomic adds are measurable at
  // this loop's rate.
  const uint64_t pops_before = pops_;
  const uint64_t reads_before = node_reads_;
  const size_t out_before = out->size();
  Status status;
  while (out->size() < max_points && !heap_.empty()) {
    const FrontierEntry item = heap_.top();
    heap_.Pop();
    ++pops_;

    // The new top is very often a node whose arena slot is cold; start its
    // lines toward cache while this item is processed (an expansion is
    // hundreds of nanoseconds — enough to hide most of the miss).
    if (!heap_.empty()) {
      const FrontierEntry& next = heap_.top();
      if (next.is_node()) store_.Prefetch(next.id);
    }

    filter_.EvictUpTo(item.key);

    if (item.is_node()) {
      status = ExpandNode(item);
      if (!status.ok()) break;
      continue;
    }
    const geom::Point p{static_cast<double>(item.x),
                        static_cast<double>(item.y)};
    if (!filter_.AdmitPoint(p)) continue;
    last_report_distance_ = item.key;
    out->push_back(rtree::DataPoint{p, item.id});
  }
  heap_pops_metric_->Add(pops_ - pops_before);
  node_reads_metric_->Add(node_reads_ - reads_before);
  points_reported_metric_->Add(
      static_cast<uint64_t>(out->size() - out_before));
  return status;
}

template <typename NodeStore>
Result<rtree::DataPoint> FrontierInnStream<NodeStore>::Next() {
  single_.clear();
  SPACETWIST_RETURN_NOT_OK(NextBatch(1, &single_));
  if (single_.empty()) return Status::Exhausted("granular stream is dry");
  return single_[0];
}

template class FrontierInnStream<ArenaStore>;
template class FrontierInnStream<PageStore>;

}  // namespace spacetwist::memidx
