#include "server/granular_inn.h"

#include "common/logging.h"
#include "rtree/node.h"

namespace spacetwist::server {

GranularInnStream::GranularInnStream(rtree::RTree* tree,
                                     const geom::Point& anchor,
                                     double epsilon, size_t k,
                                     const GranularOptions& options)
    : tree_(tree), anchor_(anchor), epsilon_(epsilon), k_(k),
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
  HeapItem root;
  root.key = 0.0;
  root.is_point = false;
  root.node_page = tree_->root();
  heap_.push(root);
}

Result<rtree::DataPoint> GranularInnStream::Next() {
  rtree::Node node;
  while (!heap_.empty()) {
    const HeapItem item = heap_.top();
    heap_.pop();
    ++pops_;
    heap_pops_metric_->Add();

    filter_.EvictUpTo(item.key);

    if (item.is_point) {
      if (!filter_.AdmitPoint(item.point.point)) continue;
      last_report_distance_ = item.key;
      points_reported_metric_->Add();
      return item.point;
    }

    // Expand the node. Coverage (Algorithm 2, Line 9) is applied to each
    // child entry before it enters the heap, and re-checked for points when
    // they pop; children have tighter MBRs than the node itself, so this
    // prunes at least as much as a node-level check.
    if (trace_ == nullptr) {
      SPACETWIST_RETURN_NOT_OK(tree_->ReadNode(item.node_page, &node));
    } else {
      bool missed = false;
      telemetry::Trace::Span fetch = trace_->StartSpan("server.page.fetch");
      Status read = tree_->ReadNode(item.node_page, &node, &missed);
      fetch.Note("page", item.node_page);
      fetch.Note("miss", missed ? 1 : 0);
      fetch.End();
      SPACETWIST_RETURN_NOT_OK(read);
    }
    ++node_reads_;
    node_reads_metric_->Add();
    if (node.IsLeaf()) {
      for (const rtree::DataPoint& p : node.points) {
        if (filter_.CellIsFull(p.point)) continue;
        HeapItem child;
        child.key = geom::Distance(anchor_, p.point);
        child.is_point = true;
        child.point = p;
        heap_.push(child);
      }
    } else {
      for (const rtree::BranchEntry& b : node.branches) {
        if (filter_.CoveredByFullCells(b.mbr)) continue;
        HeapItem child;
        child.key = geom::MinDist(anchor_, b.mbr);
        child.is_point = false;
        child.node_page = b.child;
        heap_.push(child);
      }
    }
  }
  return Status::Exhausted("granular stream is dry");
}

}  // namespace spacetwist::server
