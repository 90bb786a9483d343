#ifndef SPACETWIST_SERVER_LBS_SERVER_H_
#define SPACETWIST_SERVER_LBS_SERVER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "datasets/dataset.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "memidx/mem_rtree.h"
#include "rtree/bulk_load.h"
#include "rtree/entry.h"
#include "rtree/rtree.h"
#include "server/cloaked_query.h"
#include "server/granular_inn.h"
#include "server/inn_stream.h"
#include "storage/io_stats.h"
#include "storage/pager.h"

namespace spacetwist::server {

/// Where the serving path (OpenInnSource) reads its nodes from. Either way
/// the stream is the same frontier kernel (memidx::FrontierInnStream), so
/// this chooses node storage only; the reported point stream, and hence
/// the wire bytes, are identical.
enum class ServingIndex {
  /// The paged R-tree's pages through the buffer pool — the paper-fidelity
  /// I/O-cost model; every page touch is accounted in io_stats().
  kPaged,
  /// The memtx-style in-memory tree (src/memidx), copied from the paged
  /// tree's pages after the bulk load (slot i is page i): no pool on the
  /// serving path.
  kMemidx,
};

/// The location-based-service provider: owns the simulated disk and the
/// R-tree over the POIs, and exposes exactly the query functionality each
/// technique assumes —
///   * incremental NN streaming around an anchor (SpaceTwist, Section III),
///   * granular incremental NN with an error bound (Section IV),
///   * cloaked-region candidate queries (the CLK baseline), and
///   * exact kNN (used as ground truth by the evaluation harness).
/// The SHB/DHB Hilbert tables are built separately (see HilbertIndex); they
/// replace the spatial index entirely in that architecture.
///
/// Implements InnBackend, so service::ServiceEngine can serve from one
/// LbsServer or from a sharded fleet (shard::ShardRouter) interchangeably.
class LbsServer : public InnBackend {
 public:
  /// Bulk-loads the dataset into a fresh R-tree. With
  /// ServingIndex::kMemidx, the loaded pages are then decoded into an
  /// in-memory copy (memidx::MemRTree::CopyOf, which bypasses the buffer
  /// pool) and the serving path (OpenInnSource) answers from it; the paged
  /// tree stays authoritative for the I/O-cost metrics and the baseline
  /// query paths.
  static Result<std::unique_ptr<LbsServer>> Build(
      const datasets::Dataset& dataset,
      const rtree::RTreeOptions& options = rtree::RTreeOptions(),
      ServingIndex serving = ServingIndex::kPaged);

  LbsServer(const LbsServer&) = delete;
  LbsServer& operator=(const LbsServer&) = delete;

  const geom::Rect& domain() const { return domain_; }
  uint64_t size() const { return tree_->size(); }
  rtree::RTree* tree() { return tree_.get(); }
  ServingIndex serving() const { return serving_; }
  /// The in-memory serving index; null unless built with kMemidx.
  const memidx::MemRTree* mem_tree() const { return mem_tree_.get(); }

  /// Cumulative storage-layer counters (the "server load" metric).
  storage::IoStats io_stats() const { return tree_->buffer_pool()->stats(); }

  /// Opens a plain incremental-NN session around `anchor`.
  std::unique_ptr<InnStream> OpenInnSession(const geom::Point& anchor);

  /// Opens a granular session (Algorithm 2) on the paged oracle,
  /// GranularInnStream; epsilon == 0 degenerates to plain INN semantics.
  std::unique_ptr<GranularInnStream> OpenGranularSession(
      const geom::Point& anchor, double epsilon, size_t k,
      const GranularOptions& options = GranularOptions());

  /// InnBackend: the serving stream, the frontier kernel over the paged
  /// tree's buffer pool (kPaged) or over the in-memory index (kMemidx).
  /// Reports the oracle's point stream with the oracle's node reads.
  std::unique_ptr<InnSource> OpenInnSource(
      const geom::Point& anchor, double epsilon, size_t k,
      const GranularOptions& options) override;

  /// Candidate set for a cloaked kNN query (the CLK baseline).
  Result<std::vector<rtree::DataPoint>> CloakedQuery(const geom::Rect& region,
                                                     size_t k);

  /// Exact kNN — used by the harness for ground-truth errors, not part of
  /// any privacy protocol.
  Result<std::vector<rtree::Neighbor>> ExactKnn(const geom::Point& q,
                                                size_t k);

 private:
  LbsServer() = default;

  geom::Rect domain_;
  std::unique_ptr<storage::Pager> pager_;
  std::unique_ptr<rtree::RTree> tree_;
  ServingIndex serving_ = ServingIndex::kPaged;
  std::unique_ptr<memidx::MemRTree> mem_tree_;
};

}  // namespace spacetwist::server

#endif  // SPACETWIST_SERVER_LBS_SERVER_H_
