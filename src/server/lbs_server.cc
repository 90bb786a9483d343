#include "server/lbs_server.h"

#include "memidx/mem_inn_stream.h"

namespace spacetwist::server {

Result<std::unique_ptr<LbsServer>> LbsServer::Build(
    const datasets::Dataset& dataset, const rtree::RTreeOptions& options,
    ServingIndex serving) {
  std::unique_ptr<LbsServer> server(new LbsServer());
  server->domain_ = dataset.domain;
  server->serving_ = serving;
  server->pager_ = std::make_unique<storage::Pager>(options.page_size);
  rtree::BulkLoadOptions bulk;
  bulk.tree = options;
  SPACETWIST_ASSIGN_OR_RETURN(
      server->tree_,
      rtree::BulkLoad(server->pager_.get(), bulk, dataset.points));
  if (serving == ServingIndex::kMemidx) {
    SPACETWIST_ASSIGN_OR_RETURN(server->mem_tree_,
                                memidx::MemRTree::CopyOf(*server->tree_));
  }
  return server;
}

std::unique_ptr<InnStream> LbsServer::OpenInnSession(
    const geom::Point& anchor) {
  return std::make_unique<InnStream>(tree_.get(), anchor);
}

std::unique_ptr<GranularInnStream> LbsServer::OpenGranularSession(
    const geom::Point& anchor, double epsilon, size_t k,
    const GranularOptions& options) {
  return std::make_unique<GranularInnStream>(tree_.get(), anchor, epsilon, k,
                                             options);
}

std::unique_ptr<InnSource> LbsServer::OpenInnSource(
    const geom::Point& anchor, double epsilon, size_t k,
    const GranularOptions& options) {
  if (serving_ == ServingIndex::kMemidx) {
    return std::make_unique<memidx::MemInnStream>(mem_tree_.get(), anchor,
                                                  epsilon, k, options);
  }
  return std::make_unique<memidx::PagedInnStream>(tree_.get(), anchor,
                                                  epsilon, k, options);
}

Result<std::vector<rtree::DataPoint>> LbsServer::CloakedQuery(
    const geom::Rect& region, size_t k) {
  CloakedQueryProcessor processor(tree_.get());
  return processor.Candidates(region, k);
}

Result<std::vector<rtree::Neighbor>> LbsServer::ExactKnn(const geom::Point& q,
                                                         size_t k) {
  return tree_->KnnQuery(q, k);
}

}  // namespace spacetwist::server
