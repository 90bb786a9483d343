#include "shard/router.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "shard/scatter_gather.h"

namespace spacetwist::shard {

Result<std::unique_ptr<ShardRouter>> ShardRouter::Build(
    const datasets::Dataset& dataset, const ShardRouterOptions& options) {
  std::unique_ptr<ShardRouter> router(new ShardRouter());
  SPACETWIST_ASSIGN_OR_RETURN(
      HilbertRangePartitioner partitioner,
      HilbertRangePartitioner::Build(dataset, options.num_shards));
  router->partitioner_.emplace(std::move(partitioner));

  router->registry_ = telemetry::MetricRegistry::OrDefault(options.registry);
  router->fanout_hist_ = router->registry_->GetHistogram("shard.router.fanout");
  router->pulls_hist_ =
      router->registry_->GetHistogram("shard.router.query_pulls");
  telemetry::Histogram* occupancy =
      router->registry_->GetHistogram("shard.partition.points");

  const size_t n = router->partitioner_->num_shards();
  router->servers_.reserve(n);
  router->shard_registries_.reserve(n);
  router->shard_pull_counters_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ShardPartition& part = router->partitioner_->partition(i);
    occupancy->Record(part.dataset.points.size());
    router->shard_pull_counters_.push_back(router->registry_->GetCounter(
        StrFormat("shard.%zu.pulls", i)));

    SPACETWIST_ASSIGN_OR_RETURN(
        std::unique_ptr<server::LbsServer> server,
        server::LbsServer::Build(part.dataset, options.rtree,
                                 options.serving));
    router->servers_.push_back(std::move(server));
    router->shard_registries_.push_back(
        std::make_unique<telemetry::MetricRegistry>());
  }

  service::ServiceOptions front_options = options.front;
  if (front_options.granular.registry == nullptr) {
    front_options.granular.registry = router->registry_;
  }
  router->front_ =
      std::make_unique<service::ServiceEngine>(router.get(), front_options);
  return router;
}

std::unique_ptr<server::InnSource> ShardRouter::OpenInnSource(
    const geom::Point& anchor, double epsilon, size_t k,
    const server::GranularOptions& options) {
  std::vector<ScatterGatherStream::ShardTarget> targets;
  targets.reserve(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    ScatterGatherStream::ShardTarget t;
    t.server = servers_[i].get();
    t.registry = shard_registries_[i].get();
    t.partition = &partitioner_->partition(i);
    t.pulls = shard_pull_counters_[i];
    targets.push_back(t);
  }
  return std::make_unique<ScatterGatherStream>(std::move(targets), anchor,
                                               epsilon, k, options,
                                               fanout_hist_, pulls_hist_);
}

std::vector<uint8_t> ShardRouter::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  return front_->HandleFrame(request_frame);
}

}  // namespace spacetwist::shard
