#include "shard/router.h"

#include <algorithm>
#include <bit>
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
      HilbertRangePartitioner::Build(dataset, options.num_shards,
                                     options.partition));
  router->partitioner_.emplace(std::move(partitioner));

  router->registry_ = telemetry::MetricRegistry::OrDefault(options.registry);
  router->fanout_hist_ = router->registry_->GetHistogram("shard.router.fanout");
  router->pulls_hist_ =
      router->registry_->GetHistogram("shard.router.query_pulls");
  telemetry::Histogram* occupancy =
      router->registry_->GetHistogram("shard.partition.points");

  rtree::RTreeOptions tree_options = options.rtree;
  tree_options.concurrent_reads = true;

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
        server::LbsServer::Build(part.dataset, tree_options,
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
  return std::make_unique<ScatterGatherStream>(
      std::move(targets), anchor, epsilon, k, options,
      [this](const geom::Point& a, const StreamStats& stats) {
        RetireStream(a, stats.fanout, stats.shard_pulls);
      });
}

std::vector<uint8_t> ShardRouter::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  return front_->HandleFrame(request_frame);
}

void ShardRouter::RetireStream(const geom::Point& anchor, uint32_t fanout,
                               uint64_t shard_pulls) {
  fanout_hist_->Record(fanout);
  pulls_hist_->Record(shard_pulls);
  MutexLock lock(&fanout_mu_);
  QueryFanout& entry = fanout_log_[AnchorKey(anchor)];
  // A retried query reopens its session: the widest attempt defines the
  // fan-out, while shard pulls accumulate across attempts.
  entry.fanout = std::max(entry.fanout, fanout);
  entry.shard_pulls += shard_pulls;
}

std::pair<uint64_t, uint64_t> ShardRouter::AnchorKey(
    const geom::Point& anchor) {
  return {std::bit_cast<uint64_t>(anchor.x), std::bit_cast<uint64_t>(anchor.y)};
}

std::optional<QueryFanout> ShardRouter::TakeFanout(const geom::Point& anchor) {
  MutexLock lock(&fanout_mu_);
  auto it = fanout_log_.find(AnchorKey(anchor));
  if (it == fanout_log_.end()) return std::nullopt;
  QueryFanout result = it->second;
  fanout_log_.erase(it);
  return result;
}

}  // namespace spacetwist::shard
