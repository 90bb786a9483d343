#ifndef SPACETWIST_SHARD_ROUTER_H_
#define SPACETWIST_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "datasets/dataset.h"
#include "geom/point.h"
#include "net/wire.h"
#include "rtree/rtree.h"
#include "server/inn_backend.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "shard/hilbert_partitioner.h"
#include "telemetry/registry.h"

namespace spacetwist::shard {

/// Knobs for a sharded deployment.
struct ShardRouterOptions {
  /// Fleet size. 1 gives a single-shard fleet (useful as a wiring check;
  /// the router overhead is then pure indirection).
  size_t num_shards = 4;
  /// Per-shard R-tree build options (a shard's buffer pool always locks,
  /// so many queries' shard streams can read one shard at once).
  rtree::RTreeOptions rtree;
  /// Which index each shard serves from (paged R-tree or the in-memory
  /// copy of its pages); the merged output stream is byte-identical either
  /// way.
  server::ServingIndex serving = server::ServingIndex::kPaged;
  /// Options for the fronting ServiceEngine (the one clients talk to). Its
  /// granular registry defaults to `registry` below, so the router's
  /// shard.router.* stream counters land next to its fan-out instruments.
  service::ServiceOptions front;
  /// Registry for the router-level instruments — shard.router.fanout,
  /// shard.router.query_pulls, shard.<i>.pulls, shard.partition.points
  /// (null = process default).
  /// Each shard additionally gets its own private registry
  /// (shard_registry(i)) holding its streams' server.granular.* counters.
  telemetry::MetricRegistry* registry = nullptr;
};

/// Scale-out deployment of the SpaceTwist server (src/shard): the dataset
/// is split into `num_shards` contiguous Hilbert-key ranges, each served by
/// its own LbsServer (own R-tree, own metric registry), and this router
/// fronts the fleet behind the unchanged v3 wire protocol with one
/// ServiceEngine. Each client session draws from a ScatterGatherStream that
/// opens shard streams lazily — only on shards whose partition rectangle
/// intersects the growing supply disk — owns them for the life of the
/// query, and k-way merges them into one globally distance-ordered,
/// cell-filtered stream. Clients receive byte-for-byte the packets a single
/// server would have sent.
///
/// Thread safety: Build-time state (partitions, servers, registries) is
/// immutable afterwards, and the router keeps nothing about a query past
/// its session: a merged stream records its fan-out and shard pulls into
/// the router's histograms as it retires, and the router holds no lock.
class ShardRouter : public net::FrameHandler, public server::InnBackend {
 public:
  /// Partitions `dataset` and builds the fleet. Fails on an unbuildable
  /// partition or R-tree, never on skew (empty shards are served by empty
  /// trees and pruned from every query's fan-out).
  static Result<std::unique_ptr<ShardRouter>> Build(
      const datasets::Dataset& dataset,
      const ShardRouterOptions& options = ShardRouterOptions());

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// server::InnBackend: a lazily fanned-out scatter-gather merge over the
  /// fleet. Called by the fronting engine on every session open.
  std::unique_ptr<server::InnSource> OpenInnSource(
      const geom::Point& anchor, double epsilon, size_t k,
      const server::GranularOptions& options) override;

  /// net::FrameHandler: clients' wire frames go straight to the fronting
  /// engine — the router is a drop-in replacement for a single-server
  /// ServiceEngine behind the same protocol.
  std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) override;

  /// The fronting engine (sessions, backpressure, replay, tracing).
  service::ServiceEngine* front() { return front_.get(); }

  size_t num_shards() const { return partitioner_->num_shards(); }
  const HilbertRangePartitioner& partitioner() const { return *partitioner_; }
  server::LbsServer* shard_server(size_t i) { return servers_[i].get(); }
  telemetry::MetricRegistry* shard_registry(size_t i) {
    return shard_registries_[i].get();
  }
  telemetry::MetricRegistry* registry() { return registry_; }

 private:
  ShardRouter() = default;

  std::optional<HilbertRangePartitioner> partitioner_;
  std::vector<std::unique_ptr<server::LbsServer>> servers_;
  std::vector<std::unique_ptr<telemetry::MetricRegistry>> shard_registries_;

  telemetry::MetricRegistry* registry_ = nullptr;
  telemetry::Histogram* fanout_hist_ = nullptr;
  telemetry::Histogram* pulls_hist_ = nullptr;
  std::vector<telemetry::Counter*> shard_pull_counters_;

  /// Declared last: destroyed first, so every client session (and with it
  /// every ScatterGatherStream and its shard streams) retires while the
  /// shard servers and registries are still alive.
  std::unique_ptr<service::ServiceEngine> front_;
};

}  // namespace spacetwist::shard

#endif  // SPACETWIST_SHARD_ROUTER_H_
