#ifndef SPACETWIST_SHARD_ROUTER_H_
#define SPACETWIST_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
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
  HilbertRangePartitioner::Options partition;
  /// Per-shard R-tree build options; `concurrent_reads` is forced on (many
  /// queries' shard streams read a shard at once).
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
  /// shard.<i>.pulls, shard.partition.points (null = process default).
  /// Each shard additionally gets its own private registry
  /// (shard_registry(i)) holding its streams' server.granular.* counters.
  telemetry::MetricRegistry* registry = nullptr;
};

/// Per-query fan-out numbers, aggregated across a query's (possibly
/// retried) merged streams: how many distinct shard streams the widest
/// attempt opened and how many shard packets all attempts pulled.
struct QueryFanout {
  uint32_t fanout = 0;
  uint64_t shard_pulls = 0;
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
/// immutable afterwards; the fan-out log has its own mutex. Lock order is
/// front-engine stripe -> fan-out log mutex (a merged stream pulls its
/// shard streams and retires into the log under its session's stripe);
/// nothing takes them in reverse. That order is the kEngineFront <
/// kRouterFanout segment of the global lock-rank table (docs/ANALYSIS.md,
/// Lock ranks) and is machine-enforced.
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

  /// Consumes the fan-out record of the query anchored at `anchor`
  /// (eval's fan-out probe). Empty if no stream for that anchor has
  /// retired yet — callers probe after the query's session is closed.
  std::optional<QueryFanout> TakeFanout(const geom::Point& anchor);

 private:
  ShardRouter() = default;

  /// Stream-retirement hook: folds one merged stream's stats into the
  /// fan-out histogram and the per-anchor log.
  void RetireStream(const geom::Point& anchor, uint32_t fanout,
                    uint64_t shard_pulls);

  /// Anchors are float32-quantized client coordinates; their exact bit
  /// patterns key the fan-out log.
  static std::pair<uint64_t, uint64_t> AnchorKey(const geom::Point& anchor);

  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
      uint64_t h = k.first * 0x9E3779B97F4A7C15ULL;
      h ^= k.second + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  std::optional<HilbertRangePartitioner> partitioner_;
  std::vector<std::unique_ptr<server::LbsServer>> servers_;
  std::vector<std::unique_ptr<telemetry::MetricRegistry>> shard_registries_;

  telemetry::MetricRegistry* registry_ = nullptr;
  telemetry::Histogram* fanout_hist_ = nullptr;
  telemetry::Histogram* pulls_hist_ = nullptr;
  std::vector<telemetry::Counter*> shard_pull_counters_;

  // Rank: a retiring merged stream folds into this log while its owning
  // front stripe is held above it.
  mutable Mutex fanout_mu_ ACQUIRED_AFTER(lock_order::kRouterFanout)
      ACQUIRED_BEFORE(lock_order::kTraceSink){LockRank::kRouterFanout,
                                              "shard.router.fanout"};
  std::unordered_map<std::pair<uint64_t, uint64_t>, QueryFanout, PairHash>
      fanout_log_ GUARDED_BY(fanout_mu_);

  /// Declared last: destroyed first, so every client session (and with it
  /// every ScatterGatherStream and its shard streams) retires while the
  /// shard servers, registries and fan-out log are still alive.
  std::unique_ptr<service::ServiceEngine> front_;
};

}  // namespace spacetwist::shard

#endif  // SPACETWIST_SHARD_ROUTER_H_
