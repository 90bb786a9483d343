#ifndef SPACETWIST_SHARD_SCATTER_GATHER_H_
#define SPACETWIST_SHARD_SCATTER_GATHER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/result.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/entry.h"
#include "server/cell_filter.h"
#include "server/granular_inn.h"
#include "server/inn_backend.h"
#include "shard/hilbert_partitioner.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace spacetwist::shard {

/// The router's k-way merge of per-shard INN streams — the server::InnSource
/// a ShardRouter hands to its fronting ServiceEngine, so one query against
/// the fleet is indistinguishable from one query against a single server.
///
/// The merge owns one granular stream per shard it reaches — the query's
/// own stream (same epsilon and k) on that shard's LbsServer, pulled
/// straight through its NextBatch — and applies Algorithm 2's cell filter
/// once more over the merge: identical rule, identical state evolution,
/// hence byte-identical output to GranularInnStream. Shard streams live and
/// die with the merge (a dry shard frees its stream at once), so nothing on
/// the shard side can expire under a live query.
///
/// The shard-local filter is only a pre-filter: a grid cell split across
/// two shards can pass up to k points from each, so the global cap stays
/// the router's job. It drops nothing the router would report:
///  * a shard admits the first k points of each lambda-cell among its own
///    points, in (distance, id) order — a superset of the shard's points
///    the global filter admits (fewer predecessors, never more);
///  * every point a shard drops follows k same-cell points of that shard,
///    so it comes after the first k points of its cell in global order;
///  * hence the merged, pre-filtered stream still holds the first k points
///    of every cell, in order, and the router's filter admits exactly
///    those. Fan-out is unchanged too: the reported points are the same,
///    and a shard is opened iff its rectangle's mindist does not exceed
///    the last reported distance (or the stream runs dry).
///
/// Laziness is what keeps the fan-out below N:
///  * a shard stream is opened only when its partition rectangle's mindist
///    to the anchor is <= the distance of the point about to be merged out
///    (shards the supply disk never reaches are never contacted);
///  * a shard is pulled only when its buffered head (or, unopened/drained,
///    its lower bound) could be the global minimum, and only for as many
///    points as the merged batch still needs — more could be wasted, since
///    other shards may supply the rest. A batch shorter than asked means
///    the shard is dry.
///
/// Every shard filled during a NextBatch() call therefore has lower bound
/// <= the distance of some delivered point <= the query's final supply
/// radius tau — the pruning-tightness property the shard tests pin down.
/// The batch sizes a caller asks for change how far ahead shards are read,
/// never the merged points or the shards opened.
class ScatterGatherStream : public server::InnSource {
 public:
  /// One shard of the fleet, as seen by the merge.
  struct ShardTarget {
    server::InnBackend* server = nullptr;       ///< borrowed
    /// The shard's private registry, receiving its streams' instruments.
    telemetry::MetricRegistry* registry = nullptr;
    const ShardPartition* partition = nullptr;  ///< borrowed
    telemetry::Counter* pulls = nullptr;        ///< router's shard.<i>.pulls
  };

  /// Borrows everything in `targets` and the router's
  /// shard.router.fanout and shard.router.query_pulls histograms.
  ScatterGatherStream(std::vector<ShardTarget> targets,
                      const geom::Point& anchor, double epsilon, size_t k,
                      const server::GranularOptions& options,
                      telemetry::Histogram* fanout_hist,
                      telemetry::Histogram* query_pulls_hist);

  /// Records the query's fan-out (shard streams opened, <= N thanks to
  /// rectangle pruning and lazy opening) and shard pulls into the router's
  /// histograms; the remaining shard streams go with the merge.
  ~ScatterGatherStream() override;

  ScatterGatherStream(const ScatterGatherStream&) = delete;
  ScatterGatherStream& operator=(const ScatterGatherStream&) = delete;

  /// Next globally distance-ordered (cell-filtered) point, or kExhausted
  /// once every reachable shard stream is dry.
  Result<rtree::DataPoint> Next() override;

  /// Appends the next globally distance-ordered (cell-filtered) points to
  /// `*out` until it holds `max_points`; fewer means every reachable shard
  /// stream is dry.
  Status NextBatch(size_t max_points,
                   std::vector<rtree::DataPoint>* out) override;

  void set_trace(telemetry::Trace* trace) override { trace_ = trace; }

  /// Merge steps play the role heap pops play in the single-server stream;
  /// node reads map to shard pulls (the unit of router I/O).
  uint64_t heap_pops() const override { return merge_pops_; }
  uint64_t node_reads() const override { return shard_pulls_; }

 private:
  struct ShardState {
    ShardTarget target;
    /// The shard's stream; null until the first fill and again once the
    /// shard runs dry.
    std::unique_ptr<server::InnSource> stream;
    /// No points beyond `buffer`: a pull came back short.
    bool exhausted = false;
    uint64_t next_seq = 0;  ///< pulls made so far
    /// Points buffered from pulls, each with its anchor distance
    /// (ascending within and across pulls of one shard).
    std::deque<rtree::Neighbor> buffer;
    /// Distance of the last point buffered so far: once the buffer drains,
    /// this lower-bounds everything the shard has yet to deliver.
    double floor = 0.0;
  };

  /// Lower bound on the next point shard `s` can deliver (infinity when
  /// exhausted; mindist to the partition rectangle before the first open).
  double LowerBound(const ShardState& s) const;

  /// Opens the shard stream if needed and pulls up to `max_points` from
  /// it into the buffer, marking the shard exhausted when it comes up
  /// short.
  Status Fill(ShardState* s, size_t shard_index, size_t max_points);

  /// Algorithm 2's per-point cell filter (same CellFilter state machine as
  /// the single-server streams, evicting lazily at the merge frontier):
  /// true if the point must be reported, false if its cell is full.
  bool PassesCellFilter(const rtree::Neighbor& n);

  std::vector<ShardState> shards_;
  geom::Point anchor_;
  double epsilon_;
  size_t k_;

  server::CellFilter filter_;

  std::vector<rtree::DataPoint> pulled_;  ///< Fill()'s batch scratch
  std::vector<rtree::DataPoint> single_;  ///< Next()'s one-point batch

  uint64_t fanout_ = 0;  ///< shard streams opened
  uint64_t shard_pulls_ = 0;
  uint64_t merge_pops_ = 0;
  telemetry::Trace* trace_ = nullptr;  ///< borrowed; see set_trace()

  /// The router's per-query histograms, recorded once on retirement.
  telemetry::Histogram* fanout_hist_;
  telemetry::Histogram* query_pulls_hist_;
  /// Router-level registry mirrors, aggregated across streams.
  telemetry::Counter* opens_metric_;
  telemetry::Counter* pulls_metric_;
  telemetry::Counter* merge_pops_metric_;
  telemetry::Counter* points_reported_metric_;
};

}  // namespace spacetwist::shard

#endif  // SPACETWIST_SHARD_SCATTER_GATHER_H_
