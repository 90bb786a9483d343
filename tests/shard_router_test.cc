#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/load_generator.h"
#include "geom/grid.h"
#include "net/faulty_transport.h"
#include "spacetwist/spacetwist.h"

namespace spacetwist::shard {
namespace {

/// Clustered data with injected duplicates: distance ties across shard
/// boundaries are exactly what the merge's (distance, id) order must get
/// right, so the identity tests would be toothless without them.
datasets::Dataset TestDataset(size_t n, uint64_t seed) {
  datasets::Dataset dataset = datasets::GenerateUniform(n, seed);
  const size_t base = dataset.points.size();
  for (size_t i = 0; i < base / 10; ++i) {
    rtree::DataPoint dup = dataset.points[i * 7 % base];
    dup.id = static_cast<uint32_t>(base + i);
    dataset.points.push_back(dup);
  }
  dataset.name = "shard_test";
  return dataset;
}

std::unique_ptr<ShardRouter> BuildRouter(const datasets::Dataset& dataset,
                                         size_t num_shards,
                                         telemetry::MetricRegistry* registry) {
  ShardRouterOptions options;
  options.num_shards = num_shards;
  options.registry = registry;
  options.front.registry = registry;
  options.front.granular.registry = registry;
  return ShardRouter::Build(dataset, options).MoveValueOrDie();
}

/// Two thousand points packed into one 60 m square (inside a single
/// lambda-cell at epsilon = 500) among a thousand uniform ones. The cluster
/// holds two thirds of the points, so every Hilbert-range fleet of 2, 4 or
/// 8 shards cuts through it, leaving that cell with many points on both
/// sides of a partition boundary: the case where the shards' local cell
/// filters and the router's global one see different counts.
datasets::Dataset StraddlingCellDataset(uint64_t seed) {
  datasets::Dataset dataset = datasets::GenerateUniform(1000, seed);
  Rng rng(seed + 1);
  const auto quantize = [](double v) {
    return static_cast<double>(static_cast<float>(v));
  };
  for (uint32_t i = 0; i < 2000; ++i) {
    rtree::DataPoint p;
    p.id = static_cast<uint32_t>(dataset.points.size());
    p.point = {quantize(rng.Uniform(5050.0, 5110.0)),
               quantize(rng.Uniform(5050.0, 5110.0))};
    dataset.points.push_back(p);
  }
  dataset.name = "straddling_cell";
  return dataset;
}

/// Largest count c such that some lambda-cell has at least c points in each
/// of two different shards.
size_t MaxPointsPerSideOfASplitCell(const ShardRouter& router, double epsilon) {
  const geom::Grid grid(epsilon / std::sqrt(2.0));
  std::map<std::pair<int64_t, int64_t>, std::vector<size_t>> per_shard;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    for (const rtree::DataPoint& p : router.partitioner().partition(i)
                                          .dataset.points) {
      const geom::GridCell c = grid.CellOf(p.point);
      std::vector<size_t>& counts = per_shard[{c.ix, c.iy}];
      counts.resize(router.num_shards(), 0);
      ++counts[i];
    }
  }
  size_t best = 0;
  for (auto& [cell, counts] : per_shard) {
    std::sort(counts.rbegin(), counts.rend());
    best = std::max(best, counts[1]);
  }
  return best;
}

/// The router's merged stream against the single server's granular stream,
/// point for point — every rank, including exact INN and through
/// exhaustion.
void ExpectMergedStreamsIdentical(const datasets::Dataset& dataset,
                                  const std::vector<geom::Point>& anchors,
                                  const std::vector<double>& epsilons,
                                  const std::vector<size_t>& ks,
                                  size_t min_split_cell_points) {
  auto single = server::LbsServer::Build(dataset).MoveValueOrDie();
  telemetry::MetricRegistry registry;
  for (const size_t num_shards : {2u, 4u, 8u}) {
    auto router = BuildRouter(dataset, num_shards, &registry);
    if (min_split_cell_points > 0) {
      ASSERT_GT(MaxPointsPerSideOfASplitCell(*router, epsilons.back()),
                min_split_cell_points)
          << "shards=" << num_shards << ": no cell straddles a boundary";
    }
    for (const double epsilon : epsilons) {
      for (const size_t k : ks) {
        for (const geom::Point& anchor : anchors) {
          server::GranularOptions stream_options;
          stream_options.registry = &registry;
          auto expected = single->OpenGranularSession(anchor, epsilon, k,
                                                      stream_options);
          auto actual =
              router->OpenInnSource(anchor, epsilon, k, stream_options);
          for (int rank = 0;; ++rank) {
            auto want = expected->Next();
            auto got = actual->Next();
            ASSERT_EQ(want.ok(), got.ok())
                << "shards=" << num_shards << " eps=" << epsilon
                << " k=" << k << " rank=" << rank;
            if (!want.ok()) {
              EXPECT_TRUE(want.status().IsExhausted());
              EXPECT_TRUE(got.status().IsExhausted());
              break;
            }
            ASSERT_EQ(*want, *got)
                << "shards=" << num_shards << " eps=" << epsilon
                << " k=" << k << " rank=" << rank;
          }
        }
      }
    }
  }
}

/// Stream level: the router's merged stream is point-for-point
/// identical to the single server's granular stream — every rank, every
/// epsilon, including exact INN and through exhaustion. The second input
/// splits one lambda-cell across shard boundaries with more than k points
/// on each side, where the shards' pre-filters each pass up to k of them.
TEST(ShardRouterStreamTest, MergedStreamByteIdenticalToSingleServer) {
  ExpectMergedStreamsIdentical(
      TestDataset(3000, 901),
      {{5000, 5000}, {123, 456}, {9990, 120}, {4000, 9500}},
      {0.0, 150.0, 500.0}, {1u, 4u}, /*min_split_cell_points=*/0);
  ExpectMergedStreamsIdentical(
      StraddlingCellDataset(908),
      {{5080, 5080}, {5000, 5400}, {4500, 4600}, {9000, 1000}},
      {150.0, 500.0}, {1u, 4u, 16u}, /*min_split_cell_points=*/16);
}

/// Satellite 1 (workload level): closed-loop workload digests through the
/// fronting engine are byte-identical to the single-server reference for
/// every fleet size.
TEST(ShardRouterWorkloadTest, DigestsMatchReferenceAcrossFleetSizes) {
  const datasets::Dataset dataset = TestDataset(4000, 902);
  auto single = server::LbsServer::Build(dataset).MoveValueOrDie();
  eval::LoadOptions load;
  load.worker_threads = 4;
  load.params.k = 4;
  load.params.epsilon = 250.0;
  load.params.anchor_distance = 300.0;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      dataset.domain, load.params, 12, 3, /*seed=*/4242);
  const auto reference =
      eval::RunReference(single.get(), schedule, load.params)
          .MoveValueOrDie();
  for (const size_t num_shards : {1u, 2u, 4u, 8u}) {
    telemetry::MetricRegistry registry;
    auto router = BuildRouter(dataset, num_shards, &registry);
    auto report = eval::RunLoad(router->front(), schedule, load);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->digests, reference) << "shards=" << num_shards;
  }
}

/// Satellite 1 (faulted wire): with a FaultyTransport between client and
/// router, every query the retry layer reports as succeeded is still
/// byte-identical to the fault-free single-server reference.
TEST(ShardRouterWorkloadTest, FaultedClientRouterLegStillByteIdentical) {
  const datasets::Dataset dataset = TestDataset(2500, 903);
  auto single = server::LbsServer::Build(dataset).MoveValueOrDie();
  telemetry::MetricRegistry registry;
  auto router = BuildRouter(dataset, 4, &registry);

  eval::LoadOptions options;
  options.worker_threads = 1;
  options.params.k = 2;
  options.params.epsilon = 200.0;
  options.params.anchor_distance = 250.0;
  options.fault.emplace();
  options.fault->uplink.drop = 0.08;
  options.fault->downlink.drop = 0.08;
  options.fault->downlink.corrupt = 0.05;
  options.policy.max_attempts = 8;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      dataset.domain, options.params, 8, 3, /*seed=*/4242);

  const auto reference =
      eval::RunReference(single.get(), schedule, options.params)
          .MoveValueOrDie();
  auto report = eval::RunLoad(router->front(), schedule, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->faults.drops + report->faults.corruptions, 0u);
  size_t compared = 0;
  for (size_t i = 0; i < schedule.arrivals.size(); ++i) {
    if (!report->succeeded[i]) continue;
    EXPECT_EQ(report->digests[i], reference[i]) << "query " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// Satellite 3: the per-query fan-out never exceeds the number of partition
/// rectangles the final supply disk (radius tau around the anchor)
/// intersects — the router provably opens no shard the query could not
/// need. Exhausted streams are exempt (draining the fleet touches every
/// populated shard by definition).
TEST(ShardRouterFanoutTest, FanoutBoundedBySupplyDiskIntersections) {
  const datasets::Dataset dataset = TestDataset(4000, 904);
  telemetry::MetricRegistry registry;
  auto router = BuildRouter(dataset, 8, &registry);

  core::QueryParams params;
  params.k = 4;
  params.epsilon = 250.0;
  params.anchor_distance = 300.0;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      dataset.domain, params, 24, 2, /*seed=*/4242);
  size_t checked = 0;
  for (const eval::Arrival& a : schedule.arrivals) {
    auto outcome = service::RemoteQuery(router.get(), a.q, a.anchor, params);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto fanout = router->TakeFanout(a.anchor);
    ASSERT_TRUE(fanout.has_value());
    EXPECT_GE(fanout->fanout, 1u);
    EXPECT_GE(fanout->shard_pulls, fanout->fanout);
    if (outcome->stream_exhausted) continue;
    size_t reachable = 0;
    for (size_t i = 0; i < router->num_shards(); ++i) {
      const ShardPartition& part = router->partitioner().partition(i);
      if (part.HasPoints() &&
          geom::MinDist(a.anchor, part.bounds) <= outcome->tau) {
        ++reachable;
      }
    }
    EXPECT_LE(fanout->fanout, reachable)
        << "client " << a.user << " tau " << outcome->tau;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

/// Satellite 3 (pinned regression): the default beta = 67 workload's total
/// fan-out is deterministic; mean fan-out must stay strictly below the
/// fleet size (the whole point of spatial routing) and any change to the
/// pinned totals is a routing-behavior change that needs review.
TEST(ShardRouterFanoutTest, DefaultBetaFanoutPinnedAndSubLinear) {
  const datasets::Dataset dataset = TestDataset(4000, 905);
  telemetry::MetricRegistry registry;
  auto router = BuildRouter(dataset, 8, &registry);
  ASSERT_EQ(net::PacketConfig().Capacity(), 67u);

  core::QueryParams params;  // defaults: k=1, eps=200, beta=67
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      dataset.domain, params, 16, 2, /*seed=*/4242);
  uint64_t total_fanout = 0;
  uint64_t total_pulls = 0;
  uint64_t queries = 0;
  for (const eval::Arrival& a : schedule.arrivals) {
    auto outcome = service::RemoteQuery(router.get(), a.q, a.anchor, params);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto fanout = router->TakeFanout(a.anchor);
    ASSERT_TRUE(fanout.has_value());
    total_fanout += fanout->fanout;
    total_pulls += fanout->shard_pulls;
    ++queries;
  }
  EXPECT_EQ(queries, 32u);
  const double mean_fanout =
      static_cast<double>(total_fanout) / static_cast<double>(queries);
  EXPECT_LT(mean_fanout, 8.0);
  // Pinned totals for this seeded workload (deterministic by construction).
  // A diff here means the routing policy changed — re-derive deliberately.
  // Shard streams pre-filter by cell, so every opened shard answers this
  // workload with a single packet.
  EXPECT_EQ(total_fanout, 58u);
  EXPECT_EQ(total_pulls, 58u);
}

/// Tentpole plumbing: per-shard pull counters and the fan-out histogram
/// land in the router's registry, and a traced query carries router ->
/// shard spans in one tree.
TEST(ShardRouterTelemetryTest, MetricsAndTraceSpans) {
  const datasets::Dataset dataset = TestDataset(2000, 906);
  telemetry::MetricRegistry registry;
  auto router = BuildRouter(dataset, 4, &registry);

  core::QueryParams params;
  params.k = 2;
  telemetry::Trace trace;
  service::RetryConfig retry;
  retry.trace = &trace;
  retry.trace_id = 0x70;
  net::DirectTransport transport(router.get());
  const geom::Point q{5000, 5000};
  const geom::Point anchor{5150, 4900};
  auto outcome = service::RemoteQuery(&transport, q, anchor, params, retry);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  size_t shard_pull_spans = 0;
  size_t shard_open_spans = 0;
  for (const telemetry::SpanRecord& span : trace.records()) {
    if (span.name == "router.shard.pull") ++shard_pull_spans;
    if (span.name == "router.shard.open") ++shard_open_spans;
  }
  EXPECT_GT(shard_open_spans, 0u);
  EXPECT_GT(shard_pull_spans, 0u);

  const telemetry::RegistrySnapshot snapshot = registry.Snapshot();
  uint64_t shard_pulls_total = 0;
  bool saw_fanout_hist = false;
  bool saw_partition_hist = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("shard.", 0) == 0 &&
        name.find(".pulls") != std::string::npos) {
      shard_pulls_total += value;
    }
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name == "shard.router.fanout") {
      saw_fanout_hist = true;
      EXPECT_GT(hist.count, 0u);
    }
    if (name == "shard.partition.points") {
      saw_partition_hist = true;
      EXPECT_EQ(hist.count, 4u);
    }
  }
  EXPECT_TRUE(saw_fanout_hist);
  EXPECT_TRUE(saw_partition_hist);
  EXPECT_GT(shard_pulls_total, 0u);
  // Per-shard engines report on their own registries.
  uint64_t shard_engine_pulls = 0;
  for (size_t i = 0; i < router->num_shards(); ++i) {
    shard_engine_pulls += router->shard_engine(i)->metrics().pull_requests;
  }
  EXPECT_EQ(shard_engine_pulls, shard_pulls_total);
}

/// The eval fan-out probe: tradeoff records carry the fan-out leg when the
/// load generator runs against a sharded backend.
TEST(ShardRouterTelemetryTest, LoadGeneratorFanoutProbe) {
  const datasets::Dataset dataset = TestDataset(2500, 907);
  telemetry::MetricRegistry registry;
  auto router = BuildRouter(dataset, 4, &registry);
  eval::LoadOptions load;
  load.params.k = 2;
  ShardRouter* raw = router.get();
  load.fanout_probe = [raw](const geom::Point& anchor,
                            eval::TradeoffRecord* record) {
    if (auto fanout = raw->TakeFanout(anchor)) {
      record->fanout = fanout->fanout;
      record->shard_pulls = fanout->shard_pulls;
    }
  };
  auto report = eval::RunLoad(
      router->front(),
      eval::BuildClosedLoopWorkload(dataset.domain, load.params, 6, 2, 4242),
      load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->tradeoffs.size(), 12u);
  for (const eval::TradeoffRecord& rec : report->tradeoffs) {
    EXPECT_GE(rec.fanout, 1u);
    EXPECT_LE(rec.fanout, 4u);
    EXPECT_GE(rec.shard_pulls, rec.fanout);
  }
}

}  // namespace
}  // namespace spacetwist::shard
