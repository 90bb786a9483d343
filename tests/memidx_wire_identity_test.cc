#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "shard/router.h"

namespace spacetwist {
namespace {

/// Satellite (wire level): serving from the memidx backend must leave the
/// wire traffic byte-identical to the paged backend — single server, 1- and
/// 4-shard fleets, and through a faulty transport. The reference digests
/// come from the direct library path, which always runs the paged granular
/// session, so every comparison here is a paged-vs-memidx differential.

datasets::Dataset TestDataset(size_t n, uint64_t seed) {
  datasets::Dataset dataset = datasets::GenerateUniform(n, seed);
  const size_t base = dataset.points.size();
  for (size_t i = 0; i < base / 10; ++i) {
    rtree::DataPoint dup = dataset.points[i * 7 % base];
    dup.id = static_cast<uint32_t>(base + i);
    dataset.points.push_back(dup);
  }
  dataset.name = "memidx_wire_test";
  return dataset;
}

constexpr size_t kClients = 10;

eval::LoadOptions TestLoad() {
  eval::LoadOptions load;
  load.worker_threads = 4;
  load.params.k = 4;
  load.params.epsilon = 250.0;
  load.params.anchor_distance = 300.0;
  return load;
}

eval::Schedule TestSchedule(const datasets::Dataset& dataset,
                            const eval::LoadOptions& load) {
  return eval::BuildClosedLoopWorkload(dataset.domain, load.params, kClients,
                                       3, /*seed=*/4242);
}

TEST(MemidxWireIdentityTest, SingleServerDigestsMatchPagedReference) {
  const datasets::Dataset dataset = TestDataset(4000, 904);
  const eval::LoadOptions load = TestLoad();
  const eval::Schedule schedule = TestSchedule(dataset, load);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;

  auto paged = server::LbsServer::Build(dataset, rtree_options).MoveValueOrDie();
  const auto reference =
      eval::RunReference(paged.get(), schedule, load.params).MoveValueOrDie();

  auto memidx = server::LbsServer::Build(dataset, rtree_options,
                                         server::ServingIndex::kMemidx)
                    .MoveValueOrDie();
  ASSERT_NE(memidx->mem_backend(), nullptr);
  service::ServiceOptions engine_options;
  engine_options.max_sessions = kClients * 2;
  service::ServiceEngine engine(memidx.get(), engine_options);
  auto report = eval::RunLoad(&engine, schedule, load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->digests, reference);
}

TEST(MemidxWireIdentityTest, ShardedFleetDigestsMatchPagedReference) {
  const datasets::Dataset dataset = TestDataset(4000, 905);
  const eval::LoadOptions load = TestLoad();
  const eval::Schedule schedule = TestSchedule(dataset, load);
  auto paged = server::LbsServer::Build(dataset).MoveValueOrDie();
  const auto reference =
      eval::RunReference(paged.get(), schedule, load.params).MoveValueOrDie();

  for (const size_t num_shards : {1u, 4u}) {
    shard::ShardRouterOptions options;
    options.num_shards = num_shards;
    options.serving = server::ServingIndex::kMemidx;
    options.front.max_sessions = kClients * 2;
    auto router = shard::ShardRouter::Build(dataset, options).MoveValueOrDie();
    for (size_t i = 0; i < router->num_shards(); ++i) {
      ASSERT_EQ(router->shard_server(i)->serving(),
                server::ServingIndex::kMemidx);
    }
    auto report = eval::RunLoad(router->front(), schedule, load);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->digests, reference) << "shards=" << num_shards;
  }
}

TEST(MemidxWireIdentityTest, FaultedTransportStillByteIdentical) {
  const datasets::Dataset dataset = TestDataset(2500, 906);
  auto paged = server::LbsServer::Build(dataset).MoveValueOrDie();

  eval::LoadOptions options;
  options.worker_threads = 1;
  options.params.k = 2;
  options.params.epsilon = 200.0;
  options.params.anchor_distance = 250.0;
  // 10% fault rate on both legs of the wire.
  options.fault.emplace();
  options.fault->uplink.drop = 0.10;
  options.fault->downlink.drop = 0.10;
  options.policy.max_attempts = 8;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      dataset.domain, options.params, 8, 3, /*seed=*/4242);

  const auto reference =
      eval::RunReference(paged.get(), schedule, options.params)
          .MoveValueOrDie();

  shard::ShardRouterOptions router_options;
  router_options.num_shards = 4;
  router_options.serving = server::ServingIndex::kMemidx;
  router_options.front.max_sessions = 8 * 2;
  auto router =
      shard::ShardRouter::Build(dataset, router_options).MoveValueOrDie();
  auto report = eval::RunLoad(router->front(), schedule, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->faults.drops, 0u);
  size_t compared = 0;
  for (size_t i = 0; i < schedule.arrivals.size(); ++i) {
    if (!report->succeeded[i]) continue;
    EXPECT_EQ(report->digests[i], reference[i]) << "query " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace spacetwist
