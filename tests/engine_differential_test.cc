#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/anchor.h"
#include "datasets/generator.h"
#include "engine/event_engine.h"
#include "engine/event_transport.h"
#include "eval/load_generator.h"
#include "net/faulty_transport.h"
#include "net/wire.h"
#include "spacetwist/spacetwist.h"

namespace spacetwist::engine {
namespace {

/// Clustered data with injected duplicates, same recipe as the shard tests:
/// distance ties are where result order could silently diverge, so the
/// identity checks would be toothless without them.
datasets::Dataset TestDataset(size_t n, uint64_t seed) {
  datasets::Dataset dataset = datasets::GenerateUniform(n, seed);
  const size_t base = dataset.points.size();
  for (size_t i = 0; i < base / 10; ++i) {
    rtree::DataPoint dup = dataset.points[i * 7 % base];
    dup.id = static_cast<uint32_t>(base + i);
    dataset.points.push_back(dup);
  }
  dataset.name = "engine_diff_test";
  return dataset;
}

class EngineDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = TestDataset(8000, 7101);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ = server::LbsServer::Build(dataset_, rtree_options)
                  .MoveValueOrDie();
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
};

/// The sharpest form of the contract: the exact request frame sequence of a
/// whole wire session — open, sequenced pulls (including an idempotent
/// replay and an out-of-window pull), a misdirected close, a real close, a
/// double close, and a malformed frame — yields byte-identical response
/// frames from the thread-per-pull engine and from the event-driven path.
TEST_F(EngineDifferentialTest, FrameSequenceByteIdentical) {
  // Two fresh engines over the same backend allocate the same session ids.
  service::ServiceEngine threadper(server_.get());
  service::ServiceEngine evented(server_.get());
  InProcessEventTransport transport;
  EventEngine engine(&evented, &transport, EventEngineOptions{});
  EventEngine::Port port = engine.NewPort();

  std::vector<std::vector<uint8_t>> frames;
  net::OpenRequest open;
  open.anchor = {4200, 6100};
  open.epsilon = 150.0;
  open.k = 3;
  open.nonce = 77;
  frames.push_back(net::EncodeRequest(open));
  const uint64_t session_id = 1;  // first id both engines hand out
  for (uint64_t seq : {0u, 1u, 1u, 2u, 5u}) {  // replay of 1, 5 out of window
    net::PullRequest pull;
    pull.session_id = session_id;
    pull.seq = seq;
    frames.push_back(net::EncodeRequest(pull));
  }
  net::CloseRequest bad_close;
  bad_close.session_id = 999;  // unknown session
  frames.push_back(net::EncodeRequest(bad_close));
  net::CloseRequest close;
  close.session_id = session_id;
  frames.push_back(net::EncodeRequest(close));
  frames.push_back(net::EncodeRequest(close));     // double close
  frames.push_back({0xBA, 0xD0, 0xF0, 0x0D});      // malformed frame

  for (size_t i = 0; i < frames.size(); ++i) {
    const std::vector<uint8_t> want = threadper.HandleFrame(frames[i]);
    const std::vector<uint8_t> got = port.HandleFrame(frames[i]);
    EXPECT_EQ(want, got) << "frame " << i;
  }
}

/// Workload-level identity, single server: open-loop digests through the
/// event engine equal the single-threaded library reference, at a load low
/// enough that nothing is shed.
TEST_F(EngineDifferentialTest, OpenLoopDigestsMatchReferenceSingleServer) {
  eval::ArrivalOptions arrival;
  arrival.rate_qps = 2000.0;
  arrival.num_users = 10;
  arrival.total_arrivals = 60;
  arrival.zipf_s = 1.0;
  arrival.seed = 515;
  eval::LoadOptions options;
  options.params.k = 3;
  options.params.epsilon = 200.0;
  options.params.anchor_distance = 300.0;
  options.worker_threads = 4;
  const eval::Schedule schedule =
      eval::BuildOpenLoopWorkload(dataset_.domain, options.params, arrival);

  const auto reference =
      eval::RunReference(server_.get(), schedule, options.params)
          .MoveValueOrDie();

  for (const auto pacing :
       {eval::Pacing::kMeasured, eval::Pacing::kModeled}) {
    options.pacing = pacing;
    telemetry::MetricRegistry registry;
    options.registry = &registry;
    service::ServiceOptions service_options;
    service_options.registry = &registry;
    service::ServiceEngine service(server_.get(), service_options);
    auto report = eval::RunLoad(&service, schedule, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rejected, 0u);
    EXPECT_EQ(report->completed, arrival.total_arrivals);
    EXPECT_EQ(report->digests, reference);
  }
}

/// Workload-level identity, sharded: the event engine fronting a 4-shard
/// ShardRouter fleet still matches the single-server reference digests.
TEST_F(EngineDifferentialTest, OpenLoopDigestsMatchReferenceAcrossShards) {
  eval::ArrivalOptions arrival;
  arrival.rate_qps = 2000.0;
  arrival.num_users = 8;
  arrival.total_arrivals = 40;
  arrival.seed = 616;
  eval::LoadOptions options;
  options.pacing = eval::Pacing::kMeasured;
  options.params.k = 4;
  options.params.epsilon = 250.0;
  options.params.anchor_distance = 300.0;
  const eval::Schedule schedule =
      eval::BuildOpenLoopWorkload(dataset_.domain, options.params, arrival);

  const auto reference =
      eval::RunReference(server_.get(), schedule, options.params)
          .MoveValueOrDie();

  telemetry::MetricRegistry registry;
  options.registry = &registry;
  shard::ShardRouterOptions router_options;
  router_options.num_shards = 4;
  router_options.registry = &registry;
  router_options.front.registry = &registry;
  router_options.front.granular.registry = &registry;
  auto router =
      shard::ShardRouter::Build(dataset_, router_options).MoveValueOrDie();

  auto report = eval::RunLoad(router->front(), schedule, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_EQ(report->digests, reference);
}

/// Faulted wire: the identical seeded fault schedule over both serving
/// paths — FaultyTransport(thread-per-pull engine) vs FaultyTransport(event
/// port) — must produce the same per-query outcomes, success pattern, and
/// retry accounting. The event loop is invisible to the fault layer.
TEST_F(EngineDifferentialTest, FaultedRetryOutcomesMatchThreadPerPull) {
  service::ServiceEngine threadper(server_.get());
  service::ServiceEngine evented(server_.get());
  InProcessEventTransport transport;
  EventEngine engine(&evented, &transport, EventEngineOptions{});
  EventEngine::Port port = engine.NewPort();

  net::FaultConfig fault;
  fault.uplink.drop = 0.10;
  fault.downlink.drop = 0.10;
  fault.downlink.corrupt = 0.06;
  fault.downlink.duplicate = 0.05;

  core::QueryParams params;
  params.k = 2;
  params.epsilon = 200.0;
  params.anchor_distance = 250.0;
  service::RetryConfig retry;
  retry.policy.max_attempts = 8;

  size_t succeeded = 0;
  size_t faulted = 0;
  for (uint64_t q = 0; q < 20; ++q) {
    Rng rng(eval::ClientSeed(929, q));
    const geom::Point query{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const geom::Point anchor = core::GenerateAnchor(
        query, params.anchor_distance, server_->domain(), &rng);

    net::FaultyTransport faulty_threadper(&threadper, fault, 4000 + q);
    net::FaultyTransport faulty_evented(&port, fault, 4000 + q);
    service::RetryStats stats_threadper;
    service::RetryStats stats_evented;
    auto want = service::RemoteQuery(&faulty_threadper, query, anchor,
                                     params, retry, &stats_threadper);
    auto got = service::RemoteQuery(&faulty_evented, query, anchor, params,
                                    retry, &stats_evented);
    ASSERT_EQ(want.ok(), got.ok()) << "query " << q;
    faulted += faulty_threadper.stats().round_trips -
               faulty_threadper.stats().delivered;
    if (!want.ok()) continue;
    ++succeeded;
    EXPECT_EQ(eval::DigestOf(*want), eval::DigestOf(*got)) << "query " << q;
    EXPECT_EQ(stats_threadper.attempts, stats_evented.attempts)
        << "query " << q;
    EXPECT_EQ(stats_threadper.retries, stats_evented.retries) << "query " << q;
    EXPECT_EQ(stats_threadper.reopens, stats_evented.reopens) << "query " << q;
    EXPECT_EQ(stats_threadper.stale_replies, stats_evented.stale_replies)
        << "query " << q;
  }
  EXPECT_GT(succeeded, 0u) << "fault schedule killed every query";
  EXPECT_GT(faulted, 0u) << "fault schedule never fired; test is toothless";
}

}  // namespace
}  // namespace spacetwist::engine
