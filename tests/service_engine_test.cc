#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/anchor.h"
#include "core/spacetwist_client.h"
#include "datasets/generator.h"
#include "net/wire.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/thread_pool.h"
#include "service/wire_client.h"
#include "telemetry/clock.h"

namespace spacetwist::service {
namespace {

class ServiceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(20000, 1901);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ = server::LbsServer::Build(dataset_, rtree_options)
                  .MoveValueOrDie();
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
};

TEST_F(ServiceEngineTest, OpenPullCloseTypedApi) {
  ServiceEngine engine(server_.get());
  auto id = engine.Open({5000, 5000}, 0.0, 1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.open_sessions(), 1u);

  auto packet = engine.Pull(*id);
  ASSERT_TRUE(packet.ok());
  EXPECT_EQ(packet->size(), 67u);
  double prev = -1;
  for (int i = 0; i < 3; ++i) {
    auto next = engine.Pull(*id);
    ASSERT_TRUE(next.ok());
    for (const rtree::DataPoint& p : next->points) {
      const double d = geom::Distance({5000, 5000}, p.point);
      EXPECT_GE(d, prev - 1e-9);
      prev = d;
    }
  }
  auto stats = engine.SessionStats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->downlink_packets, 4u);

  EXPECT_TRUE(engine.Close(*id).ok());
  EXPECT_EQ(engine.open_sessions(), 0u);
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.sessions_opened, 1u);
  EXPECT_EQ(metrics.sessions_closed, 1u);
  EXPECT_EQ(metrics.transport.downlink_packets, 4u);
  EXPECT_EQ(metrics.transport.downlink_points, 4u * 67u);
}

TEST_F(ServiceEngineTest, UnknownAndClosedSessionsAreNotFound) {
  ServiceEngine engine(server_.get());
  EXPECT_TRUE(engine.Pull(12345).status().IsNotFound());
  EXPECT_TRUE(engine.SessionStats(12345).status().IsNotFound());
  auto id = engine.Open({1, 1}, 0.0, 1);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Close(*id).ok());
  EXPECT_TRUE(engine.Close(*id).IsNotFound());
  EXPECT_TRUE(engine.Pull(*id).status().IsNotFound());
}

TEST_F(ServiceEngineTest, RejectsBadParameters) {
  ServiceEngine engine(server_.get());
  EXPECT_TRUE(engine.Open({1, 1}, 0.0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Open({1, 1}, -1.0, 1).status().IsInvalidArgument());
}

TEST_F(ServiceEngineTest, SessionCapGivesResourceExhausted) {
  ServiceOptions options;
  options.max_sessions = 2;
  ServiceEngine engine(server_.get(), options);
  auto a = engine.Open({1, 1}, 0, 1);
  auto b = engine.Open({2, 2}, 0, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(engine.Open({3, 3}, 0, 1).status().IsResourceExhausted());
  EXPECT_EQ(engine.metrics().sessions_rejected, 1u);
  ASSERT_TRUE(engine.Close(*a).ok());
  EXPECT_TRUE(engine.Open({3, 3}, 0, 1).ok());
}

TEST_F(ServiceEngineTest, IdleSessionsAreEvictedByTtl) {
  telemetry::VirtualClock fake_now;
  ServiceOptions options;
  options.idle_ttl_ns = 1000;
  options.clock = &fake_now;
  ServiceEngine engine(server_.get(), options);

  auto stale = engine.Open({1000, 1000}, 0.0, 1);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(engine.Pull(*stale).ok());
  fake_now.Set(900);
  auto fresh = engine.Open({9000, 9000}, 0.0, 1);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(engine.Pull(*fresh).ok());

  fake_now.Set(1500);  // stale idle 1500ns > ttl; fresh idle 600ns
  EXPECT_EQ(engine.EvictIdle(), 1u);
  EXPECT_EQ(engine.open_sessions(), 1u);
  EXPECT_TRUE(engine.Pull(*stale).status().IsNotFound());
  EXPECT_TRUE(engine.Pull(*fresh).ok());

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.sessions_evicted, 1u);
  // The abandoned session's packet still landed in the absorbed totals.
  EXPECT_EQ(metrics.transport.downlink_packets, 1u);
}

TEST_F(ServiceEngineTest, OpenPathSweepsExpiredSessionsToMakeRoom) {
  telemetry::VirtualClock fake_now;
  ServiceOptions options;
  options.max_sessions = 1;
  options.idle_ttl_ns = 1000;
  options.clock = &fake_now;
  ServiceEngine engine(server_.get(), options);

  auto abandoned = engine.Open({1000, 1000}, 0.0, 1);
  ASSERT_TRUE(abandoned.ok());
  // At capacity and not yet expired: backpressure.
  EXPECT_TRUE(engine.Open({2, 2}, 0, 1).status().IsResourceExhausted());
  fake_now.Set(5000);
  // Now expired: Open reclaims the slot instead of rejecting.
  auto id = engine.Open({2, 2}, 0, 1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.open_sessions(), 1u);
  EXPECT_EQ(engine.metrics().sessions_evicted, 1u);
}

TEST_F(ServiceEngineTest, WireFlowMatchesTypedApi) {
  ServiceEngine engine(server_.get());

  net::OpenRequest open;
  open.anchor = {5000, 5000};
  open.epsilon = 0.0;
  open.k = 1;
  auto open_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(open)));
  ASSERT_TRUE(open_reply.ok());
  auto* opened = std::get_if<net::OpenOk>(&*open_reply);
  ASSERT_NE(opened, nullptr);

  auto pull_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(
          net::PullRequest{opened->session_id})));
  ASSERT_TRUE(pull_reply.ok());
  auto* packet = std::get_if<net::PacketReply>(&*pull_reply);
  ASSERT_NE(packet, nullptr);
  EXPECT_EQ(packet->packet.size(), 67u);

  auto close_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(
          net::CloseRequest{opened->session_id})));
  ASSERT_TRUE(close_reply.ok());
  EXPECT_NE(std::get_if<net::CloseOk>(&*close_reply), nullptr);
  EXPECT_EQ(engine.open_sessions(), 0u);

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.open_requests, 1u);
  EXPECT_EQ(metrics.pull_requests, 1u);
  EXPECT_EQ(metrics.close_requests, 1u);
}

TEST_F(ServiceEngineTest, WireErrorsCarryTheStatusCode) {
  ServiceOptions options;
  options.max_sessions = 1;
  ServiceEngine engine(server_.get(), options);

  // Pull on a bogus id -> kNotFound over the wire.
  auto reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(net::PullRequest{999})));
  ASSERT_TRUE(reply.ok());
  auto* error = std::get_if<net::ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_TRUE(net::ToStatus(*error).IsNotFound());

  // Cap hit -> kResourceExhausted over the wire.
  ASSERT_TRUE(engine.Open({1, 1}, 0, 1).ok());
  net::OpenRequest open;
  open.anchor = {2, 2};
  reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(open)));
  ASSERT_TRUE(reply.ok());
  error = std::get_if<net::ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_TRUE(net::ToStatus(*error).IsResourceExhausted());
}

/// A CRC-valid Open whose epsilon or anchor is NaN, infinite or beyond
/// float32's range is kInvalidArgument on the wire. Unchecked, NaN aborts
/// the serving kernel and an infinite epsilon never returns from the first
/// pull; the engine keeps serving afterwards.
TEST_F(ServiceEngineTest, NonFiniteOpenParametersAreInvalidArgument) {
  ServiceEngine engine(server_.get());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* what;
    geom::Point anchor;
    double epsilon;
  };
  // NaN first: an unchecked engine aborts on it rather than hanging.
  const std::vector<Bad> bad = {
      {"epsilon NaN", {5000, 5000}, nan},
      {"epsilon +inf", {5000, 5000}, inf},
      {"epsilon 5e38", {5000, 5000}, 5e38},
      {"anchor.x NaN", {nan, 5000}, 0.0},
  };
  for (const Bad& b : bad) {
    net::OpenRequest open;
    open.anchor = b.anchor;
    open.epsilon = b.epsilon;
    open.k = 1;
    auto reply =
        net::DecodeResponse(engine.HandleFrame(net::EncodeRequest(open)));
    ASSERT_TRUE(reply.ok()) << b.what;
    const auto* error = std::get_if<net::ErrorReply>(&*reply);
    ASSERT_NE(error, nullptr) << b.what;
    EXPECT_TRUE(net::ToStatus(*error).IsInvalidArgument()) << b.what;
  }
  EXPECT_EQ(engine.open_sessions(), 0u);

  net::OpenRequest open;
  open.anchor = {5000, 5000};
  open.epsilon = 50.0;
  open.k = 4;
  auto reply =
      net::DecodeResponse(engine.HandleFrame(net::EncodeRequest(open)));
  ASSERT_TRUE(reply.ok());
  const auto* opened = std::get_if<net::OpenOk>(&*reply);
  ASSERT_NE(opened, nullptr);
  reply = net::DecodeResponse(engine.HandleFrame(
      net::EncodeRequest(net::PullRequest{opened->session_id})));
  ASSERT_TRUE(reply.ok());
  const auto* packet = std::get_if<net::PacketReply>(&*reply);
  ASSERT_NE(packet, nullptr);
  EXPECT_EQ(packet->packet.size(), 67u);
}

TEST_F(ServiceEngineTest, MalformedFramesGetErrorRepliesNotCrashes) {
  ServiceEngine engine(server_.get());
  const std::vector<std::vector<uint8_t>> bad = {
      {},                          // empty
      {1, 2, 3},                   // shorter than a header
      {0xFF, 0xFF, 0xFF, 0x7F, 1},  // absurd declared length
      [] {                         // response frame sent as a request
        return net::EncodeResponse(net::OpenOk{1});
      }(),
  };
  for (const std::vector<uint8_t>& frame : bad) {
    auto reply = net::DecodeResponse(engine.HandleFrame(frame));
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(std::get_if<net::ErrorReply>(&*reply), nullptr);
  }
  EXPECT_EQ(engine.metrics().decode_errors, bad.size());
  EXPECT_EQ(engine.open_sessions(), 0u);
}

TEST_F(ServiceEngineTest, RemoteQueryMatchesDirectClientExactly) {
  ServiceEngine engine(server_.get());
  core::SpaceTwistClient direct(server_.get());
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Point q{rng.Uniform(500, 9500), rng.Uniform(500, 9500)};
    core::QueryParams params;
    params.k = 1 + static_cast<size_t>(trial % 4);
    params.epsilon = (trial % 2) ? 250.0 : 0.0;
    const geom::Point anchor = core::GenerateAnchor(
        q, params.anchor_distance, server_->domain(), &rng);

    auto remote = RemoteQuery(&engine, q, anchor, params);
    auto local = direct.Query(q, anchor, params);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(local.ok());

    ASSERT_EQ(remote->neighbors.size(), local->neighbors.size());
    for (size_t i = 0; i < remote->neighbors.size(); ++i) {
      EXPECT_EQ(remote->neighbors[i].point, local->neighbors[i].point);
      EXPECT_EQ(remote->neighbors[i].distance, local->neighbors[i].distance);
    }
    EXPECT_EQ(remote->packets, local->packets);
    EXPECT_EQ(remote->tau, local->tau);
    EXPECT_EQ(remote->gamma, local->gamma);
    ASSERT_EQ(remote->retrieved.size(), local->retrieved.size());
    for (size_t i = 0; i < remote->retrieved.size(); ++i) {
      EXPECT_EQ(remote->retrieved[i], local->retrieved[i]);
    }
  }
  // RemoteQuery closes its sessions; nothing leaks.
  EXPECT_EQ(engine.open_sessions(), 0u);
}

TEST_F(ServiceEngineTest, DestructorAbsorbsLiveSessions) {
  ServiceOptions options;
  ServiceEngine* leaky = new ServiceEngine(server_.get(), options);
  auto id = leaky->Open({5000, 5000}, 0.0, 1);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(leaky->Pull(*id).ok());
  delete leaky;  // must not leak the session's stream/channel (ASan-visible)
}

// The TSan target: many threads hammer one engine through the wire entry
// point with full sessions, strays, and metric reads, all concurrently.
TEST_F(ServiceEngineTest, ConcurrentWireTrafficIsRaceFree) {
  ServiceOptions options;
  options.num_shards = 4;
  options.max_sessions = 64;
  ServiceEngine engine(server_.get(), options);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  std::atomic<int> failures{0};
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&engine, &failures, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        core::QueryParams params;
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const geom::Point q{rng.Uniform(500, 9500),
                              rng.Uniform(500, 9500)};
          const geom::Point anchor = core::GenerateAnchor(
              q, params.anchor_distance, {{0, 0}, {10000, 10000}}, &rng);
          auto outcome = RemoteQuery(&engine, q, anchor, params);
          if (!outcome.ok()) failures.fetch_add(1);
          // Stray traffic interleaved with real sessions.
          engine.HandleFrame(net::EncodeRequest(
              net::PullRequest{rng.Next()}));
          engine.HandleFrame({0x01, 0x02});
          engine.metrics();
          engine.open_sessions();
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.open_sessions(), 0u);
  const EngineMetrics metrics = engine.metrics();
  constexpr uint64_t kTotalQueries = uint64_t{kThreads} * kQueriesPerThread;
  EXPECT_EQ(metrics.sessions_opened, kTotalQueries);
  EXPECT_EQ(metrics.sessions_closed, kTotalQueries);
  EXPECT_GT(metrics.transport.downlink_packets, 0u);
  EXPECT_EQ(metrics.decode_errors, kTotalQueries);
}

}  // namespace
}  // namespace spacetwist::service
