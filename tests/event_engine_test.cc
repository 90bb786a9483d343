#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/anchor.h"
#include "datasets/generator.h"
#include "engine/event_engine.h"
#include "engine/event_transport.h"
#include "eval/load_generator.h"
#include "net/wire.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/wire_client.h"
#include "telemetry/registry.h"

namespace spacetwist::engine {
namespace {

TEST(InProcessEventTransportTest, SubmitPollReplyRoundTrip) {
  InProcessEventTransport transport;
  const uint64_t a = transport.Connect();
  const uint64_t b = transport.Connect();
  EXPECT_NE(a, b);

  ASSERT_TRUE(transport.Submit(a, {1, 2, 3}).ok());
  ASSERT_TRUE(transport.Submit(b, {4, 5}).ok());
  ASSERT_TRUE(transport.WaitReady());

  std::vector<FrameEvent> events;
  EXPECT_EQ(transport.PollReady(16, &events), 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].conn_id, a);
  EXPECT_EQ(events[0].frame, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(events[1].conn_id, b);

  transport.SendReply(b, {9});
  transport.SendReply(a, {7, 8});
  auto reply_a = transport.AwaitReply(a);
  ASSERT_TRUE(reply_a.ok());
  EXPECT_EQ(*reply_a, (std::vector<uint8_t>{7, 8}));
  auto reply_b = transport.AwaitReply(b);
  ASSERT_TRUE(reply_b.ok());
  EXPECT_EQ(*reply_b, (std::vector<uint8_t>{9}));
}

TEST(InProcessEventTransportTest, PollReadyHonorsBatchLimit) {
  InProcessEventTransport transport;
  const uint64_t conn = transport.Connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.Submit(conn, {static_cast<uint8_t>(i)}).ok());
  }
  std::vector<FrameEvent> events;
  EXPECT_EQ(transport.PollReady(2, &events), 2u);
  EXPECT_EQ(transport.PollReady(16, &events), 3u);
  EXPECT_EQ(events.size(), 5u);
  EXPECT_EQ(transport.PollReady(16, &events), 0u);
}

TEST(InProcessEventTransportTest, ShutdownWakesLoopAndClients) {
  InProcessEventTransport transport;
  const uint64_t conn = transport.Connect();
  // Accepted before shutdown: stays pollable afterwards.
  ASSERT_TRUE(transport.Submit(conn, {1}).ok());

  std::thread client([&] {
    auto reply = transport.AwaitReply(conn);
    EXPECT_FALSE(reply.ok());
  });
  transport.Shutdown();
  client.join();

  EXPECT_FALSE(transport.Submit(conn, {2}).ok());
  EXPECT_TRUE(transport.WaitReady());  // the accepted frame is still there
  std::vector<FrameEvent> events;
  EXPECT_EQ(transport.PollReady(16, &events), 1u);
  EXPECT_FALSE(transport.WaitReady());  // drained + shut down: loop exits
}

class EventEngineTest : public ::testing::Test {
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

TEST_F(EventEngineTest, ServesFullSessionThroughPort) {
  telemetry::MetricRegistry registry;
  service::ServiceOptions service_options;
  service_options.registry = &registry;
  service::ServiceEngine service(server_.get(), service_options);
  InProcessEventTransport transport;
  EventEngineOptions options;
  options.registry = &registry;
  EventEngine engine(&service, &transport, options);

  EventEngine::Port port = engine.NewPort();
  core::QueryParams params;
  params.k = 4;
  params.anchor_distance = 300.0;
  auto outcome =
      service::RemoteQuery(&port, {5000, 5000}, {5200, 5100}, params);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->neighbors.size(), 4u);

  const EventEngineMetrics metrics = engine.metrics();
  EXPECT_GE(metrics.frames, 3u);  // open + pulls + close
  EXPECT_EQ(metrics.frames, metrics.dispatched);
  EXPECT_EQ(metrics.replies, metrics.frames);
  EXPECT_EQ(metrics.decode_errors, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
}

TEST_F(EventEngineTest, LoopInstrumentsLandInRegistrySnapshot) {
  telemetry::MetricRegistry registry;
  service::ServiceOptions service_options;
  service_options.registry = &registry;
  service::ServiceEngine service(server_.get(), service_options);
  InProcessEventTransport transport;
  EventEngineOptions options;
  options.registry = &registry;
  EventEngine engine(&service, &transport, options);

  EventEngine::Port port = engine.NewPort();
  core::QueryParams params;
  params.k = 3;
  params.anchor_distance = 300.0;
  auto outcome =
      service::RemoteQuery(&port, {5000, 5000}, {5200, 5100}, params);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // engine.poll_batch: every accepted frame is polled in exactly one batch
  // before its reply publishes, so once the client holds all replies the
  // recorded batch sizes sum to the frame count (docs/OBSERVABILITY.md §2).
  const telemetry::RegistrySnapshot snap = registry.Snapshot();
  const telemetry::HistogramSnapshot* poll_batch = nullptr;
  for (const auto& [name, histogram] : snap.histograms) {
    if (name == "engine.poll_batch") poll_batch = &histogram;
  }
  ASSERT_NE(poll_batch, nullptr);
  EXPECT_GE(poll_batch->count, 1u);
  EXPECT_EQ(poll_batch->sum, engine.metrics().frames);

  // engine.loop_idle_ns: the WaitReady headroom counter exists (its value
  // is wall-clock park time, so only presence is asserted here).
  bool found_idle = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "engine.loop_idle_ns") found_idle = true;
  }
  EXPECT_TRUE(found_idle);
}

TEST_F(EventEngineTest, MalformedFrameGetsServiceIdenticalErrorReply) {
  service::ServiceEngine service(server_.get());
  service::ServiceEngine reference(server_.get());
  InProcessEventTransport transport;
  EventEngine engine(&service, &transport, EventEngineOptions{});

  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  EventEngine::Port port = engine.NewPort();
  const std::vector<uint8_t> via_event = port.HandleFrame(garbage);
  const std::vector<uint8_t> via_threadper = reference.HandleFrame(garbage);
  EXPECT_EQ(via_event, via_threadper);

  auto decoded = net::DecodeResponse(via_event);
  ASSERT_TRUE(decoded.ok());
  const auto* error = std::get_if<net::ErrorReply>(&*decoded);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(engine.metrics().decode_errors, 1u);
}

TEST_F(EventEngineTest, ConcurrentPortsAllCompleteAndMatchDirectPath) {
  service::ServiceEngine service(server_.get());
  InProcessEventTransport transport;
  EventEngineOptions options;
  options.worker_threads = 4;
  EventEngine engine(&service, &transport, options);

  core::QueryParams params;
  params.k = 2;
  params.anchor_distance = 250.0;
  constexpr size_t kClients = 16;
  std::vector<eval::QueryDigest> via_event(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(eval::ClientSeed(7, c));
      const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      const geom::Point anchor =
          core::GenerateAnchor(q, params.anchor_distance,
                               server_->domain(), &rng);
      EventEngine::Port port = engine.NewPort();
      auto outcome = service::RemoteQuery(&port, q, anchor, params);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      via_event[c] = eval::DigestOf(*outcome);
    });
  }
  for (std::thread& t : threads) t.join();

  // Same queries through the thread-per-pull path, sequentially.
  service::ServiceEngine reference(server_.get());
  for (size_t c = 0; c < kClients; ++c) {
    Rng rng(eval::ClientSeed(7, c));
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const geom::Point anchor = core::GenerateAnchor(
        q, params.anchor_distance, server_->domain(), &rng);
    auto outcome = service::RemoteQuery(&reference, q, anchor, params);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(via_event[c], eval::DigestOf(*outcome)) << "client " << c;
  }
}

TEST_F(EventEngineTest, RunQueueOverflowShedsWithResourceExhausted) {
  service::ServiceEngine service(server_.get());
  InProcessEventTransport transport;
  EventEngineOptions options;
  options.worker_threads = 1;
  options.max_run_queue = 1;
  EventEngine engine(&service, &transport, options);

  core::QueryParams params;
  params.k = 1;
  params.anchor_distance = 200.0;
  constexpr size_t kClients = 12;
  std::atomic<size_t> completed{0};
  std::atomic<size_t> shed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(eval::ClientSeed(11, c));
      const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      const geom::Point anchor = core::GenerateAnchor(
          q, params.anchor_distance, server_->domain(), &rng);
      EventEngine::Port port = engine.NewPort();
      auto outcome = service::RemoteQuery(&port, q, anchor, params);
      if (outcome.ok()) {
        completed.fetch_add(1);
      } else {
        // Legitimate failures under a full run queue: the engine's
        // backpressure signal, or — when the query itself finished but
        // every close frame kept being shed — the close loop exhausting
        // its retry budget.
        const StatusCode code = outcome.status().code();
        EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeadlineExceeded)
            << outcome.status().ToString();
        shed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load() + shed.load(), kClients);
  EXPECT_GE(completed.load(), 1u);
  const EventEngineMetrics metrics = engine.metrics();
  // Every shed client saw at least one rejected frame; a session's cleanup
  // close can be rejected too (it retries), so rejections may exceed the
  // shed-client count.
  EXPECT_GE(metrics.rejected, shed.load());
  EXPECT_EQ(metrics.replies, metrics.frames);
}

}  // namespace
}  // namespace spacetwist::engine
