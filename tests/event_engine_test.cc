#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
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
#include "telemetry/clock.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

namespace spacetwist::engine {
namespace {

uint64_t Count(telemetry::MetricRegistry& registry, std::string_view name) {
  return registry.GetCounter(name)->value();
}

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

TEST(InProcessEventTransportTest, SubmitPastTheBoundIsRefusedAndCounted) {
  InProcessEventTransport transport;
  telemetry::VirtualClock clock(42);
  telemetry::Counter rejected;
  transport.SetAdmission(/*max_ready=*/2, &clock, &rejected);
  const uint64_t conn = transport.Connect();
  ASSERT_TRUE(transport.Submit(conn, {1}).ok());
  ASSERT_TRUE(transport.Submit(conn, {2}).ok());

  // Nobody polls: the third arrival finds the ready queue full.
  const Status refused = transport.Submit(conn, {3});
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.value(), 1u);

  // The accepted frames are intact and stamped on the admission clock.
  std::vector<FrameEvent> events;
  EXPECT_EQ(transport.PollReady(16, &events), 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].frame, (std::vector<uint8_t>{2}));
  EXPECT_EQ(events[0].submit_ns, 42u);
  // Polling made room again.
  EXPECT_TRUE(transport.Submit(conn, {4}).ok());
  EXPECT_EQ(rejected.value(), 1u);
}

TEST(InProcessEventTransportTest, DisconnectDropsTheConnectionAndItsReplies) {
  InProcessEventTransport transport;
  const uint64_t gone = transport.Connect();
  const uint64_t kept = transport.Connect();
  transport.SendReply(gone, {1});  // queued, never read
  transport.Disconnect(gone);

  // A reply that arrives after the hang-up is dropped, like a write to a
  // closed fd, and the connection no longer exists for its client.
  transport.SendReply(gone, {2});
  auto reply = transport.AwaitReply(gone);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reply.status().message(), "unknown connection");

  // Other connections are untouched.
  transport.SendReply(kept, {3});
  auto kept_reply = transport.AwaitReply(kept);
  ASSERT_TRUE(kept_reply.ok());
  EXPECT_EQ(*kept_reply, (std::vector<uint8_t>{3}));
}

/// One-shot gate: Wait() blocks until Open().
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// InnBackend whose OpenInnSource opens `entered`, then blocks on `latch`
/// before opening the real stream.
class LatchedBackend : public server::InnBackend {
 public:
  LatchedBackend(server::InnBackend* inner, Gate* entered, Gate* latch)
      : inner_(inner), entered_(entered), latch_(latch) {}

  std::unique_ptr<server::InnSource> OpenInnSource(
      const geom::Point& anchor, double epsilon, size_t k,
      const server::GranularOptions& options) override {
    entered_->Open();
    latch_->Wait();
    return inner_->OpenInnSource(anchor, epsilon, k, options);
  }

 private:
  server::InnBackend* inner_;
  Gate* entered_;
  Gate* latch_;
};

/// FrameHandler that holds every frame after the first at `gate`.
class HoldAfterFirstFrame : public net::FrameHandler {
 public:
  HoldAfterFirstFrame(net::FrameHandler* inner, Gate* gate)
      : inner_(inner), gate_(gate) {}

  std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) override {
    if (frames_++ > 0) gate_->Wait();
    return inner_->HandleFrame(request_frame);
  }

 private:
  net::FrameHandler* inner_;
  Gate* gate_;
  size_t frames_ = 0;
};

/// Records which thread polled each connection's frame in flight, and
/// counts replies sent from a different thread than the poll.
class ThreadRecordingTransport : public InProcessEventTransport {
 public:
  size_t PollReady(size_t max_events, std::vector<FrameEvent>* out) override {
    const size_t before = out->size();
    const size_t moved = InProcessEventTransport::PollReady(max_events, out);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = before; i < out->size(); ++i) {
      poller_[(*out)[i].conn_id] = std::this_thread::get_id();
    }
    return moved;
  }

  void SendReply(uint64_t conn_id, std::vector<uint8_t> frame) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++replies_;
      if (poller_[conn_id] != std::this_thread::get_id()) ++crossed_;
    }
    InProcessEventTransport::SendReply(conn_id, std::move(frame));
  }

  std::pair<size_t, size_t> replies_and_crossed() {
    std::lock_guard<std::mutex> lock(mu_);
    return {replies_, crossed_};
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, std::thread::id> poller_;
  size_t replies_ = 0;
  size_t crossed_ = 0;
};

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

  const uint64_t frames = Count(registry, "engine.frames");
  EXPECT_GE(frames, 2u);  // open (with packet 0) + pulls + close
  EXPECT_EQ(Count(registry, "engine.dispatched"), frames);
  EXPECT_EQ(Count(registry, "engine.replies"), frames);
  EXPECT_EQ(Count(registry, "engine.decode_errors"), 0u);
  EXPECT_EQ(Count(registry, "engine.rejected"), 0u);
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
  EXPECT_EQ(poll_batch->sum, Count(registry, "engine.frames"));

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
  telemetry::MetricRegistry registry;
  EventEngineOptions options;
  options.registry = &registry;
  EventEngine engine(&service, &transport, options);

  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  EventEngine::Port port = engine.NewPort();
  const std::vector<uint8_t> via_event = port.HandleFrame(garbage);
  const std::vector<uint8_t> via_threadper = reference.HandleFrame(garbage);
  EXPECT_EQ(via_event, via_threadper);

  auto decoded = net::DecodeResponse(via_event);
  ASSERT_TRUE(decoded.ok());
  const auto* error = std::get_if<net::ErrorReply>(&*decoded);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(Count(registry, "engine.decode_errors"), 1u);
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
  telemetry::MetricRegistry registry;
  EventEngineOptions options;
  options.registry = &registry;
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
  // Every shed client saw at least one rejected frame; a session's cleanup
  // close can be rejected too (it retries), so rejections may exceed the
  // shed-client count.
  EXPECT_GE(Count(registry, "engine.rejected"), shed.load());
  EXPECT_EQ(Count(registry, "engine.replies"),
            Count(registry, "engine.frames"));
}

TEST_F(EventEngineTest, FramePolledAndAnsweredOnOneWorker) {
  service::ServiceEngine service(server_.get());
  ThreadRecordingTransport transport;
  telemetry::MetricRegistry registry;
  EventEngineOptions options;
  options.registry = &registry;
  options.worker_threads = 2;
  EventEngine engine(&service, &transport, options);

  EventEngine::Port port = engine.NewPort();
  core::QueryParams params;
  params.k = 8;
  params.anchor_distance = 500.0;
  auto outcome =
      service::RemoteQuery(&port, {5000, 5000}, {5300, 5200}, params);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Every frame is decoded, dispatched and answered by the worker that
  // polled it: no hand-off inside the engine.
  const auto [replies, crossed] = transport.replies_and_crossed();
  EXPECT_GE(replies, 3u);  // open + pulls + close
  EXPECT_EQ(replies, Count(registry, "engine.replies"));
  EXPECT_EQ(crossed, 0u);
}

TEST_F(EventEngineTest, ArrivalPastTheBoundIsShedAtOnce) {
  Gate entered;
  Gate latch;
  Gate b_answered;
  LatchedBackend backend(server_.get(), &entered, &latch);
  service::ServiceEngine service(&backend);
  InProcessEventTransport transport;
  telemetry::MetricRegistry registry;
  EventEngineOptions options;
  options.registry = &registry;
  options.worker_threads = 1;
  options.max_run_queue = 1;
  EventEngine engine(&service, &transport, options);

  core::QueryParams params;
  params.k = 4;
  params.anchor_distance = 300.0;
  const geom::Point q{5000, 5000};
  const geom::Point anchor{5200, 5100};

  // Client A holds the only worker inside OpenInnSource. Its later frames
  // wait until B is answered, so they never meet a full queue.
  eval::QueryDigest a_digest;
  std::thread client_a([&] {
    EventEngine::Port port = engine.NewPort();
    HoldAfterFirstFrame handler(&port, &b_answered);
    auto outcome = service::RemoteQuery(&handler, q, anchor, params);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    a_digest = eval::DigestOf(*outcome);
  });
  entered.Wait();

  // B fills the one ready slot; Submit does not block.
  net::OpenRequest open;
  open.anchor = anchor;
  open.k = 4;
  open.nonce = 7;
  const std::vector<uint8_t> open_frame = net::EncodeRequest(open);
  const uint64_t conn_b = transport.Connect();
  ASSERT_TRUE(transport.Submit(conn_b, open_frame).ok());

  // C is shed with the engine's backpressure reply while the worker is
  // still held: the answer does not wait for a worker.
  EventEngine::Port port_c = engine.NewPort();
  auto c_reply = net::DecodeResponse(port_c.HandleFrame(open_frame));
  ASSERT_TRUE(c_reply.ok());
  const auto* error = std::get_if<net::ErrorReply>(&*c_reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(error->session_id, 0u);
  EXPECT_EQ(Count(registry, "engine.rejected"), 1u);

  latch.Open();
  auto b_reply = transport.AwaitReply(conn_b);
  ASSERT_TRUE(b_reply.ok());
  auto b_response = net::DecodeResponse(*b_reply);
  ASSERT_TRUE(b_response.ok());
  EXPECT_NE(std::get_if<net::OpenOk>(&*b_response), nullptr);
  b_answered.Open();
  client_a.join();

  service::ServiceEngine reference(server_.get());
  auto expected = service::RemoteQuery(&reference, q, anchor, params);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(a_digest, eval::DigestOf(*expected));
  EXPECT_EQ(Count(registry, "engine.rejected"), 1u);
}

}  // namespace
}  // namespace spacetwist::engine
