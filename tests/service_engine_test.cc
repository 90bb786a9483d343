#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/anchor.h"
#include "core/spacetwist_client.h"
#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "net/wire.h"
#include "server/inn_backend.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/thread_pool.h"
#include "service/wire_client.h"
#include "telemetry/clock.h"

namespace spacetwist::service {
namespace {

/// Runs body(t) for t in [0, n) on n threads released together.
template <typename Body>
void RunTogether(size_t n, const Body& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&go, &body, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
}

net::Response Decode(const std::vector<uint8_t>& frame) {
  Result<net::Response> response = net::DecodeResponse(frame);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? response.MoveValueOrDie()
                       : net::Response(net::ErrorReply{});
}

bool HasSpan(const std::vector<telemetry::SpanRecord>& spans,
             std::string_view name) {
  for (const telemetry::SpanRecord& span : spans) {
    if (span.name == name) return true;
  }
  return false;
}

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
  ServiceEngine typed(server_.get());
  auto typed_id = typed.Open({5000, 5000}, 0.0, 1);
  ASSERT_TRUE(typed_id.ok());

  net::OpenRequest open;
  open.anchor = {5000, 5000};
  open.epsilon = 0.0;
  open.k = 1;
  auto open_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(open)));
  ASSERT_TRUE(open_reply.ok());
  auto* opened = std::get_if<net::OpenOk>(&*open_reply);
  ASSERT_NE(opened, nullptr);
  // The OpenOk carries packet 0: the typed API's first pull.
  auto typed_first = typed.Pull(*typed_id);
  ASSERT_TRUE(typed_first.ok());
  EXPECT_EQ(opened->packet.size(), 67u);
  EXPECT_EQ(opened->packet.points, typed_first->points);

  // So the wire's first pull asks for seq 1.
  auto pull_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(
          net::PullRequest{opened->session_id, /*seq=*/1})));
  ASSERT_TRUE(pull_reply.ok());
  auto* packet = std::get_if<net::PacketReply>(&*pull_reply);
  ASSERT_NE(packet, nullptr);
  auto typed_second = typed.Pull(*typed_id);
  ASSERT_TRUE(typed_second.ok());
  EXPECT_EQ(packet->seq, 1u);
  EXPECT_EQ(packet->packet.points, typed_second->points);

  auto close_reply = net::DecodeResponse(
      engine.HandleFrame(net::EncodeRequest(
          net::CloseRequest{opened->session_id})));
  ASSERT_TRUE(close_reply.ok());
  EXPECT_NE(std::get_if<net::CloseOk>(&*close_reply), nullptr);
  EXPECT_EQ(engine.open_sessions(), 0u);

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.open_requests, 1u);
  EXPECT_EQ(metrics.pull_requests, 1u);  // the Open's packet 0 is no pull
  EXPECT_EQ(metrics.pulls_replayed, 0u);
  EXPECT_EQ(metrics.close_requests, 1u);
  EXPECT_EQ(metrics.sessions_opened, 1u);
}

// The repeat rule (docs/SERVICE.md §2): a repeat of a live session's Open
// gets that session's OpenOk again and claims no slot; once the session is
// past packet 0 it is a stale duplicate; any other request, or the same
// one after the session closed, opens a new session.
TEST_F(ServiceEngineTest, RepeatedOpenGetsTheSessionItOpened) {
  ServiceOptions options;
  options.max_sessions = 1;
  ServiceEngine engine(server_.get(), options);

  net::OpenRequest open;
  open.anchor = {5000, 5000};
  open.k = 1;
  open.nonce = 77;
  const std::vector<uint8_t> frame = net::EncodeRequest(open);
  const std::vector<uint8_t> first = engine.HandleFrame(frame);
  const net::Response first_response = Decode(first);
  const auto* opened = std::get_if<net::OpenOk>(&first_response);
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->nonce, 77u);
  EXPECT_EQ(opened->packet.size(), 67u);

  // A retry after a lost reply: the same bytes, and no slot needed.
  EXPECT_EQ(engine.HandleFrame(frame), first);
  EXPECT_EQ(engine.open_sessions(), 1u);

  // Any other field is another Open, which needs the one slot.
  net::OpenRequest other = open;
  other.nonce = 78;
  net::Response response =
      Decode(engine.HandleFrame(net::EncodeRequest(other)));
  const auto* error = std::get_if<net::ErrorReply>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_TRUE(net::ToStatus(*error).IsResourceExhausted());
  EXPECT_EQ(error->session_id, 0u);

  // Past packet 0 a repeat is a stale duplicate: an error naming the
  // session, which no Open adopts.
  response = Decode(engine.HandleFrame(
      net::EncodeRequest(net::PullRequest{opened->session_id, 1})));
  ASSERT_NE(std::get_if<net::PacketReply>(&response), nullptr);
  response = Decode(engine.HandleFrame(frame));
  error = std::get_if<net::ErrorReply>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kOutOfRange);
  EXPECT_EQ(error->session_id, opened->session_id);

  // A closed session's Open is not live any more: it opens afresh.
  ASSERT_TRUE(engine.Close(opened->session_id).ok());
  response = Decode(engine.HandleFrame(frame));
  const auto* reopened = std::get_if<net::OpenOk>(&response);
  ASSERT_NE(reopened, nullptr);
  EXPECT_NE(reopened->session_id, opened->session_id);
  EXPECT_EQ(reopened->packet.points, opened->packet.points);

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.open_requests, 5u);
  EXPECT_EQ(metrics.sessions_opened, 2u);
  EXPECT_EQ(metrics.sessions_rejected, 1u);
  EXPECT_EQ(metrics.pull_requests, 1u);
}

// A sampled Open ships its dispatch, open and first-scan spans on the
// OpenOk; its repeat ships a server.replay event instead of a scan.
TEST_F(ServiceEngineTest, SampledOpenShipsItsSpansOnTheOpenOk) {
  ServiceEngine engine(server_.get());
  net::OpenRequest open;
  open.anchor = {2500, 7500};
  open.k = 2;
  open.nonce = 9;
  open.trace_id = 0xABCDEF;
  open.sampled = true;
  const std::vector<uint8_t> frame = net::EncodeRequest(open);

  const net::Response first = Decode(engine.HandleFrame(frame));
  const auto* opened = std::get_if<net::OpenOk>(&first);
  ASSERT_NE(opened, nullptr);
  EXPECT_TRUE(HasSpan(opened->server_spans, "server.dispatch"));
  EXPECT_TRUE(HasSpan(opened->server_spans, "server.open"));
  EXPECT_TRUE(HasSpan(opened->server_spans, "server.granular.scan"));
  EXPECT_FALSE(HasSpan(opened->server_spans, "server.replay"));

  const net::Response again = Decode(engine.HandleFrame(frame));
  const auto* replayed = std::get_if<net::OpenOk>(&again);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->session_id, opened->session_id);
  EXPECT_EQ(replayed->packet.points, opened->packet.points);
  EXPECT_TRUE(HasSpan(replayed->server_spans, "server.replay"));
  EXPECT_FALSE(HasSpan(replayed->server_spans, "server.granular.scan"));
  EXPECT_EQ(engine.metrics().sessions_opened, 1u);
}

/// A backend whose streams end their first pull with `status` at once
/// (kExhausted: a stream dry at open).
class FirstPullBackend : public server::InnBackend {
 public:
  explicit FirstPullBackend(Status status) : status_(std::move(status)) {}

  std::unique_ptr<server::InnSource> OpenInnSource(
      const geom::Point&, double, size_t,
      const server::GranularOptions&) override {
    return std::make_unique<Source>(status_);
  }

 private:
  class Source : public server::InnSource {
   public:
    explicit Source(Status status) : status_(std::move(status)) {}
    Result<rtree::DataPoint> Next() override { return status_; }
    void set_trace(telemetry::Trace*) override {}
    uint64_t heap_pops() const override { return 0; }
    uint64_t node_reads() const override { return 0; }

   private:
    Status status_;
  };

  Status status_;
};

TEST(ServiceEngineFirstPullTest, DryStreamOpensWithAnEmptyPacket) {
  FirstPullBackend dry(Status::Exhausted("no points"));
  ServiceEngine engine(&dry);
  net::OpenRequest open;
  open.nonce = 5;
  const std::vector<uint8_t> frame = net::EncodeRequest(open);
  const std::vector<uint8_t> first = engine.HandleFrame(frame);
  const net::Response response = Decode(first);
  const auto* opened = std::get_if<net::OpenOk>(&response);
  ASSERT_NE(opened, nullptr);
  EXPECT_TRUE(opened->packet.empty());
  EXPECT_EQ(engine.open_sessions(), 1u);
  // The empty packet 0 is replayed like any other.
  EXPECT_EQ(engine.HandleFrame(frame), first);

  // The client reads the end of the stream off the OpenOk.
  auto session = WireSession::Open(&engine, {1, 1}, 0.0, 1);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->NextPacket().status().IsExhausted());
  EXPECT_TRUE((*session)->Close().ok());
  EXPECT_EQ(engine.metrics().pull_requests, 0u);
}

TEST(ServiceEngineFirstPullTest, FailedFirstPullKeepsNoSession) {
  FirstPullBackend failing(Status::IoError("page read failed"));
  ServiceOptions options;
  options.max_sessions = 1;
  ServiceEngine engine(&failing, options);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const net::Response response =
        Decode(engine.HandleFrame(net::EncodeRequest(net::OpenRequest{})));
    const auto* error = std::get_if<net::ErrorReply>(&response);
    ASSERT_NE(error, nullptr);
    // The error itself, not kResourceExhausted: the slot was released.
    EXPECT_EQ(error->code, StatusCode::kIoError);
    EXPECT_EQ(error->session_id, 0u);
  }
  EXPECT_EQ(engine.open_sessions(), 0u);
  EXPECT_EQ(engine.metrics().sessions_opened, 0u);
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
        return net::EncodeResponse(net::OpenOk{1, 0, {}, {}});
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
// Every client draws the default retry seed, hence the same Open nonces:
// only the rest of the request tells their Opens apart, and every answer
// must still be the one the library client computes for that query.
TEST_F(ServiceEngineTest, ConcurrentWireTrafficIsRaceFree) {
  ServiceOptions options;
  options.num_shards = 4;
  options.max_sessions = 64;
  ServiceEngine engine(server_.get(), options);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  core::QueryParams params;
  // Thread t's queries, drawn the same way by the workers and the
  // sequential reference below.
  const auto draw = [&params](Rng* rng) {
    const geom::Point q{rng->Uniform(500, 9500), rng->Uniform(500, 9500)};
    const geom::Point anchor = core::GenerateAnchor(
        q, params.anchor_distance, {{0, 0}, {10000, 10000}}, rng);
    return std::make_pair(q, anchor);
  };
  std::atomic<int> failures{0};
  std::vector<std::vector<eval::QueryDigest>> digests(
      kThreads, std::vector<eval::QueryDigest>(kQueriesPerThread));
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const auto [q, anchor] = draw(&rng);
          auto outcome = RemoteQuery(&engine, q, anchor, params);
          if (outcome.ok()) {
            digests[t][i] = eval::DigestOf(*outcome);
          } else {
            failures.fetch_add(1);
          }
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
  core::SpaceTwistClient direct(server_.get());
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    for (int i = 0; i < kQueriesPerThread; ++i) {
      const auto [q, anchor] = draw(&rng);
      (void)rng.Next();  // the stray pull's id
      auto reference = direct.Query(q, anchor, params);
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(digests[t][i], eval::DigestOf(*reference))
          << "thread " << t << " query " << i;
    }
  }
  EXPECT_EQ(engine.open_sessions(), 0u);
  const EngineMetrics metrics = engine.metrics();
  constexpr uint64_t kTotalQueries = uint64_t{kThreads} * kQueriesPerThread;
  EXPECT_EQ(metrics.sessions_opened, kTotalQueries);
  EXPECT_EQ(metrics.sessions_closed, kTotalQueries);
  EXPECT_GT(metrics.transport.downlink_packets, 0u);
  EXPECT_EQ(metrics.decode_errors, kTotalQueries);
}

// Byte-identical Opens racing on one stripe (TSan target): one session,
// and every racer gets the same OpenOk bytes, whether it found the session
// in the repeat index or lost the publish race and dropped its own.
TEST_F(ServiceEngineTest, IdenticalOpensRaceToOneSession) {
  ServiceEngine engine(server_.get());
  net::OpenRequest open;
  open.anchor = {4321, 6789};
  open.k = 4;
  open.nonce = 0x5EED;
  const std::vector<uint8_t> frame = net::EncodeRequest(open);
  constexpr size_t kThreads = 8;
  std::vector<std::vector<uint8_t>> replies(kThreads);
  RunTogether(kThreads,
              [&](size_t t) { replies[t] = engine.HandleFrame(frame); });

  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(replies[t], replies[0]);
  const net::Response response = Decode(replies[0]);
  const auto* opened = std::get_if<net::OpenOk>(&response);
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->packet.size(), 67u);
  EXPECT_EQ(engine.open_sessions(), 1u);
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.open_requests, kThreads);
  EXPECT_EQ(metrics.sessions_opened, 1u);
}

// One nonce, eight anchors, concurrently (TSan target): a nonce alone names
// no Open. Each request opens its own session, whose packet 0 is its own
// anchor's.
TEST_F(ServiceEngineTest, SameNonceDifferentAnchorsOpenDistinctSessions) {
  ServiceEngine engine(server_.get());
  constexpr size_t kThreads = 8;
  std::vector<net::OpenRequest> opens(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    opens[t].anchor = {1000.0 + 1000.0 * t, 9000.0 - 1000.0 * t};
    opens[t].k = 2;
    opens[t].nonce = 0x5EED;
  }
  std::vector<std::vector<uint8_t>> replies(kThreads);
  RunTogether(kThreads, [&](size_t t) {
    replies[t] = engine.HandleFrame(net::EncodeRequest(opens[t]));
  });

  ServiceEngine reference(server_.get());
  std::set<uint64_t> ids;
  for (size_t t = 0; t < kThreads; ++t) {
    const net::Response response = Decode(replies[t]);
    const auto* opened = std::get_if<net::OpenOk>(&response);
    ASSERT_NE(opened, nullptr) << "thread " << t;
    EXPECT_EQ(opened->nonce, 0x5EEDu);
    ids.insert(opened->session_id);
    auto id = reference.Open(opens[t].anchor, 0.0, 2);
    ASSERT_TRUE(id.ok());
    auto packet0 = reference.Pull(*id);
    ASSERT_TRUE(packet0.ok());
    EXPECT_EQ(opened->packet.points, packet0->points) << "thread " << t;
  }
  EXPECT_EQ(ids.size(), kThreads);
  EXPECT_EQ(engine.open_sessions(), kThreads);
  EXPECT_EQ(engine.metrics().sessions_opened, kThreads);
}

}  // namespace
}  // namespace spacetwist::service
