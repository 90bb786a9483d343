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
#include "net/channel.h"
#include "net/packet.h"
#include "net/wire.h"
#include "server/inn_backend.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/thread_pool.h"
#include "service/wire_client.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"

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

/// One request through the engine's wire entry point, its reply decoded.
net::Response Send(ServiceEngine* engine, const net::Request& request) {
  return Decode(engine->HandleFrame(net::EncodeRequest(request)));
}

/// The status a reply carries: OK unless it is an ErrorReply.
Status StatusOf(const net::Response& response) {
  const auto* error = std::get_if<net::ErrorReply>(&response);
  return error == nullptr ? Status::OK() : net::ToStatus(*error);
}

net::OpenRequest OpenOf(const geom::Point& anchor, double epsilon, size_t k) {
  net::OpenRequest open;
  open.anchor = anchor;
  open.epsilon = epsilon;
  open.k = k;
  return open;
}

/// Opens a session over the wire; its id, or 0 when the Open failed.
uint64_t OpenSession(ServiceEngine* engine, const geom::Point& anchor,
                     double epsilon, size_t k) {
  const net::Response response = Send(engine, OpenOf(anchor, epsilon, k));
  const auto* opened = std::get_if<net::OpenOk>(&response);
  EXPECT_NE(opened, nullptr) << StatusOf(response).ToString();
  return opened != nullptr ? opened->session_id : 0;
}

/// The first `n` packets of the library stream for (anchor, epsilon, k):
/// what the engine must serve, packet 0 on the OpenOk.
std::vector<net::Packet> LibraryPackets(server::InnBackend* backend,
                                        const geom::Point& anchor,
                                        double epsilon, size_t k, size_t n) {
  std::unique_ptr<server::InnSource> stream =
      backend->OpenInnSource(anchor, epsilon, k, server::GranularOptions());
  net::PacketChannel channel(stream.get(), net::PacketConfig());
  std::vector<net::Packet> packets;
  for (size_t i = 0; i < n; ++i) {
    Result<net::Packet> packet = channel.NextPacket();
    EXPECT_TRUE(packet.ok()) << packet.status().ToString();
    if (!packet.ok()) break;
    packets.push_back(packet.MoveValueOrDie());
  }
  return packets;
}

uint64_t Count(telemetry::MetricRegistry& registry, std::string_view name) {
  return registry.GetCounter(name)->value();
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

  /// Engine options counting into this test's own registry.
  ServiceOptions Options() {
    ServiceOptions options;
    options.registry = &registry_;
    return options;
  }

  uint64_t Count(std::string_view name) {
    return service::Count(registry_, name);
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
  telemetry::MetricRegistry registry_;
};

TEST_F(ServiceEngineTest, OpenPullCloseOverTheWire) {
  ServiceEngine engine(server_.get(), Options());
  const net::Response open = Send(&engine, OpenOf({5000, 5000}, 0.0, 1));
  const auto* opened = std::get_if<net::OpenOk>(&open);
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->packet.size(), 67u);
  EXPECT_EQ(engine.open_sessions(), 1u);

  double prev = -1;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const net::Response response =
        Send(&engine, net::PullRequest{opened->session_id, seq});
    const auto* reply = std::get_if<net::PacketReply>(&response);
    ASSERT_NE(reply, nullptr) << StatusOf(response).ToString();
    EXPECT_EQ(reply->seq, seq);
    for (const rtree::DataPoint& p : reply->packet.points) {
      const double d = geom::Distance({5000, 5000}, p.point);
      EXPECT_GE(d, prev - 1e-9);
      prev = d;
    }
  }
  // A live session's transport is counted when it retires, not before.
  EXPECT_EQ(Count("net.channel.downlink_packets"), 0u);

  const net::Response close =
      Send(&engine, net::CloseRequest{opened->session_id});
  EXPECT_NE(std::get_if<net::CloseOk>(&close), nullptr);
  EXPECT_EQ(engine.open_sessions(), 0u);
  EXPECT_EQ(Count("service.engine.sessions_opened"), 1u);
  EXPECT_EQ(Count("service.engine.sessions_closed"), 1u);
  EXPECT_EQ(Count("net.channel.downlink_packets"), 4u);
  EXPECT_EQ(Count("net.channel.downlink_points"), 4u * 67u);
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(), 0);
}

TEST_F(ServiceEngineTest, UnknownAndClosedSessionsAreNotFound) {
  ServiceEngine engine(server_.get());
  EXPECT_TRUE(StatusOf(Send(&engine, net::PullRequest{12345})).IsNotFound());
  EXPECT_TRUE(StatusOf(Send(&engine, net::CloseRequest{12345})).IsNotFound());
  const uint64_t id = OpenSession(&engine, {1, 1}, 0.0, 1);
  ASSERT_TRUE(StatusOf(Send(&engine, net::CloseRequest{id})).ok());
  EXPECT_TRUE(StatusOf(Send(&engine, net::CloseRequest{id})).IsNotFound());
  EXPECT_TRUE(StatusOf(Send(&engine, net::PullRequest{id, 1})).IsNotFound());
}

TEST_F(ServiceEngineTest, RejectsBadParameters) {
  ServiceEngine engine(server_.get());
  EXPECT_TRUE(
      StatusOf(Send(&engine, OpenOf({1, 1}, 0.0, 0))).IsInvalidArgument());
  EXPECT_TRUE(
      StatusOf(Send(&engine, OpenOf({1, 1}, -1.0, 1))).IsInvalidArgument());
}

TEST_F(ServiceEngineTest, SessionCapGivesResourceExhausted) {
  ServiceOptions options = Options();
  options.max_sessions = 2;
  ServiceEngine engine(server_.get(), options);
  const uint64_t a = OpenSession(&engine, {1, 1}, 0, 1);
  OpenSession(&engine, {2, 2}, 0, 1);
  EXPECT_TRUE(
      StatusOf(Send(&engine, OpenOf({3, 3}, 0, 1))).IsResourceExhausted());
  EXPECT_EQ(Count("service.engine.sessions_rejected"), 1u);
  ASSERT_TRUE(StatusOf(Send(&engine, net::CloseRequest{a})).ok());
  EXPECT_TRUE(StatusOf(Send(&engine, OpenOf({3, 3}, 0, 1))).ok());
}

TEST_F(ServiceEngineTest, IdleSessionsAreEvictedByTtl) {
  telemetry::VirtualClock fake_now;
  ServiceOptions options = Options();
  options.idle_ttl_ns = 1000;
  options.clock = &fake_now;
  ServiceEngine engine(server_.get(), options);

  const uint64_t stale = OpenSession(&engine, {1000, 1000}, 0.0, 1);
  fake_now.Set(900);
  const uint64_t fresh = OpenSession(&engine, {9000, 9000}, 0.0, 1);

  fake_now.Set(1500);  // stale idle 1500ns > ttl; fresh idle 600ns
  EXPECT_EQ(engine.EvictIdle(), 1u);
  EXPECT_EQ(engine.open_sessions(), 1u);
  EXPECT_TRUE(
      StatusOf(Send(&engine, net::PullRequest{stale, 1})).IsNotFound());
  EXPECT_TRUE(StatusOf(Send(&engine, net::PullRequest{fresh, 1})).ok());

  EXPECT_EQ(Count("service.engine.sessions_evicted"), 1u);
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(), 1);
  // The abandoned session's packet 0 still landed in the transport counts.
  EXPECT_EQ(Count("net.channel.downlink_packets"), 1u);
}

TEST_F(ServiceEngineTest, OpenPathSweepsExpiredSessionsToMakeRoom) {
  telemetry::VirtualClock fake_now;
  ServiceOptions options = Options();
  options.max_sessions = 1;
  options.idle_ttl_ns = 1000;
  options.clock = &fake_now;
  ServiceEngine engine(server_.get(), options);

  OpenSession(&engine, {1000, 1000}, 0.0, 1);  // then abandoned
  // At capacity and not yet expired: backpressure.
  EXPECT_TRUE(
      StatusOf(Send(&engine, OpenOf({2, 2}, 0, 1))).IsResourceExhausted());
  fake_now.Set(5000);
  // Now expired: Open reclaims the slot instead of rejecting.
  EXPECT_TRUE(StatusOf(Send(&engine, OpenOf({2, 2}, 0, 1))).ok());
  EXPECT_EQ(engine.open_sessions(), 1u);
  EXPECT_EQ(Count("service.engine.sessions_evicted"), 1u);
}

TEST_F(ServiceEngineTest, WireFlowMatchesLibraryStream) {
  ServiceEngine engine(server_.get(), Options());
  const std::vector<net::Packet> library =
      LibraryPackets(server_.get(), {5000, 5000}, 0.0, 1, 2);
  ASSERT_EQ(library.size(), 2u);

  const net::Response open_reply = Send(&engine, OpenOf({5000, 5000}, 0.0, 1));
  const auto* opened = std::get_if<net::OpenOk>(&open_reply);
  ASSERT_NE(opened, nullptr);
  // The OpenOk carries packet 0: the library stream's first packet.
  EXPECT_EQ(opened->packet.size(), 67u);
  EXPECT_EQ(opened->packet.points, library[0].points);

  // So the wire's first pull asks for seq 1.
  const net::Response pull_reply =
      Send(&engine, net::PullRequest{opened->session_id, /*seq=*/1});
  const auto* packet = std::get_if<net::PacketReply>(&pull_reply);
  ASSERT_NE(packet, nullptr);
  EXPECT_EQ(packet->seq, 1u);
  EXPECT_EQ(packet->packet.points, library[1].points);

  const net::Response close_reply =
      Send(&engine, net::CloseRequest{opened->session_id});
  EXPECT_NE(std::get_if<net::CloseOk>(&close_reply), nullptr);
  EXPECT_EQ(engine.open_sessions(), 0u);

  EXPECT_EQ(Count("service.engine.open_requests"), 1u);
  // The Open's packet 0 is no pull.
  EXPECT_EQ(Count("service.engine.pull_requests"), 1u);
  EXPECT_EQ(Count("service.engine.pulls_replayed"), 0u);
  EXPECT_EQ(Count("service.engine.close_requests"), 1u);
  EXPECT_EQ(Count("service.engine.sessions_opened"), 1u);
}

// The repeat rule (docs/SERVICE.md §2): a repeat of a live session's Open
// gets that session's OpenOk again and claims no slot; once the session is
// past packet 0 it is a stale duplicate; any other request, or the same
// one after the session closed, opens a new session.
TEST_F(ServiceEngineTest, RepeatedOpenGetsTheSessionItOpened) {
  ServiceOptions options = Options();
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
  ASSERT_TRUE(
      StatusOf(Send(&engine, net::CloseRequest{opened->session_id})).ok());
  response = Decode(engine.HandleFrame(frame));
  const auto* reopened = std::get_if<net::OpenOk>(&response);
  ASSERT_NE(reopened, nullptr);
  EXPECT_NE(reopened->session_id, opened->session_id);
  EXPECT_EQ(reopened->packet.points, opened->packet.points);

  EXPECT_EQ(Count("service.engine.open_requests"), 5u);
  EXPECT_EQ(Count("service.engine.sessions_opened"), 2u);
  EXPECT_EQ(Count("service.engine.sessions_rejected"), 1u);
  EXPECT_EQ(Count("service.engine.pull_requests"), 1u);
}

// A sampled Open ships its dispatch, open and first-scan spans on the
// OpenOk; its repeat ships a server.replay event instead of a scan.
TEST_F(ServiceEngineTest, SampledOpenShipsItsSpansOnTheOpenOk) {
  ServiceEngine engine(server_.get(), Options());
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
  EXPECT_EQ(Count("service.engine.sessions_opened"), 1u);
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
  telemetry::MetricRegistry registry;
  ServiceOptions options;
  options.registry = &registry;
  ServiceEngine engine(&dry, options);
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
  EXPECT_EQ(Count(registry, "service.engine.pull_requests"), 0u);
}

TEST(ServiceEngineFirstPullTest, FailedFirstPullKeepsNoSession) {
  FirstPullBackend failing(Status::IoError("page read failed"));
  telemetry::MetricRegistry registry;
  ServiceOptions options;
  options.registry = &registry;
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
  EXPECT_EQ(Count(registry, "service.engine.sessions_opened"), 0u);
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
  OpenSession(&engine, {1, 1}, 0, 1);
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
/// float32's range, or whose epsilon is positive but below 1e-9 m, is
/// kInvalidArgument on the wire. Unchecked, NaN aborts the serving kernel,
/// an infinite epsilon never returns from the first pull, and epsilon =
/// 1e-20 overflows the int64 cell index and drops points; the engine keeps
/// serving afterwards.
TEST_F(ServiceEngineTest, OutOfRangeOpenParametersAreInvalidArgument) {
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
      {"epsilon 1e-20", {5000, 5000}, 1e-20},
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

/// Both client entry points run the engine's parameter check before any
/// search: a tiny epsilon used to fold the in-process client's cells and
/// answer hundreds of meters off, where the engine refused it.
TEST_F(ServiceEngineTest, ClientEntryPointsRefuseWhatTheEngineRefuses) {
  ServiceEngine engine(server_.get(), Options());
  net::DirectTransport transport(&engine);
  core::SpaceTwistClient client(server_.get());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const geom::Point q{4250, 6800};
  struct Bad {
    const char* what;
    geom::Point anchor;
    double epsilon;
  };
  const std::vector<Bad> bad = {
      {"epsilon 1e-20", {4300, 6750}, 1e-20},
      {"epsilon NaN", {4300, 6750}, nan},
      {"epsilon 5e38", {4300, 6750}, 5e38},
      {"anchor.y NaN", {4300, nan}, 200.0},
  };
  for (const Bad& b : bad) {
    core::QueryParams params;
    params.k = 4;
    params.epsilon = b.epsilon;
    EXPECT_TRUE(client.Query(q, b.anchor, params).status().IsInvalidArgument())
        << b.what;
    EXPECT_TRUE(RemoteQuery(&engine, q, b.anchor, params)
                    .status()
                    .IsInvalidArgument())
        << b.what;
    EXPECT_TRUE(RemoteQuery(&transport, q, b.anchor, params, RetryConfig())
                    .status()
                    .IsInvalidArgument())
        << b.what;
  }
  EXPECT_EQ(Count("service.engine.sessions_opened"), 0u);

  core::QueryParams params;
  params.k = 4;
  params.epsilon = 1e-9;
  auto local = client.Query(q, {4300, 6750}, params);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto remote = RemoteQuery(&engine, q, {4300, 6750}, params);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(local->neighbors.size(), 4u);
  EXPECT_EQ(remote->retrieved, local->retrieved);
}

TEST_F(ServiceEngineTest, MalformedFramesGetErrorRepliesNotCrashes) {
  ServiceEngine engine(server_.get(), Options());
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
  EXPECT_EQ(Count("service.engine.decode_errors"), bad.size());
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
  auto leaky = std::make_unique<ServiceEngine>(server_.get(), Options());
  const uint64_t id = OpenSession(leaky.get(), {5000, 5000}, 0.0, 1);
  ASSERT_TRUE(StatusOf(Send(leaky.get(), net::PullRequest{id, 1})).ok());
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(), 1);
  leaky.reset();  // must not leak the session's stream/channel (ASan-visible)
  // The retired session leaves the gauge, and its packets (packet 0 from
  // the OpenOk and packet 1) land in the transport counts.
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(), 0);
  EXPECT_EQ(Count("net.channel.downlink_packets"), 2u);
}

// The TSan target: many threads hammer one engine through the wire entry
// point with full sessions, strays, and metric reads, all concurrently.
// Every client draws the default retry seed, hence the same Open nonces:
// only the rest of the request tells their Opens apart, and every answer
// must still be the one the library client computes for that query.
TEST_F(ServiceEngineTest, ConcurrentWireTrafficIsRaceFree) {
  ServiceOptions options = Options();
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
          (void)registry_.Snapshot();
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
  constexpr uint64_t kTotalQueries = uint64_t{kThreads} * kQueriesPerThread;
  EXPECT_EQ(Count("service.engine.sessions_opened"), kTotalQueries);
  EXPECT_EQ(Count("service.engine.sessions_closed"), kTotalQueries);
  EXPECT_GT(Count("net.channel.downlink_packets"), 0u);
  EXPECT_EQ(Count("service.engine.decode_errors"), kTotalQueries);
}

// Byte-identical Opens racing on one stripe (TSan target): one session,
// and every racer gets the same OpenOk bytes, whether it found the session
// in the repeat index or lost the publish race and dropped its own.
TEST_F(ServiceEngineTest, IdenticalOpensRaceToOneSession) {
  ServiceEngine engine(server_.get(), Options());
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
  EXPECT_EQ(Count("service.engine.open_requests"), kThreads);
  EXPECT_EQ(Count("service.engine.sessions_opened"), 1u);
}

// One nonce, eight anchors, concurrently (TSan target): a nonce alone names
// no Open. Each request opens its own session, whose packet 0 is its own
// anchor's.
TEST_F(ServiceEngineTest, SameNonceDifferentAnchorsOpenDistinctSessions) {
  ServiceEngine engine(server_.get(), Options());
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

  std::set<uint64_t> ids;
  for (size_t t = 0; t < kThreads; ++t) {
    const net::Response response = Decode(replies[t]);
    const auto* opened = std::get_if<net::OpenOk>(&response);
    ASSERT_NE(opened, nullptr) << "thread " << t;
    EXPECT_EQ(opened->nonce, 0x5EEDu);
    ids.insert(opened->session_id);
    const std::vector<net::Packet> library =
        LibraryPackets(server_.get(), opens[t].anchor, 0.0, 2, 1);
    ASSERT_EQ(library.size(), 1u);
    EXPECT_EQ(opened->packet.points, library[0].points) << "thread " << t;
  }
  EXPECT_EQ(ids.size(), kThreads);
  EXPECT_EQ(engine.open_sessions(), kThreads);
  EXPECT_EQ(Count("service.engine.sessions_opened"), kThreads);
}

}  // namespace
}  // namespace spacetwist::service
