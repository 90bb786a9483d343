#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/anchor.h"
#include "core/spacetwist_client.h"
#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "net/faulty_transport.h"
#include "net/wire.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/wire_client.h"
#include "telemetry/registry.h"

namespace spacetwist::service {
namespace {

/// Unit tests of the client retry/resume layer (WireSession) against a
/// scripted transport: each failure mode of the link is injected at an
/// exact, hand-picked round trip, and the session must recover with the
/// documented semantics (idempotent re-pull, nonce/session/seq staleness
/// rejection, re-open + fast-forward resume, at-least-once close, bounded
/// budget). The statistical version of the same claims lives in
/// fault_injection_test.cc.

/// A FrameTransport whose behaviour is a test-provided hook; the hook sees
/// the request frame, the 0-based round-trip index, and the wrapped
/// handler, and returns whatever the "network" should. Listens (empty
/// frames) never reach the hook or the handler: they go to the optional
/// listen hook, and by default find nothing in flight.
class ScriptedTransport : public net::FrameTransport {
 public:
  using Hook = std::function<Result<std::vector<uint8_t>>(
      const std::vector<uint8_t>& frame, size_t index,
      net::FrameHandler* inner)>;
  using ListenHook = std::function<Result<std::vector<uint8_t>>()>;

  ScriptedTransport(net::FrameHandler* inner, Hook hook,
                    ListenHook listen = nullptr)
      : inner_(inner), hook_(std::move(hook)), listen_(std::move(listen)) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) override {
    if (request_frame.empty()) {
      ++listens_;
      if (listen_ != nullptr) return listen_();
      return Status::DeadlineExceeded("no frame in flight");
    }
    return hook_(request_frame, index_++, inner_);
  }

  /// Frames sent (listens excluded).
  size_t calls() const { return index_; }
  size_t listens() const { return listens_; }

 private:
  net::FrameHandler* inner_;
  Hook hook_;
  ListenHook listen_;
  size_t index_ = 0;
  size_t listens_ = 0;
};

net::MessageType TypeOf(const std::vector<uint8_t>& frame) {
  return static_cast<net::MessageType>(frame.at(4));
}

std::vector<uint32_t> Ids(const net::Packet& packet) {
  std::vector<uint32_t> ids;
  ids.reserve(packet.points.size());
  for (const rtree::DataPoint& p : packet.points) ids.push_back(p.id);
  return ids;
}

class WireRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(5000, 321);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ =
        server::LbsServer::Build(dataset_, rtree_options).MoveValueOrDie();
    ServiceOptions options;
    options.registry = &registry_;
    engine_ = std::make_unique<ServiceEngine>(server_.get(), options);
  }

  /// A service.engine.* counter of `engine_`.
  uint64_t EngineCount(std::string_view name) {
    return registry_.GetCounter("service.engine." + std::string(name))
        ->value();
  }

  /// One request through `engine_`'s wire entry point, its reply decoded.
  net::Response Send(const net::Request& request) {
    Result<net::Response> response =
        net::DecodeResponse(engine_->HandleFrame(net::EncodeRequest(request)));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.MoveValueOrDie()
                         : net::Response(net::ErrorReply{});
  }

  /// First `n` packet id-lists of a fault-free session for `anchor`.
  std::vector<std::vector<uint32_t>> ReferencePackets(const geom::Point& anchor,
                                                      size_t n) {
    auto session = WireSession::Open(engine_.get(), anchor, 0.0, 1);
    EXPECT_TRUE(session.ok());
    std::vector<std::vector<uint32_t>> packets;
    for (size_t i = 0; i < n; ++i) {
      auto packet = (*session)->NextPacket();
      EXPECT_TRUE(packet.ok());
      packets.push_back(Ids(*packet));
    }
    EXPECT_TRUE((*session)->Close().ok());
    return packets;
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<ServiceEngine> engine_;
};

const geom::Point kAnchor{5000, 5000};

TEST_F(WireRetryTest, BudgetExhaustionSurfacesAsDeadlineExceeded) {
  ScriptedTransport transport(
      engine_.get(), [](const auto&, size_t, net::FrameHandler*) {
        return Result<std::vector<uint8_t>>(
            Status::DeadlineExceeded("frame lost"));
      });
  RetryConfig retry;
  retry.policy.max_attempts = 5;
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1, retry);
  EXPECT_TRUE(session.status().IsDeadlineExceeded());
  EXPECT_EQ(transport.calls(), 5u);  // budget fully spent, then stop
}

TEST_F(WireRetryTest, BackoffIsAccountedDeterministicallyInVirtualTime) {
  const auto flaky_open = [](const std::vector<uint8_t>& frame, size_t index,
                             net::FrameHandler* inner)
      -> Result<std::vector<uint8_t>> {
    if (index < 3) return Status::DeadlineExceeded("frame lost");
    return inner->HandleFrame(frame);
  };
  std::vector<uint64_t> slept;
  RetryConfig retry;
  retry.seed = 99;
  retry.sleep = [&slept](uint64_t ns) { slept.push_back(ns); };

  ScriptedTransport transport(engine_.get(), flaky_open);
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1, retry);
  ASSERT_TRUE(session.ok());
  const RetryStats stats = (*session)->retry_stats();
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_GT(stats.backoff_ns, 0u);
  // The sleep hook sees exactly the accounted backoffs, and they grow
  // (exponential base dominates the +/-25% jitter at these magnitudes).
  ASSERT_EQ(slept.size(), 3u);
  EXPECT_EQ(slept[0] + slept[1] + slept[2], stats.backoff_ns);
  EXPECT_LT(slept[0], slept[1]);
  EXPECT_LT(slept[1], slept[2]);

  // Same retry seed, same schedule => identical virtual backoff.
  ScriptedTransport transport2(engine_.get(), flaky_open);
  auto session2 = WireSession::Open(&transport2, kAnchor, 0.0, 1, retry);
  ASSERT_TRUE(session2.ok());
  EXPECT_EQ((*session2)->retry_stats().backoff_ns, stats.backoff_ns);
}

TEST_F(WireRetryTest, LostPullReplyIsReplayedNotSkipped) {
  const std::vector<std::vector<uint32_t>> reference =
      ReferencePackets(kAnchor, 4);

  // The reply to the first pull reaches the server but dies on the way
  // back: the server has advanced, the client has not.
  bool dropped = false;
  ScriptedTransport transport(
      engine_.get(),
      [&dropped](const std::vector<uint8_t>& frame, size_t,
                 net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (!dropped && TypeOf(frame) == net::MessageType::kPullRequest) {
          dropped = true;
          inner->HandleFrame(frame);  // server side effect happens
          return Status::DeadlineExceeded("response frame lost");
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < reference.size(); ++i) {
    auto packet = (*session)->NextPacket();
    ASSERT_TRUE(packet.ok());
    EXPECT_EQ(Ids(*packet), reference[i]) << "packet " << i;
  }
  EXPECT_TRUE((*session)->Close().ok());
  // The retried pull was served from the engine's one-packet replay cache.
  EXPECT_EQ(EngineCount("pulls_replayed"), 1u);
  EXPECT_EQ((*session)->retry_stats().retries, 1u);
}

TEST_F(WireRetryTest, DisconnectReopensAndResumesMidStream) {
  const std::vector<std::vector<uint32_t>> reference =
      ReferencePackets(kAnchor, 5);

  size_t pulls_delivered = 0;
  bool injected = false;
  ScriptedTransport transport(
      engine_.get(),
      [&](const std::vector<uint8_t>& frame, size_t,
          net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (TypeOf(frame) == net::MessageType::kPullRequest) {
          if (pulls_delivered == 2 && !injected) {
            injected = true;
            return Status::IoError("connection reset");
          }
          ++pulls_delivered;
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  const uint64_t first_session = (*session)->session_id();
  for (size_t i = 0; i < reference.size(); ++i) {
    auto packet = (*session)->NextPacket();
    ASSERT_TRUE(packet.ok()) << packet.status().ToString();
    EXPECT_EQ(Ids(*packet), reference[i]) << "packet " << i;
  }
  EXPECT_NE((*session)->session_id(), first_session);
  EXPECT_EQ((*session)->retry_stats().reopens, 1u);
  // Three server sessions: the reference run, the original, the re-open.
  EXPECT_EQ(EngineCount("sessions_opened"), 3u);
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, ServerSideEvictionReopensAndResumes) {
  const std::vector<std::vector<uint32_t>> reference =
      ReferencePackets(kAnchor, 3);

  auto session = WireSession::Open(engine_.get(), kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  auto first = (*session)->NextPacket();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(Ids(*first), reference[0]);

  // The engine evicts the session behind the client's back (idle TTL in
  // production; a direct Close here). The next pull sees kNotFound and the
  // session must re-open and fast-forward to packet 1.
  const net::Response closed =
      Send(net::CloseRequest{(*session)->session_id()});
  ASSERT_NE(std::get_if<net::CloseOk>(&closed), nullptr);
  for (size_t i = 1; i < reference.size(); ++i) {
    auto packet = (*session)->NextPacket();
    ASSERT_TRUE(packet.ok()) << packet.status().ToString();
    EXPECT_EQ(Ids(*packet), reference[i]) << "packet " << i;
  }
  EXPECT_EQ((*session)->retry_stats().reopens, 1u);
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, StaleOpenOkIsRejectedByNonce) {
  ScriptedTransport transport(
      engine_.get(),
      [](const std::vector<uint8_t>& frame, size_t index,
         net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (index == 0) {
          // A stale OpenOk from some earlier query: wrong nonce, wrong id.
          return net::EncodeResponse(net::OpenOk{999, 0xBAD, {}, {}});
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  EXPECT_NE((*session)->session_id(), 999u);
  EXPECT_EQ((*session)->retry_stats().stale_replies, 1u);
  auto packet = (*session)->NextPacket();
  EXPECT_TRUE(packet.ok());
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, StalePacketReplyIsRejectedBySessionAndSeq) {
  const std::vector<std::vector<uint32_t>> reference =
      ReferencePackets(kAnchor, 2);

  bool injected = false;
  ScriptedTransport transport(
      engine_.get(),
      [&injected](const std::vector<uint8_t>& frame, size_t,
                  net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (!injected && TypeOf(frame) == net::MessageType::kPullRequest) {
          injected = true;
          // A straggler packet of a dead session must not be consumed.
          return net::EncodeResponse(net::PacketReply{
              /*session_id=*/9999, /*seq=*/0, net::Packet{}, {}});
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < reference.size(); ++i) {
    auto packet = (*session)->NextPacket();
    ASSERT_TRUE(packet.ok());
    EXPECT_EQ(Ids(*packet), reference[i]) << "packet " << i;
  }
  EXPECT_EQ((*session)->retry_stats().stale_replies, 1u);
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, DuplicatedReplyInFlightCostsNoRetries) {
  const std::vector<std::vector<uint32_t>> reference =
      ReferencePackets(kAnchor, 6);

  // A FIFO link: the first pull's reply is duplicated, and from then on
  // every reply queues behind whatever is still in flight — exactly how
  // net::FaultyTransport delivers stragglers. Resending after the stale
  // copy would leave the link one frame behind for every later pull.
  std::deque<std::vector<uint8_t>> in_flight;
  bool duplicated = false;
  ScriptedTransport transport(
      engine_.get(),
      [&](const std::vector<uint8_t>& frame, size_t,
          net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> reply = inner->HandleFrame(frame);
        if (!duplicated && TypeOf(frame) == net::MessageType::kPullRequest) {
          duplicated = true;
          in_flight.push_back(reply);  // the copy straggles in later
        }
        if (in_flight.empty()) return reply;
        in_flight.push_back(std::move(reply));
        std::vector<uint8_t> front = std::move(in_flight.front());
        in_flight.pop_front();
        return front;
      },
      [&in_flight]() -> Result<std::vector<uint8_t>> {
        if (in_flight.empty()) return Status::DeadlineExceeded("silent");
        std::vector<uint8_t> front = std::move(in_flight.front());
        in_flight.pop_front();
        return front;
      });
  std::vector<uint64_t> slept;
  RetryConfig retry;
  retry.sleep = [&slept](uint64_t ns) { slept.push_back(ns); };
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1, retry);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < reference.size(); ++i) {
    auto packet = (*session)->NextPacket();
    ASSERT_TRUE(packet.ok()) << packet.status().ToString();
    EXPECT_EQ(Ids(*packet), reference[i]) << "packet " << i;
  }
  const RetryStats& stats = (*session)->retry_stats();
  EXPECT_EQ(stats.stale_replies, 1u);  // the one copy, drained once
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.backoff_ns, 0u);
  EXPECT_TRUE(slept.empty());
  EXPECT_EQ(transport.listens(), 1u);
  // The open, then one pull per packet after packet 0 (which rode the
  // OpenOk); the duplicated reply is the first pull's, seq 1.
  EXPECT_EQ(stats.attempts, reference.size());
  EXPECT_TRUE(in_flight.empty());  // the link is back in step
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, StaleFrameThenEmptyListenChargesOneRetry) {
  bool injected = false;
  ScriptedTransport transport(
      engine_.get(),
      [&injected](const std::vector<uint8_t>& frame, size_t,
                  net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (!injected && TypeOf(frame) == net::MessageType::kPullRequest) {
          injected = true;
          // The pull is lost; a straggler of a dead session arrives instead.
          return net::EncodeResponse(net::PacketReply{
              /*session_id=*/9999, /*seq=*/0, net::Packet{}, {}});
        }
        return inner->HandleFrame(frame);
      });
  std::vector<uint64_t> slept;
  RetryConfig retry;
  retry.sleep = [&slept](uint64_t ns) { slept.push_back(ns); };
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1, retry);
  ASSERT_TRUE(session.ok());
  // Packet 0 rode the OpenOk; the first pull, seq 1, meets the fault.
  ASSERT_TRUE((*session)->NextPacket().ok());
  auto packet = (*session)->NextPacket();
  ASSERT_TRUE(packet.ok()) << packet.status().ToString();
  // Stale frame -> listen (free) -> nothing in flight -> one charged
  // resend, with exactly one backoff.
  const RetryStats& stats = (*session)->retry_stats();
  EXPECT_EQ(transport.listens(), 1u);
  EXPECT_EQ(stats.stale_replies, 1u);
  EXPECT_EQ(stats.retries, 1u);
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_EQ(slept[0], stats.backoff_ns);
  EXPECT_EQ(transport.calls(), 3u);  // open, lost pull, resent pull
  EXPECT_TRUE((*session)->Close().ok());
}

TEST_F(WireRetryTest, EndlessStaleFramesFailAfterBoundedWork) {
  bool opened = false;
  const std::vector<uint8_t> stale =
      net::EncodeResponse(net::CloseOk{/*session_id=*/4242, {}});
  ScriptedTransport transport(
      engine_.get(),
      [&](const std::vector<uint8_t>& frame, size_t,
          net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (!opened) {
          opened = true;
          return inner->HandleFrame(frame);
        }
        return stale;
      },
      [&stale]() -> Result<std::vector<uint8_t>> { return stale; });
  RetryConfig retry;
  retry.policy.max_attempts = 5;
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1, retry);
  ASSERT_TRUE(session.ok());
  // Packet 0 rode the OpenOk; the first pull, seq 1, meets the stale flood.
  ASSERT_TRUE((*session)->NextPacket().ok());
  auto packet = (*session)->NextPacket();
  EXPECT_TRUE(packet.status().IsDeadlineExceeded())
      << packet.status().ToString();
  // max_attempts sends for the pull, and at most max_attempts drains.
  EXPECT_EQ(transport.calls(), 1u + 5u);
  EXPECT_EQ(transport.listens(), 5u);
  EXPECT_EQ((*session)->retry_stats().stale_replies, 5u + 5u);
}

TEST_F(WireRetryTest, DisconnectClosesTheStrandedSession) {
  bool injected = false;
  size_t pulls = 0;
  ScriptedTransport transport(
      engine_.get(),
      [&](const std::vector<uint8_t>& frame, size_t,
          net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (TypeOf(frame) == net::MessageType::kPullRequest &&
            ++pulls == 3 && !injected) {
          injected = true;
          return Status::IoError("connection reset");
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*session)->NextPacket().ok());
  }
  EXPECT_EQ((*session)->retry_stats().reopens, 1u);
  EXPECT_EQ(EngineCount("sessions_opened"), 2u);
  EXPECT_TRUE((*session)->Close().ok());
  // Both the session the disconnect stranded and the re-opened one are
  // closed: nothing is left for the idle sweep.
  EXPECT_EQ(EngineCount("sessions_closed"), 2u);
  EXPECT_EQ(engine_->open_sessions(), 0u);
}

TEST_F(WireRetryTest, CloseIsAtLeastOnce) {
  bool dropped = false;
  ScriptedTransport transport(
      engine_.get(),
      [&dropped](const std::vector<uint8_t>& frame, size_t,
                 net::FrameHandler* inner) -> Result<std::vector<uint8_t>> {
        if (!dropped && TypeOf(frame) == net::MessageType::kCloseRequest) {
          dropped = true;
          inner->HandleFrame(frame);  // the server does close the session
          return Status::DeadlineExceeded("response frame lost");
        }
        return inner->HandleFrame(frame);
      });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  ASSERT_TRUE(session.ok());
  // The retried close finds nothing (kNotFound) — which proves the first
  // attempt landed, so Close reports success.
  EXPECT_TRUE((*session)->Close().ok());
  EXPECT_TRUE((*session)->closed());
  EXPECT_EQ(EngineCount("sessions_closed"), 1u);
  EXPECT_EQ(engine_->open_sessions(), 0u);
}

TEST_F(WireRetryTest, GenuineRejectionsAreNotRetried) {
  ServiceOptions options;
  options.max_sessions = 1;
  ServiceEngine capped(server_.get(), options);
  // The occupant's Open differs from the session's below (another anchor),
  // so the repeat rule cannot hand the session the occupant's slot.
  net::OpenRequest occupant;
  occupant.anchor = {1, 1};
  occupant.k = 1;
  auto occupied =
      net::DecodeResponse(capped.HandleFrame(net::EncodeRequest(occupant)));
  ASSERT_TRUE(occupied.ok());
  ASSERT_NE(std::get_if<net::OpenOk>(&*occupied), nullptr);

  ScriptedTransport transport(
      &capped, [](const std::vector<uint8_t>& frame, size_t,
                  net::FrameHandler* inner) { return inner->HandleFrame(frame); });
  auto session = WireSession::Open(&transport, kAnchor, 0.0, 1);
  EXPECT_TRUE(session.status().IsResourceExhausted());
  EXPECT_EQ(transport.calls(), 1u);  // backpressure must not be hammered
}

// Open frames dropped, duplicated, reordered, corrupted and stalled, both
// ways: every retry resends the same request and gets the session it
// already opened, so each query opens exactly one session, and none is
// left behind once its query closes. Every answer stays exact.
TEST_F(WireRetryTest, FaultedOpensStrandNoSession) {
  net::FaultRates rates;
  rates.drop = 0.1;
  rates.duplicate = 0.1;
  rates.reorder = 0.1;
  rates.corrupt = 0.1;
  rates.stall = 0.1;
  net::FaultConfig config;
  config.uplink_overrides = {{net::MessageType::kOpenRequest, rates}};
  config.downlink_overrides = {{net::MessageType::kOpenRequest, rates}};
  net::FaultyTransport link(engine_.get(), config, /*seed=*/23);

  core::SpaceTwistClient reference(server_.get());
  core::QueryParams params;
  params.k = 2;
  constexpr size_t kQueries = 200;
  Rng rng(2024);
  for (size_t i = 0; i < kQueries; ++i) {
    const geom::Point q{rng.Uniform(500, 9500), rng.Uniform(500, 9500)};
    const geom::Point anchor = core::GenerateAnchor(
        q, params.anchor_distance, server_->domain(), &rng);
    RetryConfig retry;
    retry.seed = 1000 + i;  // each query draws its own nonce
    auto remote = RemoteQuery(&link, q, anchor, params, retry);
    ASSERT_TRUE(remote.ok()) << "query " << i << ": "
                             << remote.status().ToString();
    auto local = reference.Query(q, anchor, params);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(eval::DigestOf(*remote), eval::DigestOf(*local))
        << "query " << i;
  }
  const net::FaultStats faults = link.stats();
  EXPECT_GT(faults.drops, 0u);
  EXPECT_GT(faults.duplicates, 0u);
  EXPECT_GT(faults.reorders, 0u);
  EXPECT_GT(faults.corruptions, 0u);
  EXPECT_GT(faults.stalls, 0u);
  EXPECT_EQ(EngineCount("sessions_opened"), kQueries);
  EXPECT_EQ(engine_->open_sessions(), 0u);
}

TEST_F(WireRetryTest, SequencedPullReplayWindowSemantics) {
  net::OpenRequest open;
  open.anchor = kAnchor;
  open.k = 1;
  const net::Response opened = Send(open);
  const auto* open_ok = std::get_if<net::OpenOk>(&opened);
  ASSERT_NE(open_ok, nullptr);
  const uint64_t id = open_ok->session_id;
  // The OpenOk served packet 0, so pulling seq 0 replays it: idempotent
  // and byte-identical.
  const net::Response replay = Send(net::PullRequest{id, 0});
  const auto* replayed = std::get_if<net::PacketReply>(&replay);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(Ids(replayed->packet), Ids(open_ok->packet));
  const auto status_of = [](const net::Response& response) {
    const auto* error = std::get_if<net::ErrorReply>(&response);
    return error == nullptr ? Status::OK() : net::ToStatus(*error);
  };
  // Jumping past the replay window is a protocol error...
  EXPECT_TRUE(status_of(Send(net::PullRequest{id, 2})).IsInvalidArgument());
  // ...and so is reaching behind it.
  ASSERT_TRUE(status_of(Send(net::PullRequest{id, 1})).ok());
  ASSERT_TRUE(status_of(Send(net::PullRequest{id, 2})).ok());
  EXPECT_TRUE(status_of(Send(net::PullRequest{id, 0})).IsInvalidArgument());
  EXPECT_TRUE(status_of(Send(net::CloseRequest{id})).ok());
  EXPECT_EQ(EngineCount("pulls_replayed"), 1u);
}

}  // namespace
}  // namespace spacetwist::service
