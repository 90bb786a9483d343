#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "net/wire.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"

namespace spacetwist::service {
namespace {

/// Concurrency soak for ServiceEngine's wire path: many client threads
/// send Open, Pull and Close frames against a deliberately tiny session cap
/// while idle-TTL eviction (driven by an injectable virtual clock) races
/// them. Some Open frames are resent verbatim, so the repeat index and the
/// first pull outside the stripe lock race the sweeps as well. Runs under
/// the TSan CI job; the assertions here are the *accounting invariants*
/// that must survive any interleaving — kNotFound from a racing eviction is
/// legal, lost sessions or corrupted counters are not.

class ServiceSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(2000, 4711);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ =
        server::LbsServer::Build(dataset_, rtree_options).MoveValueOrDie();
  }

  uint64_t Count(std::string_view name) {
    return registry_.GetCounter(name)->value();
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
  telemetry::MetricRegistry registry_;
};

/// An undecodable reply becomes a default ErrorReply (kInternal), which
/// every check below counts as a violation.
net::Response Decode(const std::vector<uint8_t>& frame) {
  Result<net::Response> response = net::DecodeResponse(frame);
  return response.ok() ? response.MoveValueOrDie()
                       : net::Response(net::ErrorReply{});
}

/// One request through the engine's wire entry point, its reply decoded.
net::Response Send(ServiceEngine* engine, const net::Request& request) {
  return Decode(engine->HandleFrame(net::EncodeRequest(request)));
}

/// The code an ErrorReply carries; kOk for any other reply.
StatusCode ErrorCode(const net::Response& response) {
  const auto* error = std::get_if<net::ErrorReply>(&response);
  return error == nullptr ? StatusCode::kOk : error->code;
}

TEST_F(ServiceSoakTest, OpenPullCloseChurnRacingTtlEviction) {
  telemetry::VirtualClock clock_ns(1);

  ServiceOptions options;
  options.num_shards = 4;
  options.max_sessions = 8;  // small cap => constant backpressure
  options.idle_ttl_ns = 2'000;
  options.clock = &clock_ns;
  options.registry = &registry_;
  ServiceEngine engine(server_.get(), options);

  constexpr size_t kThreads = 8;
  constexpr int kIterations = 300;

  std::atomic<bool> stop_evictor{false};
  std::atomic<uint64_t> protocol_violations{0};
  // How resent Opens were answered: the same OpenOk bytes, a stale
  // duplicate, or a new session once the first was gone.
  std::atomic<uint64_t> resent_same{0};
  std::atomic<uint64_t> resent_stale{0};
  std::atomic<uint64_t> resent_new{0};
  const auto violation = [&protocol_violations] {
    protocol_violations.fetch_add(1, std::memory_order_relaxed);
  };

  std::thread evictor([&] {
    while (!stop_evictor.load(std::memory_order_relaxed)) {
      clock_ns.Advance(1'500);
      engine.EvictIdle();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int iter = 0; iter < kIterations; ++iter) {
        if (rng.Bernoulli(0.1)) {
          std::vector<uint8_t> garbage(
              static_cast<size_t>(rng.UniformInt(0, 32)));
          for (uint8_t& b : garbage) {
            b = static_cast<uint8_t>(rng.UniformInt(0, 255));
          }
          // Must never crash; random bytes are almost never a valid frame.
          (void)engine.HandleFrame(garbage);
        }

        net::OpenRequest open;
        open.anchor = {rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
        open.k = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
        // No two threads send the same Open, so every repeat the engine
        // sees is one of this thread's resends.
        open.nonce = t * kIterations + static_cast<uint64_t>(iter) + 1;
        const std::vector<uint8_t> open_frame = net::EncodeRequest(open);
        const std::vector<uint8_t> first = engine.HandleFrame(open_frame);
        const net::Response opened_response = Decode(first);
        const auto* opened = std::get_if<net::OpenOk>(&opened_response);
        if (opened == nullptr) {
          if (ErrorCode(opened_response) != StatusCode::kResourceExhausted) {
            violation();
          }
          continue;  // backpressure: try again next iteration
        }
        const uint64_t id = opened->session_id;

        uint64_t next_seq = 1;  // packet 0 rode the OpenOk
        bool closed = false;
        // Resends the Open verbatim and checks the answer against what
        // this thread knows of its session.
        const auto resend = [&] {
          const std::vector<uint8_t> again = engine.HandleFrame(open_frame);
          if (again == first) {
            // Only a live session still at packet 0 answers with its
            // OpenOk again.
            if (next_seq != 1 || closed) violation();
            resent_same.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          const net::Response response = Decode(again);
          if (const auto* reopened = std::get_if<net::OpenOk>(&response)) {
            // The first session is gone (closed or evicted): a new one,
            // serving the same packet 0. Left to the TTL sweep.
            if (reopened->session_id == id ||
                reopened->packet.points != opened->packet.points) {
              violation();
            }
            resent_new.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          const auto* error = std::get_if<net::ErrorReply>(&response);
          if (error == nullptr) {
            violation();
          } else if (error->code == StatusCode::kOutOfRange) {
            // A stale duplicate: the session is live and past packet 0.
            if (next_seq == 1 || closed || error->session_id != id) {
              violation();
            }
            resent_stale.fetch_add(1, std::memory_order_relaxed);
          } else if (error->code != StatusCode::kResourceExhausted) {
            // kResourceExhausted is legal: the first session is gone and
            // the cap is full. Anything else is a bug.
            violation();
          }
        };

        const int pulls = static_cast<int>(rng.UniformInt(0, 4));
        // When to resend the Open: before pull `resend_at`, before the
        // close (== pulls), after it (== pulls + 1), or never (-1).
        const int resend_at =
            rng.Bernoulli(0.3)
                ? static_cast<int>(rng.UniformInt(0, pulls + 1))
                : -1;
        for (int p = 0; p < pulls; ++p) {
          if (p == resend_at) resend();
          const net::Response pulled =
              Send(&engine, net::PullRequest{id, next_seq});
          if (const auto* reply = std::get_if<net::PacketReply>(&pulled)) {
            if (reply->session_id != id || reply->seq != next_seq) violation();
            ++next_seq;
            // Occasional idempotent replay of the packet just served.
            if (rng.Bernoulli(0.3)) {
              const net::Response replayed =
                  Send(&engine, net::PullRequest{id, next_seq - 1});
              const auto* again = std::get_if<net::PacketReply>(&replayed);
              if (again != nullptr) {
                if (again->packet.points != reply->packet.points) violation();
              } else if (ErrorCode(replayed) != StatusCode::kNotFound) {
                violation();
              }
            }
            continue;
          }
          // A racing TTL sweep may evict us mid-stream; anything else
          // (other than a dry stream) is a bug.
          const StatusCode code = ErrorCode(pulled);
          if (code != StatusCode::kNotFound &&
              code != StatusCode::kExhausted) {
            violation();
          }
          break;
        }
        if (resend_at == pulls) resend();

        if (rng.Bernoulli(0.7)) {
          const net::Response close = Send(&engine, net::CloseRequest{id});
          if (std::get_if<net::CloseOk>(&close) != nullptr) {
            closed = true;
          } else if (ErrorCode(close) != StatusCode::kNotFound) {
            violation();
          }
        }
        // else: abandon the session — TTL eviction must reclaim it.
        if (resend_at == pulls + 1) resend();

        if (rng.Bernoulli(0.2)) {
          clock_ns.Advance(500);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop_evictor.store(true);
  evictor.join();

  EXPECT_EQ(protocol_violations.load(), 0u);
  EXPECT_GT(resent_same.load(), 0u);
  EXPECT_GT(resent_stale.load(), 0u);
  EXPECT_GT(resent_new.load(), 0u);

  // Push the clock far past the TTL so the final sweep reclaims every
  // abandoned session.
  clock_ns.Advance(1'000'000'000);
  engine.EvictIdle();

  EXPECT_EQ(engine.open_sessions(), 0u);
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(), 0);
  // Every opened session is accounted for exactly once: closed or evicted.
  const uint64_t opened = Count("service.engine.sessions_opened");
  EXPECT_EQ(opened, Count("service.engine.sessions_closed") +
                        Count("service.engine.sessions_evicted"));
  EXPECT_GT(opened, 0u);
  // Abandonment actually happened.
  EXPECT_GT(Count("service.engine.sessions_evicted"), 0u);
  // Garbage frames actually sent.
  EXPECT_GT(Count("service.engine.decode_errors"), 0u);
  // The cap was genuinely contended.
  EXPECT_GT(Count("service.engine.sessions_rejected"), 0u);
}

TEST_F(ServiceSoakTest, EvictionRacingActivePullsKeepsCountersCoherent) {
  telemetry::VirtualClock clock_ns(1);

  ServiceOptions options;
  options.num_shards = 2;
  options.max_sessions = 4;
  options.idle_ttl_ns = 1;  // everything is instantly evictable
  options.clock = &clock_ns;
  options.registry = &registry_;
  ServiceEngine engine(server_.get(), options);

  // One thread hammers a single session with pulls (each pull refreshes
  // last_touch); another advances time and sweeps. The session dies the
  // moment a sweep wins the race — after which every pull must be a clean
  // kNotFound, never a torn read.
  net::OpenRequest open;
  open.anchor = {5000, 5000};
  open.k = 1;
  const net::Response opened = Send(&engine, open);
  ASSERT_NE(std::get_if<net::OpenOk>(&opened), nullptr);
  const uint64_t id = std::get<net::OpenOk>(opened).session_id;

  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    for (int i = 0; i < 2000; ++i) {
      clock_ns.Advance(3);
      engine.EvictIdle();
    }
    done.store(true);
  });

  uint64_t ok_pulls = 0;
  uint64_t not_found = 0;
  uint64_t other = 0;  // dry stream / replay-window rejections
  uint64_t seq = 1;    // packet 0 rode the OpenOk
  while (!done.load(std::memory_order_relaxed)) {
    const net::Response pulled = Send(&engine, net::PullRequest{id, seq});
    const StatusCode code = ErrorCode(pulled);
    if (std::get_if<net::PacketReply>(&pulled) != nullptr) {
      ++ok_pulls;
      ++seq;
    } else if (code == StatusCode::kNotFound) {
      ++not_found;
    } else if (code == StatusCode::kExhausted ||
               code == StatusCode::kInvalidArgument) {
      ++other;
    } else {
      ADD_FAILURE() << "pull " << seq << " answered with code "
                    << static_cast<int>(code);
      break;
    }
  }
  sweeper.join();

  EXPECT_EQ(Count("service.engine.sessions_opened"),
            Count("service.engine.sessions_closed") +
                Count("service.engine.sessions_evicted") +
                engine.open_sessions());
  EXPECT_EQ(registry_.GetGauge("service.engine.open_sessions")->value(),
            static_cast<int64_t>(engine.open_sessions()));
  // Every pull this thread issued is accounted exactly once — no counter
  // increments were lost to the racing sweeps.
  EXPECT_EQ(Count("service.engine.pull_requests"),
            ok_pulls + not_found + other);
}

}  // namespace
}  // namespace spacetwist::service
