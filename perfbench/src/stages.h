#ifndef PERFBENCH_SRC_STAGES_H_
#define PERFBENCH_SRC_STAGES_H_

// Timing decorators for the traced run. Each one wraps a module boundary
// through that module's public interface, so per-layer numbers come from
// outside the library: nothing here adds tracing inside src/.
//
//   core     TimedPacketTransport   RunTerminationLoop -> WireSession
//   service  TimedFrameTransport    WireSession -> link
//   net      (FaultyTransport)      link -> TimedPort
//   engine   TimedPort +            Port::HandleFrame entry/return, and
//            TimedEventTransport    PollReady / SendReply on the loop/workers
//   backend  TimedBackend/Source    ServiceEngine -> InnBackend/InnSource
//
// Every connection thread owns one StageLedger; the server-side decorators
// fill the per-connection FrameSlot while the client waits for its reply
// (one frame in flight per connection), and the client folds the slot into
// its ledger once the reply is back.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/event_engine.h"
#include "engine/event_transport.h"
#include "net/channel.h"
#include "net/wire.h"
#include "server/inn_backend.h"
#include "telemetry/clock.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace st = spacetwist;

/// Monotonic nanoseconds from the process-wide telemetry clock.
uint64_t NowNs();

/// Where one frame spent its time on the server side, written by the loop
/// thread (poll) and a worker (send, backend) while the owning client is
/// blocked on the reply.
struct FrameSlot {
  std::atomic<uint64_t> poll_ns{0};
  std::atomic<uint64_t> send_ns{0};
  std::atomic<uint64_t> backend_ns{0};
  std::atomic<uint64_t> backend_first_ns{0};
  std::atomic<uint64_t> backend_last_ns{0};
  std::atomic<bool> backend_open{false};  ///< the work was an OpenInnSource
};

/// Per-query stage times of one connection (client thread only). Spans
/// are kept only for sampled queries.
struct StageLedger {
  bool active = false;     ///< inside the latency window of a query
  bool keep_spans = false; ///< sampled query: record spans
  uint64_t next_packet_ns = 0;  ///< inside WireSession::NextPacket
  uint64_t round_trip_ns = 0;   ///< inside FrameTransport::RoundTrip
  uint64_t port_ns = 0;         ///< inside Port::HandleFrame
  uint64_t handoff_in_ns = 0;
  uint64_t handoff_out_ns = 0;
  uint64_t server_ns = 0;       ///< PollReady -> SendReply
  uint64_t sleep_ns = 0;        ///< real backoff sleeps
  uint64_t frames = 0;
  int depth = 0;  ///< span nesting depth of the decorator now running
  std::vector<st::telemetry::SpanRecord> spans;

  void Reset(bool sample) {
    *this = StageLedger();
    active = true;
    keep_spans = sample;
  }
  void Span(const char* name, uint64_t start_ns, uint64_t end_ns, int depth);
};

/// Backend names the decorator reports under.
enum class BackendKind { kMemidx, kPaged, kShard };

/// Metric/span names of a backend's open and per-pull times.
const char* OpenMetricName(BackendKind kind);
const char* PullMetricName(BackendKind kind);

/// InnBackend decorator: times OpenInnSource and every pull of the sources
/// it returns. Totals are process-wide atomics; the per-frame share lands
/// in the calling worker's thread-local tally, which TimedEventTransport
/// hands to the frame's connection at SendReply.
class TimedBackend : public st::server::InnBackend {
 public:
  explicit TimedBackend(st::server::InnBackend* inner) : inner_(inner) {}

  std::unique_ptr<st::server::InnSource> OpenInnSource(
      const st::geom::Point& anchor, double epsilon, size_t k,
      const st::server::GranularOptions& options) override;

  struct Totals {
    uint64_t opens = 0;
    uint64_t open_ns = 0;
    uint64_t pulls = 0;
    uint64_t pull_ns = 0;
  };
  Totals totals() const;

  /// Records one timed backend call (used by the sources).
  void AddPull(uint64_t start_ns, uint64_t end_ns);

 private:
  st::server::InnBackend* inner_;
  std::atomic<uint64_t> opens_{0};
  std::atomic<uint64_t> open_ns_{0};
  std::atomic<uint64_t> pulls_{0};
  std::atomic<uint64_t> pull_ns_{0};
};

/// EventTransport that stamps each frame as the loop polls it and as a
/// worker replies, into the frame's connection slot. Also totals the
/// server-side time over every frame it carries.
class TimedEventTransport : public st::engine::InProcessEventTransport {
 public:
  explicit TimedEventTransport(size_t max_conns) : slots_(max_conns + 1) {}

  size_t PollReady(size_t max_events,
                   std::vector<st::engine::FrameEvent>* out) override;
  void SendReply(uint64_t conn_id, std::vector<uint8_t> frame) override;

  FrameSlot& slot(uint64_t conn_id) { return slots_.at(conn_id); }

  struct Totals {
    uint64_t frames = 0;
    uint64_t server_ns = 0;   ///< PollReady -> SendReply
    uint64_t backend_ns = 0;
  };
  Totals totals() const {
    return {frames_.load(), server_ns_.load(), backend_ns_.load()};
  }

 private:
  std::vector<FrameSlot> slots_;
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> server_ns_{0};
  std::atomic<uint64_t> backend_ns_{0};
};

/// FrameHandler over one event-engine connection that times the handoffs
/// into and out of the engine for the owning connection's ledger.
class TimedPort : public st::net::FrameHandler {
 public:
  TimedPort(st::engine::EventEngine::Port port, uint64_t conn_id,
            TimedEventTransport* transport, BackendKind kind,
            StageLedger* ledger)
      : port_(port),
        slot_(&transport->slot(conn_id)),
        kind_(kind),
        ledger_(ledger) {}

  std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) override;

 private:
  st::engine::EventEngine::Port port_;
  FrameSlot* slot_;
  BackendKind kind_;
  StageLedger* ledger_;
};

/// FrameTransport decorator: the time WireSession spends waiting on its
/// link (everything below the client half of the service layer).
class TimedFrameTransport : public st::net::FrameTransport {
 public:
  TimedFrameTransport(st::net::FrameTransport* inner, StageLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  st::Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) override;

 private:
  st::net::FrameTransport* inner_;
  StageLedger* ledger_;
};

/// PacketTransport decorator between Algorithm 1's loop and WireSession.
class TimedPacketTransport : public st::net::PacketTransport {
 public:
  TimedPacketTransport(st::net::PacketTransport* inner, StageLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  st::Result<st::net::Packet> NextPacket() override;

 private:
  st::net::PacketTransport* inner_;
  StageLedger* ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STAGES_H_
