#ifndef SPACETWIST_ENGINE_EVENT_ENGINE_H_
#define SPACETWIST_ENGINE_EVENT_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/event_transport.h"
#include "net/wire.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

namespace spacetwist::engine {

/// Tuning knobs for EventEngine.
struct EventEngineOptions {
  /// Worker threads; each polls, decodes, dispatches and replies. This is
  /// the engine's whole thread count.
  size_t worker_threads = 4;
  /// Bound on the transport's ready queue; an arrival that finds it full
  /// is answered at once with an encoded kResourceExhausted error frame
  /// (the engine's overload signal — same semantics as the session-cap
  /// backpressure). 0 = unbounded.
  size_t max_run_queue = 1024;
  /// Queue-delay timestamps; inject a telemetry::VirtualClock for
  /// byte-identical runs. Null = the process-wide real clock.
  telemetry::Clock* clock = nullptr;
  /// Instrument sink for the engine.* instruments (null = process default).
  telemetry::MetricRegistry* registry = nullptr;
};

/// Event-driven serving front end (docs/SERVICE.md §7): each wire session
/// is a small explicit state machine — decode → dispatch → reply — driven
/// by `worker_threads` workers over a readiness-based EventTransport. No
/// thread is parked per pull: a connection consumes memory between its
/// frames, not a stack. A frame crosses two threads, client → worker →
/// client, and every step on the server runs on the worker that polled it:
///
///   Submit (client):  admit         (ready queue full → kResourceExhausted
///                                    error reply at once — wire-level
///                                    backpressure)
///   worker:           PollReady(1)  (nothing ready → park in WaitReady)
///                     decode        (malformed → error reply)
///                     dispatch      (ServiceEngine::HandleDecoded — the
///                                    exact thread-per-pull dispatch+encode,
///                                    so results are byte-identical by
///                                    construction; engine_differential_test
///                                    pins it)
///                     reply         (SendReply on the transport)
///
/// The engine borrows `service` (a ServiceEngine over any InnBackend — a
/// single LbsServer or a shard::ShardRouter fleet) and `transport`, both of
/// which must outlive it. Destruction shuts the transport down, lets the
/// workers drain every accepted frame, and joins them.
///
/// Exported instruments (docs/OBSERVABILITY.md), the engine's only counts:
///   engine.frames, engine.decode_errors, engine.rejected,
///   engine.dispatched, engine.replies            counters
///   engine.loop_idle_ns                          counter, the workers'
///                                                summed ns parked in
///                                                WaitReady (headroom)
///   engine.queue_delay_ns                        histogram, Submit → poll
///   engine.poll_batch                            histogram, 1 per poll
class EventEngine {
 public:
  EventEngine(service::ServiceEngine* service,
              InProcessEventTransport* transport,
              const EventEngineOptions& options = EventEngineOptions());
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// A per-connection net::FrameHandler over the event engine: HandleFrame
  /// submits the frame on this Port's connection and blocks for the reply
  /// (a frame shed at admission gets its error reply without waiting).
  /// Cheap to copy; make one per simulated user. Existing clients
  /// (service::WireSession, net::DirectTransport, net::FaultyTransport)
  /// compose with it unchanged — that is how the differential test runs the
  /// fault schedule against both serving paths.
  class Port : public net::FrameHandler {
   public:
    Port(InProcessEventTransport* transport, uint64_t conn_id)
        : transport_(transport), conn_id_(conn_id) {}

    std::vector<uint8_t> HandleFrame(
        const std::vector<uint8_t>& request_frame) override;

   private:
    InProcessEventTransport* transport_;
    uint64_t conn_id_;
  };

  /// Opens a new connection on the engine's transport.
  Port NewPort() { return Port(transport_, transport_->Connect()); }

 private:
  void WorkerLoop();
  void Serve(FrameEvent event);

  service::ServiceEngine* service_;
  InProcessEventTransport* transport_;
  telemetry::Clock* clock_;

  struct Instruments {
    telemetry::Counter* frames;
    telemetry::Counter* decode_errors;
    telemetry::Counter* rejected;
    telemetry::Counter* dispatched;
    telemetry::Counter* replies;
    telemetry::Counter* loop_idle_ns;
    telemetry::Histogram* queue_delay_ns;
    telemetry::Histogram* poll_batch;
  };
  Instruments instruments_;

  std::vector<std::thread> workers_;  ///< started last in the ctor
};

}  // namespace spacetwist::engine

#endif  // SPACETWIST_ENGINE_EVENT_ENGINE_H_
