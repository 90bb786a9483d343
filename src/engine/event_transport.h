#ifndef SPACETWIST_ENGINE_EVENT_TRANSPORT_H_
#define SPACETWIST_ENGINE_EVENT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "telemetry/clock.h"
#include "telemetry/metric.h"

namespace spacetwist::engine {

/// One readable event: a complete request frame that arrived on a
/// connection. The in-process transport hands frames around whole (framing
/// is the wire codec's job); an epoll-backed implementation would
/// accumulate bytes per fd and surface an event only when a length-prefixed
/// frame completes — the interface below is unchanged either way.
struct FrameEvent {
  uint64_t conn_id = 0;
  std::vector<uint8_t> frame;
  uint64_t submit_ns = 0;  ///< arrival, on the admission clock (0 if none)
};

/// Readiness-based transport the serving workers run over — the epoll
/// analogue (docs/SERVICE.md §7). Each worker takes one complete frame with
/// PollReady(), parks in WaitReady() (epoll_wait) while nothing is ready,
/// and answers with SendReply() from the same thread; no thread is ever
/// parked per connection. Implementations must make all three calls safe
/// from any number of threads at once. An epoll-backed one would register
/// its fds one-shot (or wait with EPOLLEXCLUSIVE) so that one readable
/// frame wakes one worker, not every parked one.
class EventTransport {
 public:
  virtual ~EventTransport() = default;

  /// Blocks until at least one frame is ready or the transport is shut
  /// down. Returns false only when shut down *and* fully drained — the
  /// workers' termination condition, so no accepted frame is ever dropped.
  /// A true return is a hint: another worker may poll the frame first.
  virtual bool WaitReady() = 0;

  /// Moves up to `max_events` ready frames into `out` (appended; caller
  /// clears). Never blocks. Returns the number moved.
  virtual size_t PollReady(size_t max_events, std::vector<FrameEvent>* out) = 0;

  /// Queues one response frame for `conn_id`. Unknown connections are
  /// dropped silently (the peer hung up — exactly what a socket write to a
  /// closed fd amounts to).
  virtual void SendReply(uint64_t conn_id, std::vector<uint8_t> frame) = 0;
};

/// In-process EventTransport: connections are ids, the readable set is a
/// bounded FIFO of submitted frames, replies are per-connection queues with
/// a CondVar for the blocked client. The client side (Connect / Submit /
/// AwaitReply / Disconnect) is what EventEngine::Port builds a
/// net::FrameHandler from, so WireSession, FaultyTransport, and the load
/// generators compose with the event-driven engine unchanged.
///
/// Admission happens at arrival: once SetAdmission() bounds the ready
/// queue, a Submit that finds it full fails at once with
/// kResourceExhausted (the engine's backpressure signal), so a shed client
/// never waits for a worker. Parked workers are woken newest first: a lone
/// connection's frames keep landing on the one cache-warm worker that just
/// served its previous frame.
class InProcessEventTransport : public EventTransport {
 public:
  InProcessEventTransport() = default;
  InProcessEventTransport(const InProcessEventTransport&) = delete;
  InProcessEventTransport& operator=(const InProcessEventTransport&) = delete;

  /// Bounds the ready queue at `max_ready` frames (0 = unbounded), counts
  /// every refused Submit in `rejected` (may be null) and stamps accepted
  /// frames' submit_ns with `clock` (null = no stamp). The serving engine
  /// calls this once, before its workers start.
  void SetAdmission(size_t max_ready, telemetry::Clock* clock,
                    telemetry::Counter* rejected) EXCLUDES(mu_);

  // Client side ----------------------------------------------------------

  /// Opens a connection; the returned id is never reused.
  uint64_t Connect() EXCLUDES(mu_);

  /// Delivers one request frame on `conn_id`. Fails once shut down, and
  /// with kResourceExhausted when the admission bound is reached.
  [[nodiscard]] Status Submit(uint64_t conn_id, std::vector<uint8_t> frame)
      EXCLUDES(mu_);

  /// Blocks until the next reply frame for `conn_id` arrives; fails if the
  /// transport shuts down first (replies already queued are still drained)
  /// or the connection is unknown.
  Result<std::vector<uint8_t>> AwaitReply(uint64_t conn_id) EXCLUDES(mu_);

  /// Closes `conn_id` and drops its queued replies; later replies to it
  /// are dropped too. Its owner calls this when done, never while its own
  /// AwaitReply is blocked.
  void Disconnect(uint64_t conn_id) EXCLUDES(mu_);

  // Server side (EventTransport) -----------------------------------------

  bool WaitReady() override EXCLUDES(mu_);
  size_t PollReady(size_t max_events, std::vector<FrameEvent>* out) override
      EXCLUDES(mu_);
  void SendReply(uint64_t conn_id, std::vector<uint8_t> frame) override
      EXCLUDES(mu_);

  /// Stops accepting Submits and wakes every parked worker and blocked
  /// AwaitReply. Already-accepted frames remain pollable (WaitReady keeps
  /// returning true until drained).
  void Shutdown() EXCLUDES(mu_);

 private:
  struct Conn {
    std::deque<std::vector<uint8_t>> replies;
    CondVar reply_cv;
  };

  // Rank: above FaultyTransport (Port::HandleFrame — Submit + AwaitReply —
  // may run under a FaultyTransport round-trip lock) and below everything
  // else: workers release this lock before dispatching into the engine,
  // and take it again only after HandleDecoded returned.
  Mutex mu_ ACQUIRED_AFTER(lock_order::kEventTransport)
      ACQUIRED_BEFORE(lock_order::kThreadPool){LockRank::kEventTransport,
                                               "engine.event_transport"};
  std::deque<FrameEvent> ready_ GUARDED_BY(mu_);
  /// Wait slots of the workers parked in WaitReady, oldest first. Each
  /// lives on its worker's stack, so it is only ever signalled under mu_.
  std::vector<CondVar*> parked_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_ GUARDED_BY(mu_);
  uint64_t next_conn_ GUARDED_BY(mu_) = 1;
  bool shutdown_ GUARDED_BY(mu_) = false;
  size_t max_ready_ GUARDED_BY(mu_) = 0;
  telemetry::Clock* clock_ GUARDED_BY(mu_) = nullptr;
  telemetry::Counter* rejected_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace spacetwist::engine

#endif  // SPACETWIST_ENGINE_EVENT_TRANSPORT_H_
