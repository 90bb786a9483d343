#include "engine/event_engine.h"

#include <utility>

#include "common/logging.h"

namespace spacetwist::engine {

namespace {

std::vector<uint8_t> EncodeError(const Status& status) {
  // Byte-identical to ServiceEngine's error frames for requests that never
  // named a session (session_id 0) — the only error class the engine
  // itself can produce.
  return net::EncodeResponse(
      net::ErrorReply{status.code(), /*session_id=*/0, status.message()});
}

}  // namespace

std::vector<uint8_t> EventEngine::Port::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  // A FrameHandler cannot fail, so a refused Submit (ready queue full, or
  // the engine shut down) surfaces at once as an encoded error frame.
  Status submitted = transport_->Submit(conn_id_, request_frame);
  if (!submitted.ok()) return EncodeError(submitted);
  Result<std::vector<uint8_t>> reply = transport_->AwaitReply(conn_id_);
  if (!reply.ok()) return EncodeError(reply.status());
  return reply.MoveValueOrDie();
}

EventEngine::EventEngine(service::ServiceEngine* service,
                         InProcessEventTransport* transport,
                         const EventEngineOptions& options)
    : service_(service),
      transport_(transport),
      clock_(telemetry::OrDefault(options.clock)) {
  SPACETWIST_CHECK(service_ != nullptr);
  SPACETWIST_CHECK(transport_ != nullptr);
  SPACETWIST_CHECK(options.worker_threads >= 1);
  telemetry::MetricRegistry* registry =
      telemetry::MetricRegistry::OrDefault(options.registry);
  instruments_.frames = registry->GetCounter("engine.frames");
  instruments_.decode_errors = registry->GetCounter("engine.decode_errors");
  instruments_.rejected = registry->GetCounter("engine.rejected");
  instruments_.dispatched = registry->GetCounter("engine.dispatched");
  instruments_.replies = registry->GetCounter("engine.replies");
  instruments_.loop_idle_ns = registry->GetCounter("engine.loop_idle_ns");
  instruments_.queue_delay_ns = registry->GetHistogram("engine.queue_delay_ns");
  instruments_.poll_batch = registry->GetHistogram("engine.poll_batch");
  transport_->SetAdmission(options.max_run_queue, clock_,
                           instruments_.rejected);
  workers_.reserve(options.worker_threads);
  for (size_t i = 0; i < options.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

EventEngine::~EventEngine() {
  transport_->Shutdown();
  // Workers drain every accepted frame first (WaitReady contract).
  for (std::thread& worker : workers_) worker.join();
}

void EventEngine::WorkerLoop() {
  std::vector<FrameEvent> polled;
  for (;;) {
    polled.clear();
    if (transport_->PollReady(1, &polled) == 0) {
      // Headroom: ns this worker spends parked in WaitReady. A busy engine
      // reads ~0 here; a large value means the workers are starved for
      // frames, not CPU. (Guarded subtraction: a test driving a
      // VirtualClock backwards via Set() must not underflow the counter.)
      const uint64_t wait_start_ns = clock_->NowNs();
      const bool open = transport_->WaitReady();
      const uint64_t wait_end_ns = clock_->NowNs();
      instruments_.loop_idle_ns->Add(
          wait_end_ns >= wait_start_ns ? wait_end_ns - wait_start_ns : 0);
      if (!open) return;
      continue;
    }
    instruments_.poll_batch->Record(1);
    Serve(std::move(polled.front()));
  }
}

void EventEngine::Serve(FrameEvent event) {
  // Everything a frame contributes is counted before SendReply publishes
  // its reply: a client can observe the reply (and read the registry) the
  // instant the push lands.
  instruments_.frames->Add();

  Result<net::Request> request = net::DecodeRequest(event.frame);
  if (!request.ok()) {
    instruments_.decode_errors->Add();
    instruments_.replies->Add();
    transport_->SendReply(event.conn_id, EncodeError(request.status()));
    return;
  }

  instruments_.dispatched->Add();
  instruments_.queue_delay_ns->Record(clock_->NowNs() - event.submit_ns);
  std::vector<uint8_t> reply = service_->HandleDecoded(*request);
  instruments_.replies->Add();
  transport_->SendReply(event.conn_id, std::move(reply));
}

}  // namespace spacetwist::engine
