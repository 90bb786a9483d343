#include "stages.h"

#include <utility>

namespace perfbench {

namespace {

/// Backend work done by this worker thread since its last SendReply.
struct BackendTally {
  uint64_t ns = 0;
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  bool open = false;
};
thread_local BackendTally tls_tally;

void Tally(uint64_t start_ns, uint64_t end_ns, bool open) {
  BackendTally& t = tls_tally;
  if (t.ns == 0 && t.first_ns == 0) t.first_ns = start_ns;
  t.ns += end_ns - start_ns;
  t.last_ns = end_ns;
  t.open = t.open || open;
}

/// InnSource decorator: forwards everything, timing each pull.
class TimedSource : public st::server::InnSource {
 public:
  TimedSource(std::unique_ptr<st::server::InnSource> inner,
              TimedBackend* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  st::Result<st::rtree::DataPoint> Next() override {
    const uint64_t start = NowNs();
    st::Result<st::rtree::DataPoint> point = inner_->Next();
    owner_->AddPull(start, NowNs());
    return point;
  }

  st::Status NextBatch(size_t max_points,
                       std::vector<st::rtree::DataPoint>* out) override {
    const uint64_t start = NowNs();
    st::Status status = inner_->NextBatch(max_points, out);
    owner_->AddPull(start, NowNs());
    return status;
  }

  void set_trace(st::telemetry::Trace* trace) override {
    inner_->set_trace(trace);
  }
  uint64_t heap_pops() const override { return inner_->heap_pops(); }
  uint64_t node_reads() const override { return inner_->node_reads(); }

 private:
  std::unique_ptr<st::server::InnSource> inner_;
  TimedBackend* owner_;
};

}  // namespace

uint64_t NowNs() { return st::telemetry::DefaultClock()->NowNs(); }

void StageLedger::Span(const char* name, uint64_t start_ns, uint64_t end_ns,
                       int depth) {
  if (!keep_spans) return;
  st::telemetry::SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns < start_ns ? start_ns : end_ns;
  span.depth = depth;
  spans.push_back(std::move(span));
}

const char* OpenMetricName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemidx:
      return "memidx.open_us";
    case BackendKind::kPaged:
      return "server.open_us";
    case BackendKind::kShard:
      return "shard.open_us";
  }
  return "";
}

const char* PullMetricName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemidx:
      return "memidx.scan_us_per_pull";
    case BackendKind::kPaged:
      return "server.scan_us_per_pull";
    case BackendKind::kShard:
      return "shard.merge_us_per_pull";
  }
  return "";
}

std::unique_ptr<st::server::InnSource> TimedBackend::OpenInnSource(
    const st::geom::Point& anchor, double epsilon, size_t k,
    const st::server::GranularOptions& options) {
  const uint64_t start = NowNs();
  std::unique_ptr<st::server::InnSource> source =
      inner_->OpenInnSource(anchor, epsilon, k, options);
  const uint64_t end = NowNs();
  opens_.fetch_add(1, std::memory_order_relaxed);
  open_ns_.fetch_add(end - start, std::memory_order_relaxed);
  Tally(start, end, /*open=*/true);
  return std::make_unique<TimedSource>(std::move(source), this);
}

void TimedBackend::AddPull(uint64_t start_ns, uint64_t end_ns) {
  pulls_.fetch_add(1, std::memory_order_relaxed);
  pull_ns_.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  Tally(start_ns, end_ns, /*open=*/false);
}

TimedBackend::Totals TimedBackend::totals() const {
  return {opens_.load(), open_ns_.load(), pulls_.load(), pull_ns_.load()};
}

size_t TimedEventTransport::PollReady(
    size_t max_events, std::vector<st::engine::FrameEvent>* out) {
  const size_t before = out->size();
  const size_t moved = InProcessEventTransport::PollReady(max_events, out);
  const uint64_t now = NowNs();
  for (size_t i = before; i < out->size(); ++i) {
    const uint64_t conn = (*out)[i].conn_id;
    if (conn < slots_.size()) {
      slots_[conn].poll_ns.store(now, std::memory_order_relaxed);
    }
  }
  return moved;
}

void TimedEventTransport::SendReply(uint64_t conn_id,
                                    std::vector<uint8_t> frame) {
  const uint64_t now = NowNs();
  BackendTally tally = std::exchange(tls_tally, BackendTally());
  if (conn_id < slots_.size()) {
    FrameSlot& slot = slots_[conn_id];
    slot.send_ns.store(now, std::memory_order_relaxed);
    slot.backend_ns.store(tally.ns, std::memory_order_relaxed);
    slot.backend_first_ns.store(tally.first_ns, std::memory_order_relaxed);
    slot.backend_last_ns.store(tally.last_ns, std::memory_order_relaxed);
    slot.backend_open.store(tally.open, std::memory_order_relaxed);
    const uint64_t poll = slot.poll_ns.load(std::memory_order_relaxed);
    frames_.fetch_add(1, std::memory_order_relaxed);
    server_ns_.fetch_add(now >= poll ? now - poll : 0,
                         std::memory_order_relaxed);
    backend_ns_.fetch_add(tally.ns, std::memory_order_relaxed);
  }
  InProcessEventTransport::SendReply(conn_id, std::move(frame));
}

std::vector<uint8_t> TimedPort::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  const uint64_t entry = NowNs();
  std::vector<uint8_t> reply = port_.HandleFrame(request_frame);
  const uint64_t done = NowNs();
  if (!ledger_->active) return reply;
  // The reply was published under the transport lock after the worker
  // stamped the slot, so these loads see this frame's values.
  const uint64_t poll = slot_->poll_ns.load(std::memory_order_relaxed);
  const uint64_t send = slot_->send_ns.load(std::memory_order_relaxed);
  const uint64_t backend = slot_->backend_ns.load(std::memory_order_relaxed);
  ledger_->frames += 1;
  ledger_->port_ns += done - entry;
  ledger_->handoff_in_ns += poll - entry;
  ledger_->server_ns += send - poll;
  ledger_->handoff_out_ns += done - send;
  if (ledger_->keep_spans) {
    const int depth = ledger_->depth;
    ledger_->Span("engine.handoff_in_us", entry, poll, depth);
    ledger_->Span("service.dispatch_self_us", poll, send, depth);
    if (backend > 0) {
      ledger_->Span(slot_->backend_open.load(std::memory_order_relaxed)
                        ? OpenMetricName(kind_)
                        : PullMetricName(kind_),
                    slot_->backend_first_ns.load(std::memory_order_relaxed),
                    slot_->backend_last_ns.load(std::memory_order_relaxed),
                    depth + 1);
    }
    ledger_->Span("engine.handoff_out_us", send, done, depth);
  }
  return reply;
}

st::Result<std::vector<uint8_t>> TimedFrameTransport::RoundTrip(
    const std::vector<uint8_t>& request_frame) {
  const uint64_t start = NowNs();
  st::Result<std::vector<uint8_t>> reply = inner_->RoundTrip(request_frame);
  if (ledger_->active) ledger_->round_trip_ns += NowNs() - start;
  return reply;
}

st::Result<st::net::Packet> TimedPacketTransport::NextPacket() {
  const uint64_t start = NowNs();
  const int depth = ledger_->depth;
  ledger_->depth = depth + 1;
  st::Result<st::net::Packet> packet = inner_->NextPacket();
  const uint64_t end = NowNs();
  ledger_->depth = depth;
  ledger_->next_packet_ns += end - start;
  ledger_->Span("service.client_self_us", start, end, depth);
  return packet;
}

}  // namespace perfbench
