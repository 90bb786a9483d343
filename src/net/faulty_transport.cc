#include "net/faulty_transport.h"

#include <utility>

#include "common/strings.h"

namespace spacetwist::net {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDisconnect:
      return "disconnect";
  }
  return "unknown";
}

std::string ToString(const FaultEvent& event) {
  return StrFormat(
      "op=%llu t=%lluns %s %s type=%u",
      static_cast<unsigned long long>(event.op),
      static_cast<unsigned long long>(event.at_ns),
      event.direction == Direction::kUplink ? "uplink" : "downlink",
      FaultKindName(event.kind), static_cast<unsigned>(event.request_type));
}

const FaultRates& FaultConfig::RatesFor(Direction direction,
                                        MessageType request) const {
  const auto& overrides =
      direction == Direction::kUplink ? uplink_overrides : downlink_overrides;
  for (const auto& [type, rates] : overrides) {
    if (type == request) return rates;
  }
  return direction == Direction::kUplink ? uplink : downlink;
}

FaultyTransport::FaultyTransport(FrameHandler* inner,
                                 const FaultConfig& config, uint64_t seed)
    : inner_(inner), config_(config), rng_(seed) {
  telemetry::MetricRegistry* r =
      telemetry::MetricRegistry::OrDefault(config_.registry);
  round_trips_metric_ = r->GetCounter("net.faulty.round_trips");
  delivered_metric_ = r->GetCounter("net.faulty.delivered");
  for (uint8_t kind = 0; kind < 6; ++kind) {
    fault_metrics_[kind] = r->GetCounter(
        StrFormat("net.faults.%s",
                  FaultKindName(static_cast<FaultKind>(kind))));
  }
}

MessageType FaultyTransport::PeekType(
    const std::vector<uint8_t>& frame) const {
  // Offset 4 is the type byte of a well-formed frame; malformed frames
  // (fuzz traffic) simply fall through to the base rates of an Open.
  return frame.size() > 4 ? static_cast<MessageType>(frame[4])
                          : MessageType::kOpenRequest;
}

void FaultyTransport::Record(Direction direction, MessageType request,
                             FaultKind kind) {
  log_.push_back({ops_ - 1, now_ns_, direction, request, kind});
  fault_metrics_[static_cast<uint8_t>(kind)]->Add();
  switch (kind) {
    case FaultKind::kDrop:
      ++stats_.drops;
      break;
    case FaultKind::kDuplicate:
      ++stats_.duplicates;
      break;
    case FaultKind::kReorder:
      ++stats_.reorders;
      break;
    case FaultKind::kCorrupt:
      ++stats_.corruptions;
      break;
    case FaultKind::kStall:
      ++stats_.stalls;
      break;
    case FaultKind::kDisconnect:
      ++stats_.disconnects;
      break;
  }
}

void FaultyTransport::FlipByte(std::vector<uint8_t>* frame) {
  if (frame->empty()) return;
  const size_t pos = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(frame->size()) - 1));
  (*frame)[pos] ^= static_cast<uint8_t>(1 + rng_.UniformInt(0, 254));
}

void FaultyTransport::HoldBack(std::vector<uint8_t> frame) {
  if (config_.max_holdback == 0) return;
  if (holdback_.size() >= config_.max_holdback) holdback_.pop_front();
  holdback_.push_back(std::move(frame));
}

void FaultyTransport::BeginDisconnect(Direction direction,
                                      MessageType request) {
  Record(direction, request, FaultKind::kDisconnect);
  // A reset flushes the connection: held-back frames can never arrive on
  // the next connection (which is what makes cross-session staleness
  // impossible after a reconnect).
  holdback_.clear();
  down_ops_left_ = config_.disconnect_ops > 0 ? config_.disconnect_ops - 1 : 0;
}

Result<std::vector<uint8_t>> FaultyTransport::RoundTrip(
    const std::vector<uint8_t>& request_frame) {
  MutexLock lock(&mu_);
  if (request_frame.empty()) {
    // A listen: the next straggler, if any. It draws no fault and is not
    // an op, so the schedule of sent frames depends only on (seed, config).
    if (holdback_.empty()) {
      return Status::DeadlineExceeded("no frame in flight");
    }
    std::vector<uint8_t> straggler = std::move(holdback_.front());
    holdback_.pop_front();
    return straggler;
  }
  ++ops_;
  now_ns_ += config_.latency_ns;
  ++stats_.round_trips;
  round_trips_metric_->Add();

  if (down_ops_left_ > 0) {
    --down_ops_left_;
    return Status::IoError("link down");
  }

  const MessageType type = PeekType(request_frame);

  // Uplink: the request frame in flight.
  const FaultRates& up = config_.RatesFor(Direction::kUplink, type);
  if (Fire(up.disconnect)) {
    BeginDisconnect(Direction::kUplink, type);
    return Status::IoError("connection reset");
  }
  if (Fire(up.drop)) {
    Record(Direction::kUplink, type, FaultKind::kDrop);
    now_ns_ += config_.deadline_ns;
    return Status::DeadlineExceeded("request frame lost");
  }
  std::vector<uint8_t> deliver = request_frame;
  if (Fire(up.corrupt)) {
    Record(Direction::kUplink, type, FaultKind::kCorrupt);
    FlipByte(&deliver);
  }
  if (Fire(up.duplicate)) {
    // The duplicate reaches the server too; its reply straggles in later
    // (held back), exactly like a retransmitted datagram.
    Record(Direction::kUplink, type, FaultKind::kDuplicate);
    HoldBack(inner_->HandleFrame(deliver));
  }

  std::vector<uint8_t> reply = inner_->HandleFrame(deliver);

  // Downlink: the reply frame in flight.
  const FaultRates& down = config_.RatesFor(Direction::kDownlink, type);
  if (Fire(down.disconnect)) {
    BeginDisconnect(Direction::kDownlink, type);
    return Status::IoError("connection reset");
  }
  if (Fire(down.drop)) {
    Record(Direction::kDownlink, type, FaultKind::kDrop);
    now_ns_ += config_.deadline_ns;
    return Status::DeadlineExceeded("response frame lost");
  }
  if (Fire(down.corrupt)) {
    Record(Direction::kDownlink, type, FaultKind::kCorrupt);
    FlipByte(&reply);
  }
  if (Fire(down.stall)) {
    // The reply is not lost, just late: it becomes a straggler that
    // arrives against a future round trip; this one times out.
    Record(Direction::kDownlink, type, FaultKind::kStall);
    HoldBack(std::move(reply));
    now_ns_ += config_.stall_ns;
    return Status::DeadlineExceeded("response stalled past deadline");
  }
  if (Fire(down.reorder) && config_.max_holdback > 0) {
    // Overtaken in flight: the reply arrives after everything already
    // queued — and with nothing to overtake it, it slips one slot, so
    // this round trip times out and the frame straggles in later.
    Record(Direction::kDownlink, type, FaultKind::kReorder);
    HoldBack(std::move(reply));
    if (holdback_.size() == 1) {
      now_ns_ += config_.deadline_ns;
      return Status::DeadlineExceeded("response reordered past deadline");
    }
  } else {
    if (Fire(down.duplicate)) {
      Record(Direction::kDownlink, type, FaultKind::kDuplicate);
      HoldBack(reply);  // the copy straggles in later
    }
    if (!holdback_.empty()) HoldBack(std::move(reply));
  }
  // FIFO receive: stragglers queued by earlier stalls, reorders, and
  // duplicates arrive before the fresh reply (which, whenever stragglers
  // exist, joined the back of the queue above). This is what makes those
  // faults *observable* — the client reads stale frames and must reject
  // them by nonce/session/seq.
  if (!holdback_.empty()) {
    reply = std::move(holdback_.front());
    holdback_.pop_front();
  }
  ++stats_.delivered;
  delivered_metric_->Add();
  return reply;
}

}  // namespace spacetwist::net
