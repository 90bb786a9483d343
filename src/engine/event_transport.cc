#include "engine/event_transport.h"

#include <algorithm>
#include <utility>

namespace spacetwist::engine {

void InProcessEventTransport::SetAdmission(size_t max_ready,
                                           telemetry::Clock* clock,
                                           telemetry::Counter* rejected) {
  MutexLock lock(&mu_);
  max_ready_ = max_ready;
  clock_ = clock;
  rejected_ = rejected;
}

uint64_t InProcessEventTransport::Connect() {
  MutexLock lock(&mu_);
  const uint64_t id = next_conn_++;
  conns_.emplace(id, std::make_unique<Conn>());
  return id;
}

Status InProcessEventTransport::Submit(uint64_t conn_id,
                                       std::vector<uint8_t> frame) {
  MutexLock lock(&mu_);
  if (shutdown_) return Status::Internal("event transport shut down");
  if (max_ready_ != 0 && ready_.size() >= max_ready_) {
    // Counted before the client can see its refusal.
    if (rejected_ != nullptr) rejected_->Add();
    return Status::ResourceExhausted("event engine run queue full");
  }
  const uint64_t submit_ns = clock_ != nullptr ? clock_->NowNs() : 0;
  ready_.push_back(FrameEvent{conn_id, std::move(frame), submit_ns});
  if (!parked_.empty()) {
    // Newest first; signalled under mu_ because the slot lives on the
    // parked worker's stack and dies as soon as that worker returns.
    parked_.back()->NotifyOne();
    parked_.pop_back();
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> InProcessEventTransport::AwaitReply(
    uint64_t conn_id) {
  MutexLock lock(&mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return Status::InvalidArgument("unknown connection");
  }
  Conn* conn = it->second.get();
  while (conn->replies.empty() && !shutdown_) conn->reply_cv.Wait(&mu_);
  if (conn->replies.empty()) {
    return Status::Internal("event transport shut down");
  }
  std::vector<uint8_t> frame = std::move(conn->replies.front());
  conn->replies.pop_front();
  return frame;
}

void InProcessEventTransport::Disconnect(uint64_t conn_id) {
  MutexLock lock(&mu_);
  conns_.erase(conn_id);
}

bool InProcessEventTransport::WaitReady() {
  MutexLock lock(&mu_);
  CondVar slot;
  while (ready_.empty() && !shutdown_) {
    parked_.push_back(&slot);
    slot.Wait(&mu_);
    // A Submit that woke this slot unlisted it; a spurious wakeup did not.
    auto it = std::find(parked_.begin(), parked_.end(), &slot);
    if (it != parked_.end()) parked_.erase(it);
  }
  return !ready_.empty();
}

size_t InProcessEventTransport::PollReady(size_t max_events,
                                          std::vector<FrameEvent>* out) {
  MutexLock lock(&mu_);
  size_t moved = 0;
  while (moved < max_events && !ready_.empty()) {
    out->push_back(std::move(ready_.front()));
    ready_.pop_front();
    ++moved;
  }
  return moved;
}

void InProcessEventTransport::SendReply(uint64_t conn_id,
                                        std::vector<uint8_t> frame) {
  MutexLock lock(&mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // peer gone: drop, like a closed fd
  Conn* conn = it->second.get();
  conn->replies.push_back(std::move(frame));
  // Signalled under mu_: once it drops, the client may take the reply,
  // finish and Disconnect, freeing the CondVar.
  conn->reply_cv.NotifyOne();
}

void InProcessEventTransport::Shutdown() {
  MutexLock lock(&mu_);
  shutdown_ = true;
  for (auto& [id, conn] : conns_) conn->reply_cv.NotifyAll();
  for (CondVar* slot : parked_) slot->NotifyOne();
  parked_.clear();
}

}  // namespace spacetwist::engine
