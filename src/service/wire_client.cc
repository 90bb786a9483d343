#include "service/wire_client.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "core/params.h"

namespace spacetwist::service {

namespace {

/// Transport-level statuses worth another attempt: timeouts (a lost or
/// stalled frame, or a listen that found nothing in flight) and connection
/// resets. Anything else from the transport is a programming error and
/// surfaces immediately.
bool TransportRetryable(const Status& status) {
  return status.IsDeadlineExceeded() || status.IsIoError();
}

/// Deterministic default trace id: the splitmix64 finalizer of the retry
/// seed. A pure hash, not a draw from the session's Rng, so attaching a
/// trace perturbs none of the existing nonce/jitter streams.
uint64_t DeriveTraceId(uint64_t seed) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

WireSession::WireSession(net::FrameTransport* transport,
                         std::unique_ptr<net::DirectTransport> owned,
                         const RetryConfig& retry, const geom::Point& anchor,
                         double epsilon, size_t k)
    : transport_(transport),
      owned_transport_(std::move(owned)),
      retry_(retry),
      rng_(retry.seed),
      anchor_(anchor),
      epsilon_(epsilon),
      k_(k),
      trace_id_(retry.trace == nullptr ? 0
                : retry.trace_id != 0    ? retry.trace_id
                                         : DeriveTraceId(retry.seed)),
      sampled_(retry.trace != nullptr) {
  if (retry_.trace != nullptr && retry_.trace->trace_id() == 0) {
    retry_.trace->set_trace_id(trace_id_);
  }
  telemetry::MetricRegistry* r =
      telemetry::MetricRegistry::OrDefault(retry_.registry);
  round_trips_metric_ = r->GetCounter("client.wire.round_trips");
  retries_metric_ = r->GetCounter("client.wire.retries");
  reopens_metric_ = r->GetCounter("client.wire.reopens");
  stale_replies_metric_ = r->GetCounter("client.wire.stale_replies");
  backoff_ns_metric_ = r->GetCounter("client.wire.backoff_ns");
  bytes_sent_metric_ = r->GetCounter("client.wire.bytes_sent");
  bytes_received_metric_ = r->GetCounter("client.wire.bytes_received");
}

bool WireSession::Tick(Budget* budget) {
  if (budget->attempts >= retry_.policy.max_attempts) return false;
  if (budget->attempts > 0) {
    ++stats_.retries;
    retries_metric_->Add();
    const size_t retry_index = budget->attempts;  // 1-based
    const int shift = static_cast<int>(std::min<size_t>(retry_index - 1, 20));
    uint64_t backoff = std::min(retry_.policy.base_backoff_ns << shift,
                                retry_.policy.max_backoff_ns);
    if (retry_.policy.jitter > 0.0) {
      const double factor = 1.0 - retry_.policy.jitter / 2.0 +
                            retry_.policy.jitter * rng_.Uniform(0.0, 1.0);
      backoff = static_cast<uint64_t>(static_cast<double>(backoff) * factor);
    }
    stats_.backoff_ns += backoff;
    backoff_ns_metric_->Add(backoff);
    telemetry::Trace::EventOn(retry_.trace, "wire.backoff", backoff);
    if (retry_.sleep) retry_.sleep(backoff);
  }
  ++budget->attempts;
  ++stats_.attempts;
  round_trips_metric_->Add();
  return true;
}

Result<net::Response> WireSession::Exchange(const net::Request& request,
                                            Budget* budget,
                                            const IsCurrentFn& is_current) {
  std::vector<uint8_t> frame = net::EncodeRequest(request);
  for (;;) {
    bytes_sent_metric_->Add(frame.size());
    SPACETWIST_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                                transport_->RoundTrip(frame));
    bytes_received_metric_->Add(reply.size());
    Result<net::Response> response = net::DecodeResponse(reply);
    if (response.ok()) {
      if (is_current(*response)) return response;
      MarkStale();
    } else if (!response.status().IsCorruption()) {
      return response.status();
    }
    // A stale or corrupt frame arrived ahead of (or instead of) the reply:
    // listen for the next frame in flight rather than resending.
    if (budget->drained >= retry_.policy.max_attempts) {
      return Status::DeadlineExceeded("drain budget exhausted");
    }
    ++budget->drained;
    frame.clear();  // the empty frame is a listen
  }
}

void WireSession::CloseStranded(uint64_t session_id) {
  ++stats_.attempts;
  round_trips_metric_->Add();
  const std::vector<uint8_t> frame =
      net::EncodeRequest(net::CloseRequest{session_id});
  bytes_sent_metric_->Add(frame.size());
  const Result<std::vector<uint8_t>> reply = transport_->RoundTrip(frame);
  if (reply.ok()) bytes_received_metric_->Add(reply->size());
}

Status WireSession::OpenSession(Budget* budget) {
  telemetry::Trace::Span span =
      telemetry::Trace::SpanOn(retry_.trace, "wire.open");
  // One nonce names this logical Open, and every retry resends the same
  // request: the server answers a repeat with the session it already
  // opened, so any attempt's reply is this Open's.
  net::OpenRequest open;
  open.anchor = anchor_;
  open.epsilon = epsilon_;
  open.k = static_cast<uint32_t>(k_);
  open.nonce = rng_.Next();
  open.trace_id = trace_id_;
  open.sampled = sampled_;
  const auto is_current = [&open](const net::Response& response) {
    if (const auto* ok = std::get_if<net::OpenOk>(&response)) {
      return ok->nonce == open.nonce;
    }
    // Open errors carry no session id; an error echoing one is a stale
    // reply to some earlier request.
    if (const auto* error = std::get_if<net::ErrorReply>(&response)) {
      return error->session_id == 0;
    }
    return false;  // PacketReply/CloseOk
  };
  while (Tick(budget)) {
    Result<net::Response> response = Exchange(open, budget, is_current);
    if (!response.ok()) {
      if (TransportRetryable(response.status())) continue;
      return response.status();
    }
    if (auto* ok = std::get_if<net::OpenOk>(&*response)) {
      session_id_ = ok->session_id;
      open_packet_ = std::move(ok->packet);
      // The server's open and first-scan spans nest under wire.open.
      if (retry_.trace != nullptr) retry_.trace->Adopt(ok->server_spans);
      span.Note("attempts", budget->attempts);
      return Status::OK();
    }
    const Status status = net::ToStatus(std::get<net::ErrorReply>(*response));
    if (status.IsInvalidArgument() || status.IsResourceExhausted()) {
      return status;  // genuine rejection: bad params or backpressure
    }
    // Transient server-side condition: try again.
  }
  return Status::DeadlineExceeded("open retry budget exhausted");
}

Result<std::unique_ptr<WireSession>> WireSession::Open(
    net::FrameTransport* transport, const geom::Point& anchor, double epsilon,
    size_t k, const RetryConfig& retry) {
  if (transport == nullptr) {
    return Status::InvalidArgument("frame transport is null");
  }
  std::unique_ptr<WireSession> session(new WireSession(
      transport, /*owned=*/nullptr, retry, anchor, epsilon, k));
  Budget budget;
  SPACETWIST_RETURN_NOT_OK(session->OpenSession(&budget));
  return session;
}

Result<std::unique_ptr<WireSession>> WireSession::Open(
    net::FrameHandler* handler, const geom::Point& anchor, double epsilon,
    size_t k) {
  if (handler == nullptr) {
    return Status::InvalidArgument("frame handler is null");
  }
  auto owned = std::make_unique<net::DirectTransport>(handler);
  net::DirectTransport* transport = owned.get();
  std::unique_ptr<WireSession> session(new WireSession(
      transport, std::move(owned), RetryConfig(), anchor, epsilon, k));
  Budget budget;
  SPACETWIST_RETURN_NOT_OK(session->OpenSession(&budget));
  return session;
}

Result<net::Packet> WireSession::NextPacket() {
  if (closed_) return Status::Internal("session already closed");
  if (next_seq_ == 0) {
    // Packet 0 rode the OpenOk: no round trip.
    if (open_packet_.points.empty()) {
      return Status::Exhausted("stream dry at open");
    }
    ++next_seq_;
    return std::move(open_packet_);
  }
  telemetry::Trace::Span span =
      telemetry::Trace::SpanOn(retry_.trace, "wire.pull");
  span.Note("seq", next_seq_);
  Budget budget;
  size_t reopens = 0;
  // `cursor` is the sequence number we need from the *current* server
  // session. Normally cursor == next_seq_; after a re-open it restarts at
  // 1 and the replayed prefix (byte-identical, the stream is
  // deterministic) is discarded until the query's position is reached.
  uint64_t cursor = next_seq_;
  // Re-opens and accepted packets are progress and refill the attempt
  // budget; only consecutive failures spend it. After a disconnect the
  // old server session is still open, so it is closed once, best effort.
  const auto reopen = [this, &budget, &reopens,
                       &cursor](bool disconnected) -> Status {
    if (++reopens > retry_.policy.max_reopens) {
      return Status::DeadlineExceeded("re-open budget exhausted");
    }
    const uint64_t stranded = session_id_;
    SPACETWIST_RETURN_NOT_OK(OpenSession(&budget));
    ++stats_.reopens;
    reopens_metric_->Add();
    telemetry::Trace::EventOn(retry_.trace, "wire.reopen");
    budget.attempts = 0;
    if (disconnected) CloseStranded(stranded);
    // The new OpenOk's packet 0 is the first replayed packet, already
    // consumed; a deterministic stream cannot be dry there.
    if (std::exchange(open_packet_, {}).points.empty()) {
      return Status::Internal("server stream diverged during resume");
    }
    cursor = 1;
    return Status::OK();
  };
  const auto is_current = [this, &cursor](const net::Response& response) {
    if (const auto* packet = std::get_if<net::PacketReply>(&response)) {
      return packet->session_id == session_id_ && packet->seq == cursor;
    }
    if (const auto* error = std::get_if<net::ErrorReply>(&response)) {
      return error->session_id == session_id_;
    }
    return false;  // OpenOk/CloseOk
  };
  while (Tick(&budget)) {
    net::PullRequest pull{session_id_, cursor};
    pull.trace_id = trace_id_;
    pull.sampled = sampled_;
    Result<net::Response> response = Exchange(pull, &budget, is_current);
    if (!response.ok()) {
      const Status status = response.status();
      if (status.IsIoError()) {
        // Connection reset: the server session may be fine, but our link
        // epoch is gone. Open a fresh session and resume.
        SPACETWIST_RETURN_NOT_OK(reopen(/*disconnected=*/true));
        continue;
      }
      if (status.IsDeadlineExceeded()) continue;
      return status;
    }
    if (auto* packet = std::get_if<net::PacketReply>(&*response)) {
      if (cursor < next_seq_) {
        // Resume fast-forward: already-consumed prefix. Piggybacked spans
        // are dropped with it — their work was already traced the first
        // time the packet was served.
        ++cursor;
        budget.attempts = 0;
        continue;
      }
      // Merge the server's spans into the client trace, nested under the
      // wire.pull span (still open) that carried them.
      if (retry_.trace != nullptr) {
        retry_.trace->Adopt(packet->server_spans);
      }
      ++next_seq_;
      return std::move(packet->packet);
    }
    const Status status = net::ToStatus(std::get<net::ErrorReply>(*response));
    if (status.IsExhausted()) {
      if (cursor < next_seq_) {
        // A deterministic stream cannot end earlier on replay.
        return Status::Internal("server stream diverged during resume");
      }
      return status;  // genuine end of stream
    }
    if (status.IsNotFound()) {
      // Evicted server-side (e.g. idle past the TTL while the link was
      // down): re-open and resume.
      SPACETWIST_RETURN_NOT_OK(reopen(/*disconnected=*/false));
      continue;
    }
    if (status.IsInvalidArgument()) return status;  // protocol misuse
    // Transient server-side condition: try again.
  }
  return Status::DeadlineExceeded("pull retry budget exhausted");
}

Status WireSession::Close() {
  if (closed_) return Status::Internal("session already closed");
  telemetry::Trace::Span span =
      telemetry::Trace::SpanOn(retry_.trace, "wire.close");
  Budget budget;
  const auto is_current = [this](const net::Response& response) {
    if (const auto* ok = std::get_if<net::CloseOk>(&response)) {
      return ok->session_id == session_id_;
    }
    if (const auto* error = std::get_if<net::ErrorReply>(&response)) {
      return error->session_id == session_id_;
    }
    return false;  // OpenOk/PacketReply
  };
  while (Tick(&budget)) {
    Result<net::Response> response =
        Exchange(net::CloseRequest{session_id_}, &budget, is_current);
    if (!response.ok()) {
      if (TransportRetryable(response.status())) continue;
      return response.status();
    }
    if (const auto* ok = std::get_if<net::CloseOk>(&*response)) {
      if (retry_.trace != nullptr) {
        retry_.trace->Adopt(ok->server_spans);
      }
      closed_ = true;
      return Status::OK();
    }
    const Status status = net::ToStatus(std::get<net::ErrorReply>(*response));
    if (status.IsNotFound()) {
      // At-least-once close: an earlier attempt landed (its reply was
      // lost) or the server already evicted the session.
      closed_ = true;
      return Status::OK();
    }
    if (status.IsInvalidArgument()) return status;
  }
  return Status::DeadlineExceeded("close retry budget exhausted");
}

Result<core::QueryOutcome> RemoteQuery(net::FrameHandler* handler,
                                       const geom::Point& q,
                                       const geom::Point& anchor,
                                       const core::QueryParams& params) {
  SPACETWIST_RETURN_NOT_OK(
      core::ValidateQueryParameters(anchor, params.epsilon, params.k));
  SPACETWIST_ASSIGN_OR_RETURN(
      std::unique_ptr<WireSession> session,
      WireSession::Open(handler, anchor, params.epsilon, params.k));
  Result<core::QueryOutcome> outcome = core::RunTerminationLoop(
      q, anchor, params.k, params.packet.Capacity(), session.get());
  // Release the server-side session even when the loop failed; a Close
  // error on the success path is surfaced (it means the server lost state).
  const Status close_status = session->Close();
  if (!outcome.ok()) return outcome.status();
  SPACETWIST_RETURN_NOT_OK(close_status);
  return outcome;
}

Result<core::QueryOutcome> RemoteQuery(net::FrameTransport* transport,
                                       const geom::Point& q,
                                       const geom::Point& anchor,
                                       const core::QueryParams& params,
                                       const RetryConfig& retry,
                                       RetryStats* stats) {
  SPACETWIST_RETURN_NOT_OK(
      core::ValidateQueryParameters(anchor, params.epsilon, params.k));
  SPACETWIST_ASSIGN_OR_RETURN(
      std::unique_ptr<WireSession> session,
      WireSession::Open(transport, anchor, params.epsilon, params.k, retry));
  Result<core::QueryOutcome> outcome = core::RunTerminationLoop(
      q, anchor, params.k, params.packet.Capacity(), session.get());
  // Best-effort close: once the result is complete, a dying link must not
  // fail the query — an unclosed server session is reclaimed by idle-TTL
  // eviction, exactly like a handset that lost coverage.
  (void)session->Close();
  if (stats != nullptr) *stats += session->retry_stats();
  if (!outcome.ok()) return outcome.status();
  return outcome;
}

}  // namespace spacetwist::service
