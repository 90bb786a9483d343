#ifndef SPACETWIST_SERVICE_WIRE_CLIENT_H_
#define SPACETWIST_SERVICE_WIRE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/spacetwist_client.h"
#include "geom/point.h"
#include "net/channel.h"
#include "net/packet.h"
#include "net/wire.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace spacetwist::service {

/// Bounded exponential backoff with jitter, the mobile client's answer to
/// a flaky link. All durations are virtual: the session only *accounts*
/// backoff (RetryStats::backoff_ns) and invokes the optional sleep hook —
/// no wall clock is read, so tests and benches stay deterministic.
struct RetryPolicy {
  /// Consecutive failed round trips allowed per logical operation (one
  /// NextPacket, one Close, one Open); accepted progress — a packet
  /// consumed, a session re-opened — resets the count, so resuming a long
  /// stream is never starved by its own length. Also caps the stale or
  /// corrupt frames one operation drains by listening.
  size_t max_attempts = 16;
  /// Session re-opens allowed within one NextPacket call before the
  /// operation gives up with kDeadlineExceeded.
  size_t max_reopens = 4;
  uint64_t base_backoff_ns = 2'000'000;   ///< 2 ms before the first retry
  uint64_t max_backoff_ns = 128'000'000;  ///< backoff ceiling
  /// Jitter fraction in [0, 1]: each backoff is scaled by a uniform factor
  /// in [1 - jitter/2, 1 + jitter/2] drawn from the session's Rng.
  double jitter = 0.5;
};

/// Retry behaviour of one WireSession.
struct RetryConfig {
  RetryPolicy policy;
  /// Seeds the session's private Rng (backoff jitter + Open nonces);
  /// deterministic replays need only this seed and the transport's.
  uint64_t seed = 0x5EED;
  /// Invoked with each backoff duration; wire it to a real sleep in a
  /// deployment, leave empty in tests (virtual time only).
  std::function<void(uint64_t ns)> sleep;
  /// Metric registry receiving the session's client.wire.* counters
  /// (null = the process-wide default).
  telemetry::MetricRegistry* registry = nullptr;
  /// Optional per-query trace: the session records open/pull/close spans
  /// and backoff/reopen/stale events on it. Null disables tracing. The
  /// trace is borrowed and must outlive the session.
  ///
  /// With a trace attached the session also propagates a distributed-trace
  /// context over the wire (wire v3 `sampled` flag): the server records its
  /// own spans and piggybacks them on replies, and the session merges them
  /// into `trace` (nested under the wire.open/wire.pull/wire.close span
  /// that carried them) — one trace tree spanning both tiers.
  telemetry::Trace* trace = nullptr;
  /// 64-bit id identifying the query's trace across tiers; used only with
  /// `trace` attached. 0 (the default) derives one deterministically from
  /// `seed` — distinct from everything the session's Rng produces, so
  /// existing nonce/jitter streams are unchanged. Unsampled requests carry
  /// trace id 0, which links no two queries.
  uint64_t trace_id = 0;
};

/// What resilience cost: retransmissions, stale frames discarded, session
/// re-opens, and total (virtual) backoff.
struct RetryStats {
  uint64_t attempts = 0;       ///< round trips issued (listens excluded)
  uint64_t retries = 0;        ///< round trips beyond the first of each op
  uint64_t reopens = 0;        ///< sessions re-opened (disconnect/eviction)
  uint64_t stale_replies = 0;  ///< frames rejected by nonce/session/seq echo
  uint64_t backoff_ns = 0;     ///< virtual backoff accumulated

  RetryStats& operator+=(const RetryStats& other) {
    attempts += other.attempts;
    retries += other.retries;
    reopens += other.reopens;
    stale_replies += other.stale_replies;
    backoff_ns += other.backoff_ns;
    return *this;
  }
};

/// Client half of the wire protocol: one logical server session reached
/// only through encoded frames, surviving a lossy link. Implements
/// net::PacketTransport, so the real SpaceTwist termination logic
/// (core::RunTerminationLoop) runs over it unchanged — what a handset
/// would execute against a remote deployment over a cellular link.
///
/// Resilience semantics (docs/SERVICE.md §5):
///  * A stale frame (wrong nonce/session/seq echo) or a corrupt one
///    (kCorruption from the codec checksum) is discarded and the session
///    listens for the next frame in flight instead of resending: at most
///    RetryPolicy::max_attempts such drains per operation, none charged.
///  * Every operation retries transport timeouts (kDeadlineExceeded,
///    including a listen that found nothing), disconnects, and transient
///    server errors, with bounded exponential backoff + jitter.
///  * NextPacket pulls by explicit sequence number; a retry after a lost
///    reply replays the same packet from the server's cache, so no data is
///    skipped and no packet is double-counted.
///  * Open is one round trip: the OpenOk carries packet 0, which the first
///    NextPacket returns without touching the link. Every retry of one
///    Open resends the same request (one nonce per logical Open), and the
///    server answers a repeat with the session it already opened, so a
///    lost or duplicated OpenOk never strands a server session.
///  * A disconnect (kIoError) or server-side eviction (kNotFound) triggers
///    a clean re-open: a fresh session for the same anchor is opened
///    (with a new nonce) and fast-forwarded to the current sequence number
///    — its OpenOk's packet 0 is the first replayed packet, and pulls
///    resume at seq 1 (the granular stream is deterministic, so the
///    replayed prefix is byte-identical and is discarded). The query then
///    resumes exactly where it stopped. After a disconnect the abandoned
///    server session is closed, best effort.
///  * When the retry budget runs out the operation fails with
///    kDeadlineExceeded; genuine server rejections (kInvalidArgument,
///    kResourceExhausted) and end-of-stream (kExhausted) pass through.
class WireSession : public net::PacketTransport {
 public:
  /// Opens a session over an arbitrary (possibly faulty) transport.
  /// `transport` is borrowed and must outlive the session.
  static Result<std::unique_ptr<WireSession>> Open(
      net::FrameTransport* transport, const geom::Point& anchor,
      double epsilon, size_t k, const RetryConfig& retry = RetryConfig());

  /// Convenience for the perfect in-process link: wraps `handler` in an
  /// owned DirectTransport. `handler` is borrowed and must outlive the
  /// session.
  static Result<std::unique_ptr<WireSession>> Open(net::FrameHandler* handler,
                                                   const geom::Point& anchor,
                                                   double epsilon, size_t k);

  /// Next downlink packet (retrying/resuming as needed); kExhausted once
  /// the server stream is dry.
  Result<net::Packet> NextPacket() override;

  /// Closes the session, at-least-once: a kNotFound reply is treated as
  /// success (an earlier attempt landed, or the server already evicted the
  /// session — either way nothing is left to close).
  Status Close();

  uint64_t session_id() const { return session_id_; }
  uint64_t next_seq() const { return next_seq_; }
  bool closed() const { return closed_; }
  const RetryStats& retry_stats() const { return stats_; }
  /// The distributed-trace id this session stamps on its requests; 0
  /// unless a trace is attached.
  uint64_t trace_id() const { return trace_id_; }

 private:
  /// Per-operation retry budget.
  struct Budget {
    size_t attempts = 0;
    /// Frames listened for after a stale or corrupt one; capped at
    /// RetryPolicy::max_attempts per operation.
    size_t drained = 0;
  };

  /// True for a reply that answers the operation in progress (echoes its
  /// nonce, session, or sequence number); anything else is stale.
  using IsCurrentFn = std::function<bool(const net::Response&)>;

  WireSession(net::FrameTransport* transport,
              std::unique_ptr<net::DirectTransport> owned,
              const RetryConfig& retry, const geom::Point& anchor,
              double epsilon, size_t k);

  /// Admits one more attempt (applying backoff before retries); false once
  /// the budget is spent.
  bool Tick(Budget* budget);

  /// Sends `request` once, then drains: each stale or corrupt frame read
  /// is discarded and followed by a listen (an empty frame, see
  /// net::FrameTransport), never by a resend, so stragglers cost no
  /// attempt and no backoff. Returns the first current reply, or the
  /// transport's Status — kDeadlineExceeded when a listen finds nothing in
  /// flight or the drain budget is spent.
  Result<net::Response> Exchange(const net::Request& request, Budget* budget,
                                 const IsCurrentFn& is_current);

  /// One best-effort, unretried CloseRequest for the session a disconnect
  /// stranded (counted as a round trip). Whatever comes back is ignored;
  /// a late reply is drained as stale by a later exchange.
  void CloseStranded(uint64_t session_id);

  /// (Re-)opens a server session for the anchor, drawing on `budget`:
  /// one nonce per call, resent unchanged on every retry. Sets session_id_
  /// and open_packet_ on success.
  Status OpenSession(Budget* budget);

  /// Counts one stale reply (local stats + registry mirror).
  void MarkStale() {
    ++stats_.stale_replies;
    stale_replies_metric_->Add();
    telemetry::Trace::EventOn(retry_.trace, "wire.stale");
  }

  net::FrameTransport* transport_;
  std::unique_ptr<net::DirectTransport> owned_transport_;
  RetryConfig retry_;
  Rng rng_;

  /// Registry mirrors of RetryStats plus wire volume, aggregated across
  /// sessions.
  telemetry::Counter* round_trips_metric_;
  telemetry::Counter* retries_metric_;
  telemetry::Counter* reopens_metric_;
  telemetry::Counter* stale_replies_metric_;
  telemetry::Counter* backoff_ns_metric_;
  telemetry::Counter* bytes_sent_metric_;
  telemetry::Counter* bytes_received_metric_;

  geom::Point anchor_;  ///< kept for re-opens after disconnects
  double epsilon_;
  size_t k_;

  uint64_t session_id_ = 0;
  uint64_t next_seq_ = 0;  ///< packets consumed so far
  net::Packet open_packet_;  ///< packet 0 from the last OpenOk
  bool closed_ = false;
  RetryStats stats_;
  uint64_t trace_id_ = 0;
  bool sampled_ = false;  ///< trace context goes on the wire iff tracing
};

/// Runs one SpaceTwist query end-to-end over the wire codec: validates
/// params exactly like SpaceTwistClient::Query, opens a wire session for
/// the anchor, runs Algorithm 1's termination loop over Pull frames, and
/// closes the session. Same seeds and anchors give byte-identical outcomes
/// to the in-process path.
Result<core::QueryOutcome> RemoteQuery(net::FrameHandler* handler,
                                       const geom::Point& q,
                                       const geom::Point& anchor,
                                       const core::QueryParams& params);

/// The fault-tolerant form: the same query over an arbitrary transport
/// with retry/resume. Close is best-effort here — if the link dies after
/// the result is complete, the result is still returned and the abandoned
/// server session is left to idle-TTL eviction. On success the outcome is
/// byte-identical to the fault-free path; `stats` (optional) accumulates
/// what the faults cost.
Result<core::QueryOutcome> RemoteQuery(net::FrameTransport* transport,
                                       const geom::Point& q,
                                       const geom::Point& anchor,
                                       const core::QueryParams& params,
                                       const RetryConfig& retry = RetryConfig(),
                                       RetryStats* stats = nullptr);

}  // namespace spacetwist::service

#endif  // SPACETWIST_SERVICE_WIRE_CLIENT_H_
