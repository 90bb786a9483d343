#ifndef SPACETWIST_SERVICE_SERVICE_ENGINE_H_
#define SPACETWIST_SERVICE_SERVICE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "geom/point.h"
#include "net/channel.h"
#include "net/packet.h"
#include "net/wire.h"
#include "server/granular_inn.h"
#include "server/inn_backend.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_sink.h"

namespace spacetwist::service {

/// Tuning knobs for ServiceEngine. Defaults suit tests; benchmarks size
/// shards/caps to the offered load.
struct ServiceOptions {
  /// Session-table stripes; each stripe has its own mutex + map, so up to
  /// `num_shards` sessions make progress concurrently.
  size_t num_shards = 8;
  /// Global cap across all shards; Open beyond it is rejected with
  /// kResourceExhausted (backpressure, not an internal error).
  size_t max_sessions = 1024;
  /// Sessions idle longer than this are evicted (their transport counters
  /// are still absorbed into the net.channel.* instruments). 0 disables
  /// idle eviction.
  uint64_t idle_ttl_ns = 0;
  server::GranularOptions granular;
  /// Monotonic nanosecond clock; inject a telemetry::VirtualClock so tests
  /// drive TTL eviction deterministically. Null = the process-wide real
  /// clock. Must be safe to call from any thread.
  telemetry::Clock* clock = nullptr;
  /// Metric registry receiving the engine's service.engine.* and
  /// net.channel.* instruments (null = the process-wide default). Also
  /// propagated to the granular streams when `granular.registry` is null,
  /// so one injected registry captures the whole serving stack.
  telemetry::MetricRegistry* registry = nullptr;
  /// Server-side collector of sampled sessions' span lists (one TraceRecord
  /// per session, offered when it retires via close, eviction, or engine
  /// destruction). Null disables server-side retention; span piggybacking
  /// to the client is independent of it. Must outlive the engine.
  telemetry::TraceSink* trace_sink = nullptr;
};

/// Concurrent multi-client serving engine: the thread-safe front end that
/// turns the single-query library (LbsServer + GranularInnStream +
/// PacketChannel) into something a fleet of clients can hit in parallel.
///
///  * Sessions live in a shard-striped table (`num_shards` stripes, each its
///    own mutex + id -> Session map); a request locks exactly one stripe.
///  * A global atomic session count enforces `max_sessions`; overload is
///    surfaced as kResourceExhausted so clients can back off.
///  * Idle sessions (no Pull/Close for `idle_ttl_ns`) are swept on the Open
///    path and via EvictIdle(); their counters are absorbed, so abandoned
///    clients cannot leak server memory or statistics.
///  * A request frame is the only way in: HandleFrame() decodes it, runs
///    the one handler for its type, and encodes the response frame — the
///    engine is a net::FrameHandler, i.e. a drop-in in-process "server
///    socket". Every count it keeps is a registry instrument
///    (service.engine.*, net.channel.*; docs/OBSERVABILITY.md).
///  * A wire Open is one round trip and idempotent per query: its OpenOk
///    carries packet 0, and a byte-identical repeat of a live session's
///    OpenRequest (a retry after a lost reply, a duplicated frame) gets
///    that session's OpenOk again instead of a second session. The repeat
///    index lives in the stripe the request hashes to, and the session id
///    encodes that stripe, so the final lookup and the publish share one
///    critical section of that stripe's lock.
///
/// Requires the backend's R-tree(s) to be built with
/// RTreeOptions::concurrent_reads so concurrent traversals are safe.
///
/// The engine serves whatever server::InnBackend it is given: a single
/// LbsServer, or a shard::ShardRouter fronting a Hilbert-partitioned fleet
/// — sessions, backpressure, replay, and tracing are identical either way.
class ServiceEngine : public net::FrameHandler {
 public:
  /// Borrows `backend`, which must outlive the engine.
  ServiceEngine(server::InnBackend* backend,
                const ServiceOptions& options = ServiceOptions());

  ~ServiceEngine() override;

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Wire-level entry point: one request frame in, one response frame out.
  /// Malformed frames yield an encoded kError response (never a crash).
  ///
  /// An OpenRequest opens a granular INN session (epsilon == 0 gives exact
  /// INN) and answers with its packet 0, unless it repeats the Open of a
  /// live session: then it gets that session's OpenOk again while the
  /// session has served only packet 0, and a kOutOfRange ErrorReply
  /// echoing the session id once it is past (a stale duplicate). An Open
  /// with k < 1, a negative epsilon, or an anchor coordinate or epsilon
  /// that is NaN or beyond float32's range (every coordinate here is
  /// float32) is kInvalidArgument; one that finds `max_sessions` sessions
  /// live and none evictable is kResourceExhausted.
  ///
  /// A PullRequest's `seq` is the 0-based packet number the client wants:
  /// `seq == packets served` advances the stream, asking for the packet
  /// most recently served replays it from the session's one-packet cache
  /// (the idempotent retry of a client whose reply was lost), and anything
  /// else is outside the replay window, kInvalidArgument. A dry stream is
  /// kExhausted; an unknown, closed or evicted session is kNotFound.
  ///
  /// A CloseRequest is not idempotent: a second Close (or a Close after
  /// eviction) is kNotFound, so misbehaving clients are surfaced.
  ///
  /// Safe to call from many threads.
  std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) override;

  /// Dispatch + encode for an already-decoded request — exactly the body of
  /// HandleFrame after decode, so any front end that does its own framing
  /// (each engine::EventEngine worker decodes the frame it polled, then
  /// dispatches here) produces byte-identical response frames to the
  /// thread-per-pull path by construction. Safe to call from many threads.
  std::vector<uint8_t> HandleDecoded(const net::Request& request);

  /// Sweeps every shard for idle sessions now; returns how many it evicted.
  size_t EvictIdle();

  /// Live sessions: the count that enforces `max_sessions`.
  size_t open_sessions() const {
    return open_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    std::unique_ptr<server::InnSource> stream;
    std::unique_ptr<net::PacketChannel> channel;
    uint64_t last_touch_ns = 0;
    /// Sequenced-pull state: `next_seq` packets have been served so far;
    /// the most recent one is cached for idempotent retries.
    uint64_t next_seq = 0;
    bool has_cached = false;
    net::Packet cached;
    /// Distributed-trace state (wire v3): the trace the session belongs to
    /// (from the last sampled request), spans awaiting piggyback on the
    /// next successful reply, and the full session span list offered to
    /// ServiceOptions::trace_sink when the session retires.
    uint64_t trace_id = 0;
    bool sampled = false;
    std::vector<telemetry::SpanRecord> pending_spans;
    std::vector<telemetry::SpanRecord> sink_spans;
    /// Key of the Open that created the session, indexed in its stripe's
    /// `opens`.
    std::string open_key;
  };

  struct Shard {
    // Rank: held across a session's stream advance and retirement, so page
    // fetches, trace-sink offers and a shard router's fan-out log all nest
    // inside it.
    Mutex mu ACQUIRED_AFTER(lock_order::kEngineFront)
        ACQUIRED_BEFORE(lock_order::kRouterFanout){
            LockRank::kEngineFront, "service.engine.front_stripe"};
    std::unordered_map<uint64_t, Session> sessions GUARDED_BY(mu);
    /// Repeat index: the key of each live session in this stripe — its
    /// OpenRequest's canonical frame, so keys match exactly when the
    /// requests are byte-identical on the wire — to its id.
    std::unordered_map<std::string, uint64_t> opens GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t session_id) {
    return shards_[session_id % shards_.size()];
  }

  uint64_t NowNs() const { return clock_->NowNs(); }

  /// A fresh session id in stripe `stripe`: ids are n * stripes + stripe,
  /// so ShardFor(id) finds the stripe the id was minted for.
  uint64_t NewId(size_t stripe);

  /// Claims one of the `max_sessions` slots, evicting idle sessions once
  /// before giving up with kResourceExhausted.
  Status ClaimSlot();

  /// A session streaming the granular INN of (anchor, epsilon, k); the
  /// caller has validated the parameters and claimed its slot.
  Session NewSession(const geom::Point& anchor, double epsilon, size_t k);

  /// Sweeps the stripe, then files `session` under `id` (and its Open key
  /// in the repeat index) and counts it as opened.
  void PublishLocked(Shard* shard, uint64_t id, Session session)
      REQUIRES(shard->mu);

  /// Body of HandleDecoded for an OpenRequest (see HandleFrame).
  std::vector<uint8_t> HandleOpen(const net::OpenRequest& open);

  /// The repeat rule for `open`, whose key names the live session `id` of
  /// `shard`: that session's OpenOk again, with packet 0 from the replay
  /// cache, or the stale-duplicate ErrorReply once it is past packet 0.
  std::vector<uint8_t> RepeatOpenLocked(Shard* shard, uint64_t id,
                                        const net::OpenRequest& open)
      REQUIRES(shard->mu);

  /// Body of HandleDecoded for a PullRequest (see HandleFrame). A sampled
  /// pull records its dispatch, the stream advance (as a
  /// "server.granular.scan" span with page fetches nested inside) or a
  /// replay (as a "server.replay" event), and ships the session's pending
  /// spans with this request's on the reply.
  std::vector<uint8_t> HandlePull(const net::PullRequest& pull);

  /// Serves the session's next packet from its stream and caches it for
  /// replays, tracing the scan on a non-null `trace`. The caller owns the
  /// session: it holds the session's stripe lock, or the session is not
  /// published yet.
  Result<net::Packet> Advance(Session* session, telemetry::Trace* trace);

  /// Body of HandleDecoded for a CloseRequest (see HandleFrame); a sampled
  /// session's close is traced and its final shippable spans ride the
  /// CloseOk.
  std::vector<uint8_t> HandleClose(const net::CloseRequest& close);

  /// Retires a session (close, eviction or engine destruction): adds its
  /// transport counters to the net.channel.* instruments, offers a sampled
  /// session's span list to the trace sink, and drops it from the stripe
  /// and its repeat index. Returns the iterator past it.
  std::unordered_map<uint64_t, Session>::iterator RetireLocked(
      Shard* shard, std::unordered_map<uint64_t, Session>::iterator it)
      REQUIRES(shard->mu);

  /// Evicts expired sessions of one shard; caller holds `shard->mu`.
  size_t SweepShardLocked(Shard* shard, uint64_t now_ns) REQUIRES(shard->mu);

  /// Encodes `status` as a kError response frame; `session_id` names the
  /// session the failed request was about (0 when it never named one).
  static std::vector<uint8_t> EncodeErrorFrame(const Status& status,
                                               uint64_t session_id = 0);

  server::InnBackend* backend_;
  ServiceOptions options_;
  telemetry::Clock* clock_;
  /// deque, not vector: Shard is immovable (its Mutex pins a rank and a
  /// name), and deque::emplace_back constructs stripes in place.
  std::deque<Shard> shards_;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> open_count_{0};

  /// The engine's instruments (docs/OBSERVABILITY.md): request and session
  /// lifecycle counters, the gauge of live sessions, the histogram of
  /// per-stripe session counts sampled at each Open, and the transport
  /// counters of retired sessions. Resolved once in the constructor.
  struct Instruments {
    telemetry::Counter* open_requests;
    telemetry::Counter* pull_requests;
    telemetry::Counter* pulls_replayed;
    telemetry::Counter* close_requests;
    telemetry::Counter* decode_errors;
    telemetry::Counter* sessions_opened;
    telemetry::Counter* sessions_closed;
    telemetry::Counter* sessions_evicted;
    telemetry::Counter* sessions_rejected;
    telemetry::Gauge* open_sessions;
    telemetry::Histogram* shard_sessions;
    telemetry::Counter* downlink_packets;
    telemetry::Counter* downlink_points;
    telemetry::Counter* uplink_packets;
    telemetry::Counter* downlink_bytes;
    telemetry::Counter* uplink_bytes;
  };
  Instruments instruments_;
};

}  // namespace spacetwist::service

#endif  // SPACETWIST_SERVICE_SERVICE_ENGINE_H_
