#include "service/service_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/strings.h"

namespace spacetwist::service {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// Cap on the span copy a session keeps for the trace sink — well above
/// anything a β=67 stream produces, but bounded so a never-closing sampled
/// session cannot grow without limit.
constexpr size_t kMaxSinkSpansPerSession = 1024;

void AppendSpans(std::vector<telemetry::SpanRecord>* dst,
                 const std::vector<telemetry::SpanRecord>& src, size_t cap) {
  for (const telemetry::SpanRecord& span : src) {
    if (dst->size() >= cap) break;
    dst->push_back(span);
  }
}

/// kInvalidArgument for k < 1, a negative epsilon, or an anchor coordinate
/// or epsilon that is NaN or beyond float32's range.
Status ValidateOpen(const geom::Point& anchor, double epsilon, size_t k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  // Written so NaN fails too. Past FLT_MAX the kernel's float32 cell
  // boundaries overflow, and its scan never ends.
  const auto in_float_range = [](double v) {
    return std::fabs(v) <= std::numeric_limits<float>::max();
  };
  if (!in_float_range(anchor.x) || !in_float_range(anchor.y)) {
    return Status::InvalidArgument("anchor must be finite float32");
  }
  if (!in_float_range(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be finite float32 and >= 0");
  }
  return Status::OK();
}

}  // namespace

ServiceEngine::ServiceEngine(server::InnBackend* backend,
                             const ServiceOptions& options)
    : backend_(backend),
      options_(options),
      clock_(telemetry::OrDefault(options.clock)) {
  SPACETWIST_CHECK(backend != nullptr);
  SPACETWIST_CHECK(options_.max_sessions >= 1);
  const size_t num_shards = std::max<size_t>(1, options_.num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.emplace_back();
  }
  telemetry::MetricRegistry* r =
      telemetry::MetricRegistry::OrDefault(options_.registry);
  // One injected registry observes the whole stack: the engine hands its
  // registry down to the per-session granular streams.
  if (options_.granular.registry == nullptr) options_.granular.registry = r;
  instruments_.open_requests = r->GetCounter("service.engine.open_requests");
  instruments_.pull_requests = r->GetCounter("service.engine.pull_requests");
  instruments_.pulls_replayed = r->GetCounter("service.engine.pulls_replayed");
  instruments_.close_requests = r->GetCounter("service.engine.close_requests");
  instruments_.decode_errors = r->GetCounter("service.engine.decode_errors");
  instruments_.sessions_opened =
      r->GetCounter("service.engine.sessions_opened");
  instruments_.sessions_closed =
      r->GetCounter("service.engine.sessions_closed");
  instruments_.sessions_evicted =
      r->GetCounter("service.engine.sessions_evicted");
  instruments_.sessions_rejected =
      r->GetCounter("service.engine.sessions_rejected");
  instruments_.open_sessions = r->GetGauge("service.engine.open_sessions");
  instruments_.shard_sessions =
      r->GetHistogram("service.engine.shard_sessions");
  instruments_.downlink_packets = r->GetCounter("net.channel.downlink_packets");
  instruments_.downlink_points = r->GetCounter("net.channel.downlink_points");
  instruments_.uplink_packets = r->GetCounter("net.channel.uplink_packets");
  instruments_.downlink_bytes = r->GetCounter("net.channel.downlink_bytes");
  instruments_.uplink_bytes = r->GetCounter("net.channel.uplink_bytes");
}

ServiceEngine::~ServiceEngine() {
  // Retire whatever is still live so final metrics() reads (taken after the
  // engine quiesces but before destruction) and the abandoned-session
  // accounting contract both hold for users who snapshot via EvictIdle.
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      it = RetireLocked(&shard, it);
    }
  }
}

uint64_t ServiceEngine::NewId(size_t stripe) {
  return next_id_.fetch_add(1, kRelaxed) * shards_.size() + stripe;
}

Status ServiceEngine::ClaimSlot() {
  // Claim a slot optimistically; on overload try to reclaim idle sessions
  // once before telling the client to back off.
  const auto try_claim = [this] {
    if (open_count_.fetch_add(1, kRelaxed) < options_.max_sessions) {
      return true;
    }
    open_count_.fetch_sub(1, kRelaxed);
    return false;
  };
  if (!try_claim() && (EvictIdle() == 0 || !try_claim())) {
    counters_.sessions_rejected.fetch_add(1, kRelaxed);
    instruments_.sessions_rejected->Add();
    return Status::ResourceExhausted(
        StrFormat("session limit (%zu) reached", options_.max_sessions));
  }
  return Status::OK();
}

ServiceEngine::Session ServiceEngine::NewSession(const geom::Point& anchor,
                                                 double epsilon, size_t k) {
  Session session;
  session.stream =
      backend_->OpenInnSource(anchor, epsilon, k, options_.granular);
  session.channel = std::make_unique<net::PacketChannel>(session.stream.get(),
                                                         options_.packet);
  return session;
}

void ServiceEngine::PublishLocked(Shard* shard, uint64_t id, Session session) {
  const uint64_t now = NowNs();
  // Piggyback idle reclamation on the write path so a pull-only workload
  // elsewhere cannot pin this shard's abandoned sessions forever.
  SweepShardLocked(shard, now);
  session.last_touch_ns = now;
  if (!session.open_key.empty()) shard->opens.emplace(session.open_key, id);
  shard->sessions.emplace(id, std::move(session));
  instruments_.shard_sessions->Record(shard->sessions.size());
  counters_.sessions_opened.fetch_add(1, kRelaxed);
  instruments_.sessions_opened->Add();
  instruments_.open_sessions->Add(1);
}

Result<uint64_t> ServiceEngine::Open(const geom::Point& anchor, double epsilon,
                                     size_t k) {
  counters_.open_requests.fetch_add(1, kRelaxed);
  instruments_.open_requests->Add();
  SPACETWIST_RETURN_NOT_OK(ValidateOpen(anchor, epsilon, k));
  SPACETWIST_RETURN_NOT_OK(ClaimSlot());
  Session session = NewSession(anchor, epsilon, k);
  // A typed session has no Open key, so any stripe will do: spread them.
  const uint64_t id = NewId(next_id_.load(kRelaxed) % shards_.size());
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  PublishLocked(&shard, id, std::move(session));
  return id;
}

std::vector<uint8_t> ServiceEngine::HandleOpen(const net::OpenRequest& open) {
  counters_.open_requests.fetch_add(1, kRelaxed);
  instruments_.open_requests->Add();
  const Status valid = ValidateOpen(open.anchor, open.epsilon, open.k);
  if (!valid.ok()) return EncodeErrorFrame(valid);
  const std::vector<uint8_t> frame = net::EncodeRequest(open);
  std::string key(frame.begin(), frame.end());
  const size_t stripe = std::hash<std::string>{}(key) % shards_.size();
  Shard& shard = shards_[stripe];
  {
    MutexLock lock(&shard.mu);
    const auto it = shard.opens.find(key);
    if (it != shard.opens.end()) {
      return RepeatOpenLocked(&shard, it->second, open);
    }
  }

  // A new session. Nothing else can see it until it is published, so its
  // first pull runs outside any stripe lock.
  std::optional<telemetry::Trace> trace;
  if (open.sampled) {
    trace.emplace(clock_);
    trace->set_trace_id(open.trace_id);
  }
  telemetry::Trace* traced = trace ? &*trace : nullptr;
  Session session;
  Result<net::Packet> first = [&]() -> Result<net::Packet> {
    telemetry::Trace::Span dispatch =
        telemetry::Trace::SpanOn(traced, "server.dispatch");
    telemetry::Trace::Span open_span =
        telemetry::Trace::SpanOn(traced, "server.open");
    SPACETWIST_RETURN_NOT_OK(ClaimSlot());
    session = NewSession(open.anchor, open.epsilon, open.k);
    Result<net::Packet> packet = Advance(&session, traced);
    if (packet.ok()) return packet;
    if (!packet.status().IsExhausted()) {
      open_count_.fetch_sub(1, kRelaxed);  // no session is kept
      return packet.status();
    }
    // Dry at open: packet 0 is empty, and is replayed like any other.
    session.has_cached = true;
    session.next_seq = 1;
    return net::Packet{};
  }();
  if (!first.ok()) return EncodeErrorFrame(first.status());
  session.open_key = std::move(key);
  if (traced != nullptr) {
    session.trace_id = open.trace_id;
    session.sampled = true;
    AppendSpans(&session.sink_spans, traced->records(),
                kMaxSinkSpansPerSession);
  }
  uint64_t id = 0;
  {
    MutexLock lock(&shard.mu);
    const auto it = shard.opens.find(session.open_key);
    if (it != shard.opens.end()) {
      // An identical Open won the race: answer with its session. Ours
      // frees its slot here and its stream on return; the bytes are the
      // same, as the stream is deterministic.
      open_count_.fetch_sub(1, kRelaxed);
      return RepeatOpenLocked(&shard, it->second, open);
    }
    id = NewId(stripe);
    PublishLocked(&shard, id, std::move(session));
  }
  net::OpenOk reply{id, open.nonce, first.MoveValueOrDie(), {}};
  if (traced != nullptr) {
    AppendSpans(&reply.server_spans, traced->records(),
                net::kMaxWireSpansPerFrame);
  }
  return net::EncodeResponse(reply);
}

std::vector<uint8_t> ServiceEngine::RepeatOpenLocked(
    Shard* shard, uint64_t id, const net::OpenRequest& open) {
  Session& session = shard->sessions.at(id);
  if (session.next_seq != 1) {
    return EncodeErrorFrame(
        Status::OutOfRange(StrFormat(
            "stale duplicate Open: session %llu is past packet 0",
            static_cast<unsigned long long>(id))),
        id);
  }
  session.last_touch_ns = NowNs();
  net::OpenOk reply{id, open.nonce, session.cached, {}};
  if (open.sampled) {
    telemetry::Trace trace(clock_);
    trace.set_trace_id(open.trace_id);
    {
      telemetry::Trace::Span dispatch = trace.StartSpan("server.dispatch");
      telemetry::Trace::Span open_span = trace.StartSpan("server.open");
      trace.Event("server.replay", 0);
    }
    AppendSpans(&session.sink_spans, trace.records(), kMaxSinkSpansPerSession);
    reply.server_spans = trace.records();
  }
  return net::EncodeResponse(reply);
}

Result<net::Packet> ServiceEngine::Pull(uint64_t session_id) {
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    counters_.pull_requests.fetch_add(1, kRelaxed);
    instruments_.pull_requests->Add();
    return Status::NotFound(StrFormat(
        "session %llu", static_cast<unsigned long long>(session_id)));
  }
  return PullLocked(&shard, &it->second, it->second.next_seq, nullptr);
}

Result<net::Packet> ServiceEngine::Pull(uint64_t session_id, uint64_t seq) {
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    counters_.pull_requests.fetch_add(1, kRelaxed);
    instruments_.pull_requests->Add();
    return Status::NotFound(StrFormat(
        "session %llu", static_cast<unsigned long long>(session_id)));
  }
  return PullLocked(&shard, &it->second, seq, nullptr);
}

Result<net::Packet> ServiceEngine::PullLocked(Shard* /*shard*/, Session* session,
                                              uint64_t seq,
                                              telemetry::Trace* trace) {
  counters_.pull_requests.fetch_add(1, kRelaxed);
  instruments_.pull_requests->Add();
  session->last_touch_ns = NowNs();
  if (session->has_cached && seq + 1 == session->next_seq) {
    // Idempotent retry: the client never saw the reply to its last pull.
    counters_.pulls_replayed.fetch_add(1, kRelaxed);
    instruments_.pulls_replayed->Add();
    if (trace != nullptr) trace->Event("server.replay", seq);
    return session->cached;
  }
  if (seq != session->next_seq) {
    return Status::InvalidArgument(StrFormat(
        "pull seq %llu outside replay window (next is %llu)",
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(session->next_seq)));
  }
  // The stream traversal runs under the shard lock; different shards
  // proceed in parallel and share the tree through its synchronized
  // buffer pool.
  return Advance(session, trace);
}

Result<net::Packet> ServiceEngine::Advance(Session* session,
                                           telemetry::Trace* trace) {
  // kExhausted is not cached: PacketChannel keeps reporting it, so retried
  // end-of-stream pulls are naturally idempotent.
  if (trace == nullptr) {
    SPACETWIST_ASSIGN_OR_RETURN(net::Packet packet,
                                session->channel->NextPacket());
    session->cached = packet;
    session->has_cached = true;
    ++session->next_seq;
    return packet;
  }
  // Sampled pull: the stream advance is one "server.granular.scan" span
  // annotated with the work it caused; the stream nests a
  // "server.page.fetch" span per R-tree node it touched (or a
  // "router.shard.pull" span per shard packet, for a scatter-gather
  // stream). Result handling is hand-rolled (no ASSIGN_OR_RETURN) so the
  // stream's borrowed trace pointer is detached on every path.
  server::InnSource* stream = session->stream.get();
  const uint64_t pops_before = stream->heap_pops();
  const uint64_t reads_before = stream->node_reads();
  telemetry::Trace::Span scan = trace->StartSpan("server.granular.scan");
  stream->set_trace(trace);
  Result<net::Packet> packet = session->channel->NextPacket();
  stream->set_trace(nullptr);
  scan.Note("heap_pops", stream->heap_pops() - pops_before);
  scan.Note("node_reads", stream->node_reads() - reads_before);
  scan.Note("points", packet.ok() ? packet->points.size() : 0);
  scan.End();
  if (!packet.ok()) return packet;
  session->cached = *packet;
  session->has_cached = true;
  ++session->next_seq;
  return packet;
}

Result<net::Packet> ServiceEngine::PullForWire(
    uint64_t session_id, uint64_t seq, uint64_t trace_id,
    std::vector<telemetry::SpanRecord>* spans_out) {
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    counters_.pull_requests.fetch_add(1, kRelaxed);
    instruments_.pull_requests->Add();
    return Status::NotFound(StrFormat(
        "session %llu", static_cast<unsigned long long>(session_id)));
  }
  Session& session = it->second;
  // A sampled pull (re)binds the session to its trace: a re-opened session
  // may serve a different query than the one that opened it.
  session.trace_id = trace_id;
  session.sampled = true;
  telemetry::Trace trace(clock_);
  trace.set_trace_id(trace_id);
  telemetry::Trace::Span dispatch = trace.StartSpan("server.dispatch");
  telemetry::Trace::Span pull_span = trace.StartSpan("server.pull");
  pull_span.Note("seq", seq);
  Result<net::Packet> packet = PullLocked(&shard, &session, seq, &trace);
  pull_span.End();
  dispatch.End();
  AppendSpans(&session.sink_spans, trace.records(), kMaxSinkSpansPerSession);
  if (!packet.ok()) {
    // The reply is a span-free ErrorReply; hold this request's spans for
    // the session's next successful reply.
    AppendSpans(&session.pending_spans, trace.records(),
                net::kMaxWireSpansPerFrame);
    return packet;
  }
  *spans_out = std::move(session.pending_spans);
  session.pending_spans.clear();
  AppendSpans(spans_out, trace.records(), net::kMaxWireSpansPerFrame);
  return packet;
}

Status ServiceEngine::Close(uint64_t session_id) {
  return CloseInternal(session_id, nullptr);
}

Status ServiceEngine::CloseInternal(
    uint64_t session_id, std::vector<telemetry::SpanRecord>* spans_out) {
  counters_.close_requests.fetch_add(1, kRelaxed);
  instruments_.close_requests->Add();
  Shard& shard = ShardFor(session_id);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
      return Status::NotFound(StrFormat(
          "session %llu", static_cast<unsigned long long>(session_id)));
    }
    Session& session = it->second;
    if (spans_out != nullptr && session.sampled) {
      // CloseRequest carries no trace context on the wire; the session
      // remembers which trace it belongs to.
      telemetry::Trace trace(clock_);
      trace.set_trace_id(session.trace_id);
      telemetry::Trace::Span dispatch = trace.StartSpan("server.dispatch");
      telemetry::Trace::Span close_span = trace.StartSpan("server.close");
      close_span.End();
      dispatch.End();
      AppendSpans(&session.sink_spans, trace.records(),
                  kMaxSinkSpansPerSession);
      *spans_out = std::move(session.pending_spans);
      session.pending_spans.clear();
      AppendSpans(spans_out, trace.records(), net::kMaxWireSpansPerFrame);
    }
    RetireLocked(&shard, it);
  }
  open_count_.fetch_sub(1, kRelaxed);
  counters_.sessions_closed.fetch_add(1, kRelaxed);
  instruments_.sessions_closed->Add();
  instruments_.open_sessions->Add(-1);
  return Status::OK();
}

Result<net::ChannelStats> ServiceEngine::SessionStats(
    uint64_t session_id) const {
  const Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    return Status::NotFound(StrFormat(
        "session %llu", static_cast<unsigned long long>(session_id)));
  }
  return it->second.channel->stats();
}

std::vector<uint8_t> ServiceEngine::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  Result<net::Request> request = net::DecodeRequest(request_frame);
  if (!request.ok()) {
    counters_.decode_errors.fetch_add(1, kRelaxed);
    instruments_.decode_errors->Add();
    return EncodeErrorFrame(request.status());
  }
  return HandleDecoded(*request);
}

std::vector<uint8_t> ServiceEngine::HandleDecoded(const net::Request& request) {
  if (const auto* open = std::get_if<net::OpenRequest>(&request)) {
    return HandleOpen(*open);
  }
  if (const auto* pull = std::get_if<net::PullRequest>(&request)) {
    std::vector<telemetry::SpanRecord> spans;
    Result<net::Packet> packet =
        pull->sampled
            ? PullForWire(pull->session_id, pull->seq, pull->trace_id, &spans)
            : Pull(pull->session_id, pull->seq);
    if (!packet.ok()) {
      return EncodeErrorFrame(packet.status(), pull->session_id);
    }
    return net::EncodeResponse(net::PacketReply{
        pull->session_id, pull->seq, packet.MoveValueOrDie(),
        std::move(spans)});
  }
  const auto& close = std::get<net::CloseRequest>(request);
  std::vector<telemetry::SpanRecord> spans;
  Status status = CloseInternal(close.session_id, &spans);
  if (!status.ok()) return EncodeErrorFrame(status, close.session_id);
  return net::EncodeResponse(net::CloseOk{close.session_id, std::move(spans)});
}

size_t ServiceEngine::EvictIdle() {
  const uint64_t now = NowNs();
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    evicted += SweepShardLocked(&shard, now);
  }
  return evicted;
}

EngineMetrics ServiceEngine::metrics() const {
  EngineMetrics m;
  m.open_requests = counters_.open_requests.load(kRelaxed);
  m.pull_requests = counters_.pull_requests.load(kRelaxed);
  m.pulls_replayed = counters_.pulls_replayed.load(kRelaxed);
  m.close_requests = counters_.close_requests.load(kRelaxed);
  m.decode_errors = counters_.decode_errors.load(kRelaxed);
  m.sessions_opened = counters_.sessions_opened.load(kRelaxed);
  m.sessions_closed = counters_.sessions_closed.load(kRelaxed);
  m.sessions_evicted = counters_.sessions_evicted.load(kRelaxed);
  m.sessions_rejected = counters_.sessions_rejected.load(kRelaxed);
  m.open_sessions = open_count_.load(kRelaxed);
  m.transport.downlink_packets = totals_.downlink_packets.load(kRelaxed);
  m.transport.downlink_points = totals_.downlink_points.load(kRelaxed);
  m.transport.uplink_packets = totals_.uplink_packets.load(kRelaxed);
  m.transport.downlink_bytes = totals_.downlink_bytes.load(kRelaxed);
  m.transport.uplink_bytes = totals_.uplink_bytes.load(kRelaxed);
  return m;
}

std::unordered_map<uint64_t, ServiceEngine::Session>::iterator
ServiceEngine::RetireLocked(
    Shard* shard, std::unordered_map<uint64_t, Session>::iterator it) {
  Session& session = it->second;
  if (options_.trace_sink != nullptr && session.sampled &&
      !session.sink_spans.empty()) {
    options_.trace_sink->Offer(telemetry::TraceRecord{
        session.trace_id, std::move(session.sink_spans)});
    session.sink_spans.clear();
  }
  const net::ChannelStats& stats = session.channel->stats();
  totals_.downlink_packets.fetch_add(stats.downlink_packets, kRelaxed);
  totals_.downlink_points.fetch_add(stats.downlink_points, kRelaxed);
  totals_.uplink_packets.fetch_add(stats.uplink_packets, kRelaxed);
  totals_.downlink_bytes.fetch_add(stats.downlink_bytes, kRelaxed);
  totals_.uplink_bytes.fetch_add(stats.uplink_bytes, kRelaxed);
  instruments_.downlink_packets->Add(stats.downlink_packets);
  instruments_.downlink_points->Add(stats.downlink_points);
  instruments_.uplink_packets->Add(stats.uplink_packets);
  instruments_.downlink_bytes->Add(stats.downlink_bytes);
  instruments_.uplink_bytes->Add(stats.uplink_bytes);
  if (!session.open_key.empty()) shard->opens.erase(session.open_key);
  return shard->sessions.erase(it);
}

size_t ServiceEngine::SweepShardLocked(Shard* shard, uint64_t now_ns) {
  if (options_.idle_ttl_ns == 0) return 0;
  size_t evicted = 0;
  for (auto it = shard->sessions.begin(); it != shard->sessions.end();) {
    const uint64_t idle = now_ns - it->second.last_touch_ns;
    if (now_ns > it->second.last_touch_ns && idle > options_.idle_ttl_ns) {
      it = RetireLocked(shard, it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) {
    open_count_.fetch_sub(evicted, kRelaxed);
    counters_.sessions_evicted.fetch_add(evicted, kRelaxed);
    instruments_.sessions_evicted->Add(evicted);
    instruments_.open_sessions->Add(-static_cast<int64_t>(evicted));
  }
  return evicted;
}

std::vector<uint8_t> ServiceEngine::EncodeErrorFrame(const Status& status,
                                                     uint64_t session_id) {
  return net::EncodeResponse(
      net::ErrorReply{status.code(), session_id, status.message()});
}

}  // namespace spacetwist::service
