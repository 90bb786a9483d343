#include "service/service_engine.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/strings.h"
#include "core/params.h"

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

Status SessionNotFound(uint64_t session_id) {
  return Status::NotFound(
      StrFormat("session %llu", static_cast<unsigned long long>(session_id)));
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
  // Retire whatever is still live, so a registry snapshot taken after the
  // engine is gone counts every session's transport and no live session.
  int64_t retired = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      it = RetireLocked(&shard, it);
      ++retired;
    }
  }
  instruments_.open_sessions->Add(-retired);
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
                                                         net::PacketConfig());
  return session;
}

void ServiceEngine::PublishLocked(Shard* shard, uint64_t id, Session session) {
  const uint64_t now = NowNs();
  // Piggyback idle reclamation on the write path so a pull-only workload
  // elsewhere cannot pin this shard's abandoned sessions forever.
  SweepShardLocked(shard, now);
  session.last_touch_ns = now;
  shard->opens.emplace(session.open_key, id);
  shard->sessions.emplace(id, std::move(session));
  instruments_.shard_sessions->Record(shard->sessions.size());
  instruments_.sessions_opened->Add();
  instruments_.open_sessions->Add(1);
}

std::vector<uint8_t> ServiceEngine::HandleOpen(const net::OpenRequest& open) {
  instruments_.open_requests->Add();
  const Status valid =
      core::ValidateQueryParameters(open.anchor, open.epsilon, open.k);
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

std::vector<uint8_t> ServiceEngine::HandlePull(const net::PullRequest& pull) {
  instruments_.pull_requests->Add();
  Shard& shard = ShardFor(pull.session_id);
  std::vector<telemetry::SpanRecord> spans;
  Result<net::Packet> packet = [&]() -> Result<net::Packet> {
    MutexLock lock(&shard.mu);
    const auto it = shard.sessions.find(pull.session_id);
    if (it == shard.sessions.end()) return SessionNotFound(pull.session_id);
    Session& session = it->second;
    std::optional<telemetry::Trace> trace;
    if (pull.sampled) {
      // A sampled pull (re)binds the session to its trace: a re-opened
      // session may serve a different query than the one that opened it.
      session.trace_id = pull.trace_id;
      session.sampled = true;
      trace.emplace(clock_);
      trace->set_trace_id(pull.trace_id);
    }
    telemetry::Trace* traced = trace ? &*trace : nullptr;
    Result<net::Packet> served = [&]() -> Result<net::Packet> {
      telemetry::Trace::Span dispatch =
          telemetry::Trace::SpanOn(traced, "server.dispatch");
      telemetry::Trace::Span pull_span =
          telemetry::Trace::SpanOn(traced, "server.pull");
      pull_span.Note("seq", pull.seq);
      session.last_touch_ns = NowNs();
      if (session.has_cached && pull.seq + 1 == session.next_seq) {
        // Idempotent retry: the client never saw the reply to its last
        // pull.
        instruments_.pulls_replayed->Add();
        telemetry::Trace::EventOn(traced, "server.replay", pull.seq);
        return session.cached;
      }
      if (pull.seq != session.next_seq) {
        return Status::InvalidArgument(StrFormat(
            "pull seq %llu outside replay window (next is %llu)",
            static_cast<unsigned long long>(pull.seq),
            static_cast<unsigned long long>(session.next_seq)));
      }
      // The stream traversal runs under the shard lock; different shards
      // proceed in parallel and share the tree through its synchronized
      // buffer pool.
      return Advance(&session, traced);
    }();
    if (traced == nullptr) return served;
    AppendSpans(&session.sink_spans, traced->records(),
                kMaxSinkSpansPerSession);
    if (!served.ok()) {
      // The reply is a span-free ErrorReply; hold this request's spans for
      // the session's next successful reply.
      AppendSpans(&session.pending_spans, traced->records(),
                  net::kMaxWireSpansPerFrame);
      return served;
    }
    spans = std::move(session.pending_spans);
    session.pending_spans.clear();
    AppendSpans(&spans, traced->records(), net::kMaxWireSpansPerFrame);
    return served;
  }();
  if (!packet.ok()) return EncodeErrorFrame(packet.status(), pull.session_id);
  return net::EncodeResponse(net::PacketReply{
      pull.session_id, pull.seq, packet.MoveValueOrDie(), std::move(spans)});
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

std::vector<uint8_t> ServiceEngine::HandleClose(
    const net::CloseRequest& close) {
  instruments_.close_requests->Add();
  Shard& shard = ShardFor(close.session_id);
  std::vector<telemetry::SpanRecord> spans;
  const bool found = [&] {
    MutexLock lock(&shard.mu);
    const auto it = shard.sessions.find(close.session_id);
    if (it == shard.sessions.end()) return false;
    Session& session = it->second;
    if (session.sampled) {
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
      spans = std::move(session.pending_spans);
      session.pending_spans.clear();
      AppendSpans(&spans, trace.records(), net::kMaxWireSpansPerFrame);
    }
    RetireLocked(&shard, it);
    return true;
  }();
  if (!found) {
    return EncodeErrorFrame(SessionNotFound(close.session_id),
                            close.session_id);
  }
  open_count_.fetch_sub(1, kRelaxed);
  instruments_.sessions_closed->Add();
  instruments_.open_sessions->Add(-1);
  return net::EncodeResponse(net::CloseOk{close.session_id, std::move(spans)});
}

std::vector<uint8_t> ServiceEngine::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  Result<net::Request> request = net::DecodeRequest(request_frame);
  if (!request.ok()) {
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
    return HandlePull(*pull);
  }
  return HandleClose(std::get<net::CloseRequest>(request));
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
  instruments_.downlink_packets->Add(stats.downlink_packets);
  instruments_.downlink_points->Add(stats.downlink_points);
  instruments_.uplink_packets->Add(stats.uplink_packets);
  instruments_.downlink_bytes->Add(stats.downlink_bytes);
  instruments_.uplink_bytes->Add(stats.uplink_bytes);
  shard->opens.erase(session.open_key);
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
