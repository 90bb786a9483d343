#include "net/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace spacetwist::net {

namespace {

/// Little-endian primitive writers. Byte shifts keep the encoding
/// host-order independent.
void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void PutF32(std::vector<uint8_t>* out, float v) {
  PutU32(out, std::bit_cast<uint32_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

/// Bounds-checked little-endian reader over a borrowed buffer. Every Read*
/// fails with kCorruption instead of running off the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : p_(data), remaining_(size) {}

  size_t remaining() const { return remaining_; }

  Result<uint8_t> ReadU8() {
    SPACETWIST_RETURN_NOT_OK(Need(1));
    return Take(1)[0];
  }

  Result<uint16_t> ReadU16() {
    SPACETWIST_RETURN_NOT_OK(Need(2));
    const uint8_t* b = Take(2);
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }

  Result<uint32_t> ReadU32() {
    SPACETWIST_RETURN_NOT_OK(Need(4));
    const uint8_t* b = Take(4);
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

  Result<uint64_t> ReadU64() {
    SPACETWIST_RETURN_NOT_OK(Need(8));
    const uint8_t* b = Take(8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

  Result<float> ReadF32() {
    SPACETWIST_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
    return std::bit_cast<float>(bits);
  }

  Result<double> ReadF64() {
    SPACETWIST_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    return std::bit_cast<double>(bits);
  }

  Result<std::string> ReadBytes(size_t n) {
    SPACETWIST_RETURN_NOT_OK(Need(n));
    const uint8_t* b = Take(n);
    return std::string(reinterpret_cast<const char*>(b), n);
  }

  /// A fully decoded frame must leave nothing behind.
  Status ExpectDrained() const {
    if (remaining_ != 0) {
      return Status::Corruption(
          StrFormat("%zu trailing bytes after payload", remaining_));
    }
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (remaining_ < n) {
      return Status::Corruption(
          StrFormat("truncated frame: need %zu bytes, have %zu", n,
                    remaining_));
    }
    return Status::OK();
  }

  const uint8_t* Take(size_t n) {
    const uint8_t* at = p_;
    p_ += n;
    remaining_ -= n;
    return at;
  }

  const uint8_t* p_;
  size_t remaining_;
};

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320: [0][b] is the
/// CRC of byte b, [s][b] that CRC advanced past s zero bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    t[0][b] = crc;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (size_t b = 0; b < 256; ++b) {
      t[s][b] = (t[s - 1][b] >> 8) ^ t[0][t[s - 1][b] & 0xFF];
    }
  }
  return t;
}();

/// Little-endian 32-bit load, host-order independent like the codec.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Running CRC-32 update; `crc` starts and ends inverted (callers use
/// Crc32() below, which handles the inversions).
uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t size) {
  const auto& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return crc;
}

/// Checksum of a frame's integrity-protected region: type byte + payload.
uint32_t FrameChecksum(uint8_t type, const uint8_t* payload, size_t size) {
  uint32_t crc = Crc32Update(0xFFFFFFFFu, &type, 1);
  return ~Crc32Update(crc, payload, size);
}

std::vector<uint8_t> SealFrame(MessageType type,
                               const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(9 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU8(&frame, static_cast<uint8_t>(type));
  PutU32(&frame, FrameChecksum(static_cast<uint8_t>(type), payload.data(),
                               payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Validates the 9-byte header (length, type, checksum) and hands back
/// (type, payload reader). The checksum check runs before any payload
/// parsing, so a flipped bit anywhere in the protected region surfaces as
/// kCorruption rather than as a structurally valid frame with wrong data.
Result<std::pair<MessageType, WireReader>> OpenFrame(const uint8_t* data,
                                                     size_t size) {
  if (data == nullptr && size > 0) {
    return Status::InvalidArgument("null frame buffer");
  }
  WireReader header(data, size);
  SPACETWIST_ASSIGN_OR_RETURN(uint32_t payload_len, header.ReadU32());
  SPACETWIST_ASSIGN_OR_RETURN(uint8_t type, header.ReadU8());
  SPACETWIST_ASSIGN_OR_RETURN(uint32_t checksum, header.ReadU32());
  if (payload_len > kMaxWirePayloadBytes) {
    return Status::Corruption(
        StrFormat("declared payload of %u bytes exceeds limit", payload_len));
  }
  if (header.remaining() != payload_len) {
    return Status::Corruption(
        StrFormat("frame length mismatch: declared %u, have %zu", payload_len,
                  header.remaining()));
  }
  if (checksum != FrameChecksum(type, data + 9, payload_len)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return std::make_pair(static_cast<MessageType>(type), header);
}

/// Request-side trace context (v3): trace id + flags byte (bit 0 = sampled,
/// other bits reserved and rejected so they stay available).
void PutTraceContext(std::vector<uint8_t>* out, uint64_t trace_id,
                     bool sampled) {
  PutU64(out, trace_id);
  PutU8(out, sampled ? 1 : 0);
}

Status ReadTraceContext(WireReader* r, uint64_t* trace_id, bool* sampled) {
  SPACETWIST_ASSIGN_OR_RETURN(*trace_id, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(uint8_t flags, r->ReadU8());
  if ((flags & ~uint8_t{1}) != 0) {
    return Status::Corruption(
        StrFormat("reserved trace flag bits set: 0x%02x", flags));
  }
  *sampled = (flags & 1) != 0;
  return Status::OK();
}

/// Span piggyback block (v3), appended to OpenOk (v4), PacketReply and
/// CloseOk payloads:
///
///   uint16  span_count
///   per span:
///     uint8   name_len, name_len bytes of name
///     uint64  start_ns
///     uint64  end_ns
///     uint8   depth
///     uint8   flags          (bit 0 = instant event, others reserved)
///     uint8   note_count
///     per note:
///       uint8   key_len, key_len bytes of key
///       uint64  value
///
/// The encoder clamps to the kMaxWireSpan* bounds (truncating names/keys,
/// dropping excess spans/notes) so any in-process span list produces a
/// valid frame; the decoder rejects anything beyond the bounds.
void PutSpans(std::vector<uint8_t>* out,
              const std::vector<telemetry::SpanRecord>& spans) {
  const size_t count = std::min(spans.size(), kMaxWireSpansPerFrame);
  PutU16(out, static_cast<uint16_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const telemetry::SpanRecord& span = spans[i];
    const size_t name_len =
        std::min(span.name.size(), kMaxWireSpanNameBytes);
    PutU8(out, static_cast<uint8_t>(name_len));
    out->insert(out->end(), span.name.begin(),
                span.name.begin() + static_cast<ptrdiff_t>(name_len));
    PutU64(out, span.start_ns);
    PutU64(out, span.end_ns);
    PutU8(out, static_cast<uint8_t>(std::min(span.depth, 255)));
    PutU8(out, span.instant ? 1 : 0);
    const size_t note_count = std::min(span.notes.size(), kMaxWireSpanNotes);
    PutU8(out, static_cast<uint8_t>(note_count));
    for (size_t n = 0; n < note_count; ++n) {
      const auto& [key, value] = span.notes[n];
      const size_t key_len = std::min(key.size(), kMaxWireNoteKeyBytes);
      PutU8(out, static_cast<uint8_t>(key_len));
      out->insert(out->end(), key.begin(),
                  key.begin() + static_cast<ptrdiff_t>(key_len));
      PutU64(out, value);
    }
  }
}

Result<std::vector<telemetry::SpanRecord>> ReadSpans(WireReader* r) {
  SPACETWIST_ASSIGN_OR_RETURN(uint16_t count, r->ReadU16());
  if (count > kMaxWireSpansPerFrame) {
    return Status::Corruption("span count exceeds frame limit");
  }
  std::vector<telemetry::SpanRecord> spans;
  spans.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    telemetry::SpanRecord span;
    SPACETWIST_ASSIGN_OR_RETURN(uint8_t name_len, r->ReadU8());
    if (name_len > kMaxWireSpanNameBytes) {
      return Status::Corruption("span name exceeds frame limit");
    }
    SPACETWIST_ASSIGN_OR_RETURN(span.name, r->ReadBytes(name_len));
    SPACETWIST_ASSIGN_OR_RETURN(span.start_ns, r->ReadU64());
    SPACETWIST_ASSIGN_OR_RETURN(span.end_ns, r->ReadU64());
    SPACETWIST_ASSIGN_OR_RETURN(uint8_t depth, r->ReadU8());
    span.depth = depth;
    SPACETWIST_ASSIGN_OR_RETURN(uint8_t flags, r->ReadU8());
    if ((flags & ~uint8_t{1}) != 0) {
      return Status::Corruption(
          StrFormat("reserved span flag bits set: 0x%02x", flags));
    }
    span.instant = (flags & 1) != 0;
    SPACETWIST_ASSIGN_OR_RETURN(uint8_t note_count, r->ReadU8());
    if (note_count > kMaxWireSpanNotes) {
      return Status::Corruption("span note count exceeds frame limit");
    }
    span.notes.reserve(note_count);
    for (uint8_t n = 0; n < note_count; ++n) {
      SPACETWIST_ASSIGN_OR_RETURN(uint8_t key_len, r->ReadU8());
      if (key_len > kMaxWireNoteKeyBytes) {
        return Status::Corruption("span note key exceeds frame limit");
      }
      SPACETWIST_ASSIGN_OR_RETURN(std::string key, r->ReadBytes(key_len));
      SPACETWIST_ASSIGN_OR_RETURN(uint64_t value, r->ReadU64());
      span.notes.emplace_back(std::move(key), value);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

/// Point block shared by OpenOk (v4) and PacketReply: u16 count, then
/// count x (f32 x, f32 y, u32 id). The engine caps packets at
/// PacketConfig::Capacity() (<= a few hundred points), so a u16 count is
/// ample and keeps the frame tight.
void PutPoints(std::vector<uint8_t>* out, const Packet& packet) {
  PutU16(out, static_cast<uint16_t>(packet.points.size()));
  for (const rtree::DataPoint& p : packet.points) {
    PutF32(out, static_cast<float>(p.point.x));
    PutF32(out, static_cast<float>(p.point.y));
    PutU32(out, p.id);
  }
}

Result<Packet> ReadPoints(WireReader* r) {
  SPACETWIST_ASSIGN_OR_RETURN(uint16_t count, r->ReadU16());
  if (count > kMaxWirePointsPerFrame) {
    return Status::Corruption("point count exceeds frame limit");
  }
  if (r->remaining() < count * kWirePointBytes) {
    return Status::Corruption(
        StrFormat("packet payload size mismatch for %u points", count));
  }
  Packet packet;
  packet.points.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    rtree::DataPoint p;
    SPACETWIST_ASSIGN_OR_RETURN(float x, r->ReadF32());
    SPACETWIST_ASSIGN_OR_RETURN(float y, r->ReadF32());
    SPACETWIST_ASSIGN_OR_RETURN(p.id, r->ReadU32());
    p.point = {x, y};
    packet.points.push_back(p);
  }
  return packet;
}

Result<OpenRequest> DecodeOpenPayload(WireReader* r) {
  OpenRequest msg;
  SPACETWIST_ASSIGN_OR_RETURN(msg.anchor.x, r->ReadF64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.anchor.y, r->ReadF64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.epsilon, r->ReadF64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.k, r->ReadU32());
  SPACETWIST_ASSIGN_OR_RETURN(msg.nonce, r->ReadU64());
  SPACETWIST_RETURN_NOT_OK(
      ReadTraceContext(r, &msg.trace_id, &msg.sampled));
  return msg;
}

Result<OpenOk> DecodeOpenOkPayload(WireReader* r) {
  OpenOk msg;
  SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.nonce, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.packet, ReadPoints(r));
  SPACETWIST_ASSIGN_OR_RETURN(msg.server_spans, ReadSpans(r));
  return msg;
}

Result<PacketReply> DecodePacketPayload(WireReader* r) {
  PacketReply msg;
  SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.seq, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(msg.packet, ReadPoints(r));
  SPACETWIST_ASSIGN_OR_RETURN(msg.server_spans, ReadSpans(r));
  return msg;
}

Result<ErrorReply> DecodeErrorPayload(WireReader* r) {
  SPACETWIST_ASSIGN_OR_RETURN(uint8_t code, r->ReadU8());
  if (code == static_cast<uint8_t>(StatusCode::kOk) ||
      code > static_cast<uint8_t>(kMaxStatusCode)) {
    return Status::Corruption(
        StrFormat("invalid wire status code %u", code));
  }
  ErrorReply msg;
  msg.code = static_cast<StatusCode>(code);
  SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r->ReadU64());
  SPACETWIST_ASSIGN_OR_RETURN(uint16_t msg_len, r->ReadU16());
  if (msg_len > kMaxWireErrorMessageBytes) {
    return Status::Corruption("error message exceeds frame limit");
  }
  SPACETWIST_ASSIGN_OR_RETURN(msg.message, r->ReadBytes(msg_len));
  return msg;
}

}  // namespace

std::vector<uint8_t> EncodeRequest(const Request& request) {
  std::vector<uint8_t> payload;
  MessageType type;
  if (const auto* open = std::get_if<OpenRequest>(&request)) {
    type = MessageType::kOpenRequest;
    PutF64(&payload, open->anchor.x);
    PutF64(&payload, open->anchor.y);
    PutF64(&payload, open->epsilon);
    PutU32(&payload, open->k);
    PutU64(&payload, open->nonce);
    PutTraceContext(&payload, open->trace_id, open->sampled);
  } else if (const auto* pull = std::get_if<PullRequest>(&request)) {
    type = MessageType::kPullRequest;
    PutU64(&payload, pull->session_id);
    PutU64(&payload, pull->seq);
    PutTraceContext(&payload, pull->trace_id, pull->sampled);
  } else {
    type = MessageType::kCloseRequest;
    PutU64(&payload, std::get<CloseRequest>(request).session_id);
  }
  return SealFrame(type, payload);
}

std::vector<uint8_t> EncodeResponse(const Response& response) {
  std::vector<uint8_t> payload;
  MessageType type;
  if (const auto* ok = std::get_if<OpenOk>(&response)) {
    type = MessageType::kOpenOk;
    PutU64(&payload, ok->session_id);
    PutU64(&payload, ok->nonce);
    PutPoints(&payload, ok->packet);
    PutSpans(&payload, ok->server_spans);
  } else if (const auto* packet = std::get_if<PacketReply>(&response)) {
    type = MessageType::kPacket;
    PutU64(&payload, packet->session_id);
    PutU64(&payload, packet->seq);
    PutPoints(&payload, packet->packet);
    PutSpans(&payload, packet->server_spans);
  } else if (const auto* closed = std::get_if<CloseOk>(&response)) {
    type = MessageType::kCloseOk;
    PutU64(&payload, closed->session_id);
    PutSpans(&payload, closed->server_spans);
  } else {
    type = MessageType::kError;
    const ErrorReply& error = std::get<ErrorReply>(response);
    PutU8(&payload, static_cast<uint8_t>(error.code));
    PutU64(&payload, error.session_id);
    std::string message = error.message;
    if (message.size() > kMaxWireErrorMessageBytes) {
      message.resize(kMaxWireErrorMessageBytes);
    }
    PutU16(&payload, static_cast<uint16_t>(message.size()));
    payload.insert(payload.end(), message.begin(), message.end());
  }
  return SealFrame(type, payload);
}

Result<Request> DecodeRequest(const uint8_t* data, size_t size) {
  SPACETWIST_ASSIGN_OR_RETURN(auto frame, OpenFrame(data, size));
  WireReader& r = frame.second;
  switch (frame.first) {
    case MessageType::kOpenRequest: {
      SPACETWIST_ASSIGN_OR_RETURN(OpenRequest msg, DecodeOpenPayload(&r));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Request(msg);
    }
    case MessageType::kPullRequest: {
      PullRequest msg;
      SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r.ReadU64());
      SPACETWIST_ASSIGN_OR_RETURN(msg.seq, r.ReadU64());
      SPACETWIST_RETURN_NOT_OK(
          ReadTraceContext(&r, &msg.trace_id, &msg.sampled));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Request(msg);
    }
    case MessageType::kCloseRequest: {
      CloseRequest msg;
      SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r.ReadU64());
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Request(msg);
    }
    case MessageType::kOpenOk:
    case MessageType::kPacket:
    case MessageType::kCloseOk:
    case MessageType::kError:
      return Status::InvalidArgument("response frame where request expected");
  }
  return Status::Corruption(StrFormat("unknown request type %u",
                                      static_cast<unsigned>(frame.first)));
}

Result<Response> DecodeResponse(const uint8_t* data, size_t size) {
  SPACETWIST_ASSIGN_OR_RETURN(auto frame, OpenFrame(data, size));
  WireReader& r = frame.second;
  switch (frame.first) {
    case MessageType::kOpenOk: {
      SPACETWIST_ASSIGN_OR_RETURN(OpenOk msg, DecodeOpenOkPayload(&r));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Response(std::move(msg));
    }
    case MessageType::kPacket: {
      SPACETWIST_ASSIGN_OR_RETURN(PacketReply msg, DecodePacketPayload(&r));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Response(std::move(msg));
    }
    case MessageType::kCloseOk: {
      CloseOk msg;
      SPACETWIST_ASSIGN_OR_RETURN(msg.session_id, r.ReadU64());
      SPACETWIST_ASSIGN_OR_RETURN(msg.server_spans, ReadSpans(&r));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Response(std::move(msg));
    }
    case MessageType::kError: {
      SPACETWIST_ASSIGN_OR_RETURN(ErrorReply msg, DecodeErrorPayload(&r));
      SPACETWIST_RETURN_NOT_OK(r.ExpectDrained());
      return Response(std::move(msg));
    }
    case MessageType::kOpenRequest:
    case MessageType::kPullRequest:
    case MessageType::kCloseRequest:
      return Status::InvalidArgument("request frame where response expected");
  }
  return Status::Corruption(StrFormat("unknown response type %u",
                                      static_cast<unsigned>(frame.first)));
}

Status ToStatus(const ErrorReply& error) {
  return Status(error.code, error.message);
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return ~Crc32Update(0xFFFFFFFFu, data, size);
}

}  // namespace spacetwist::net
