#ifndef SPACETWIST_NET_WIRE_H_
#define SPACETWIST_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "geom/point.h"
#include "net/packet.h"
#include "rtree/entry.h"
#include "telemetry/trace.h"

namespace spacetwist::net {

/// Binary wire codec for the client/server session protocol (see
/// docs/SERVICE.md for the byte-level specification).
///
/// Every message travels in one frame:
///
///   uint32  payload_length   (little-endian, bytes after the checksum)
///   uint8   message_type     (MessageType)
///   uint32  checksum         (CRC-32 over the type byte + payload)
///   payload_length bytes of payload
///
/// All integers are little-endian regardless of host order; doubles and
/// floats are IEEE-754 bit patterns of the corresponding width. Coordinates
/// of reported points are float32 — exactly the dataset's on-disk
/// quantization, so encoding loses nothing and wire results stay
/// byte-identical to the in-process path. Decoding is fully bounds-checked
/// and returns kCorruption on truncated, oversized, or malformed frames;
/// it never reads past the buffer and never aborts. The checksum makes
/// in-flight corruption (any byte flip) a detected, retryable kCorruption
/// instead of silently wrong data — a precondition for the retry layer's
/// exactness guarantee over lossy links.
///
/// Loss tolerance is built into the message shapes: Open carries a client
/// nonce echoed by OpenOk (a retried Open can never adopt a stale reply for
/// a different query), Pull carries an explicit packet sequence number so a
/// retry after a lost response re-fetches the same packet instead of
/// skipping one, and PacketReply/CloseOk/ErrorReply echo the session id so
/// delayed frames of an older session are recognized as stale.
///
/// Wire v3 adds distributed-trace plumbing: OpenRequest and PullRequest
/// carry a trace context (64-bit trace id + sampled flag), and
/// OpenOk/PacketReply/CloseOk piggyback the completed server-side span list
/// of the work they answer (empty unless the request was sampled), so the
/// client can merge both tiers into one trace tree. ErrorReply stays
/// span-free; spans produced by a failed pull are held server-side and ride
/// on the next successful reply of the session.
///
/// Wire v4 makes Open one round trip: OpenOk carries the stream's packet 0
/// (Algorithm 1 always takes it, since its γ starts at ∞), so the first
/// PullRequest of a query asks for seq 1.

/// Frame type tags. Requests are 1-15, responses 16-31.
enum class MessageType : uint8_t {
  kOpenRequest = 1,   ///< open a granular INN session
  kPullRequest = 2,   ///< pull the session's next packet
  kCloseRequest = 3,  ///< close a session
  kOpenOk = 16,       ///< session id + packet 0 of an opened session
  kPacket = 17,       ///< one downlink packet of data points
  kCloseOk = 18,      ///< session closed
  kError = 19,        ///< Status code + message
};

/// Everything the server ever learns about a query (anchor, not the true
/// location). Doubles so client-generated anchors round-trip exactly. The
/// nonce names one logical Open: the client draws it once, resends the
/// same request on every retry, and the server echoes it in OpenOk, so a
/// retrying client never adopts a stale OpenOk from an earlier query. A
/// repeat of a live session's Open gets that session's OpenOk again
/// (docs/SERVICE.md §2), so a lost reply never strands a session.
struct OpenRequest {
  geom::Point anchor;
  double epsilon = 0.0;
  uint32_t k = 1;
  uint64_t nonce = 0;
  /// Distributed-trace context (v3): the client's 64-bit trace id and
  /// whether this query is sampled. An unsampled request (the default)
  /// makes the server skip span collection entirely.
  uint64_t trace_id = 0;
  bool sampled = false;

  friend bool operator==(const OpenRequest& a, const OpenRequest& b) {
    return a.anchor == b.anchor && a.epsilon == b.epsilon && a.k == b.k &&
           a.nonce == b.nonce && a.trace_id == b.trace_id &&
           a.sampled == b.sampled;
  }
};

/// Requests packet number `seq` (0-based) of the session's stream. Pulling
/// the current packet again is idempotent (the server replays it from a
/// one-packet cache), so a client whose response frame was lost can retry
/// without skipping data; pulling `seq + 1` advances the stream.
struct PullRequest {
  uint64_t session_id = 0;
  uint64_t seq = 0;
  /// Distributed-trace context (v3); see OpenRequest. Pull carries its own
  /// context because a re-opened session may serve a different trace than
  /// the one that opened it.
  uint64_t trace_id = 0;
  bool sampled = false;

  friend bool operator==(const PullRequest& a, const PullRequest& b) {
    return a.session_id == b.session_id && a.seq == b.seq &&
           a.trace_id == b.trace_id && a.sampled == b.sampled;
  }
};

struct CloseRequest {
  uint64_t session_id = 0;

  friend bool operator==(const CloseRequest& a, const CloseRequest& b) {
    return a.session_id == b.session_id;
  }
};

using Request = std::variant<OpenRequest, PullRequest, CloseRequest>;

/// Answer to an Open (v4): the session id, the nonce echo, and the
/// stream's packet 0 in PacketReply's point encoding. Zero points means
/// the stream was dry at open.
struct OpenOk {
  uint64_t session_id = 0;
  uint64_t nonce = 0;  ///< echo of OpenRequest::nonce
  Packet packet;       ///< packet 0 of the session's stream
  /// Completed server-side spans of a sampled Open: the dispatch, the
  /// session open and the first scan.
  std::vector<telemetry::SpanRecord> server_spans;

  friend bool operator==(const OpenOk& a, const OpenOk& b) {
    return a.session_id == b.session_id && a.nonce == b.nonce &&
           a.packet.points == b.packet.points &&
           a.server_spans == b.server_spans;
  }
};

/// One downlink packet. Each point is encoded as float32 x, float32 y,
/// uint32 id (12 bytes). The paper's cost model stays 8 bytes per point
/// (PacketConfig); the id rides along for simulation fidelity — POIs are
/// public data, so it reveals nothing beyond the coordinates. session_id
/// and seq echo the PullRequest so a client can reject stale (reordered or
/// duplicated) frames from an earlier pull or an earlier session.
struct PacketReply {
  uint64_t session_id = 0;
  uint64_t seq = 0;
  Packet packet;
  /// Completed server-side spans of the sampled work this reply answers
  /// (v3), in server start order; empty for unsampled requests.
  std::vector<telemetry::SpanRecord> server_spans;

  friend bool operator==(const PacketReply& a, const PacketReply& b) {
    return a.session_id == b.session_id && a.seq == b.seq &&
           a.packet.points == b.packet.points &&
           a.server_spans == b.server_spans;
  }
};

struct CloseOk {
  uint64_t session_id = 0;  ///< echo of CloseRequest::session_id
  /// Final server-side spans of a sampled session (v3): the close work
  /// plus anything still unshipped (e.g. spans of a pull that ended in
  /// kExhausted, which travels as a span-free ErrorReply).
  std::vector<telemetry::SpanRecord> server_spans;

  friend bool operator==(const CloseOk& a, const CloseOk& b) {
    return a.session_id == b.session_id && a.server_spans == b.server_spans;
  }
};

/// A Status carried over the wire (e.g. kExhausted at end of stream,
/// kResourceExhausted backpressure, kNotFound for bad session ids).
/// session_id names the session the error is about (0 when the request
/// never named one, e.g. decode failures), so a retrying client can tell a
/// current session's kExhausted from a stale frame of a previous session.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  uint64_t session_id = 0;
  std::string message;

  friend bool operator==(const ErrorReply& a, const ErrorReply& b) {
    return a.code == b.code && a.session_id == b.session_id &&
           a.message == b.message;
  }
};

using Response = std::variant<OpenOk, PacketReply, CloseOk, ErrorReply>;

/// Decode sanity bounds (generous multiples of anything the engine emits).
inline constexpr size_t kMaxWirePayloadBytes = 1 << 20;
inline constexpr size_t kMaxWirePointsPerFrame = 65535;
inline constexpr size_t kMaxWireErrorMessageBytes = 4096;

/// Bytes per encoded data point in a kPacket or kOpenOk payload.
inline constexpr size_t kWirePointBytes = 12;

/// Span-piggyback bounds (v3). Encoders clamp to these, so any in-process
/// span list survives the trip; decoders reject anything beyond them.
inline constexpr size_t kMaxWireSpansPerFrame = 256;
inline constexpr size_t kMaxWireSpanNameBytes = 64;
inline constexpr size_t kMaxWireSpanNotes = 16;
inline constexpr size_t kMaxWireNoteKeyBytes = 32;

/// Serializes a message into one self-contained frame.
std::vector<uint8_t> EncodeRequest(const Request& request);
std::vector<uint8_t> EncodeResponse(const Response& response);

/// Parses exactly one frame occupying the whole buffer. Truncated or
/// trailing bytes, unknown types, and inconsistent lengths all yield
/// kCorruption; a response frame type given to DecodeRequest (and vice
/// versa) yields kInvalidArgument.
Result<Request> DecodeRequest(const uint8_t* data, size_t size);
Result<Response> DecodeResponse(const uint8_t* data, size_t size);

inline Result<Request> DecodeRequest(const std::vector<uint8_t>& buf) {
  return DecodeRequest(buf.data(), buf.size());
}
inline Result<Response> DecodeResponse(const std::vector<uint8_t>& buf) {
  return DecodeResponse(buf.data(), buf.size());
}

/// Converts a wire error back into the Status the server returned.
Status ToStatus(const ErrorReply& error);

/// CRC-32 (IEEE 802.3, reflected) of `size` bytes — the frame checksum.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Server end of the wire protocol: consumes one encoded request frame and
/// produces one encoded response frame. Implemented in-process by
/// service::ServiceEngine; a deployment would put a socket behind the same
/// interface. Implementations must be safe to call from many threads.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  virtual std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) = 0;
};

/// Client end of the link: one request frame out, one response frame back —
/// with the possibility of failure. A non-OK status models the link, not
/// the server: kDeadlineExceeded (a frame was lost or stalled past the
/// deadline) and kIoError (the connection dropped; in-flight frames are
/// gone). Server-side errors still arrive as encoded ErrorReply frames.
///
/// An empty request frame is a *listen*: nothing is sent, and the call
/// returns the next response frame already in flight on the link (a late,
/// duplicated, or reordered reply), or kDeadlineExceeded when there is
/// none. No valid request is empty (every frame has a 9-byte header), so
/// decorators that forward RoundTrip forward listens unchanged. A client
/// that reads a stale or corrupt frame listens before it resends, so one
/// straggler costs one extra read instead of a retransmission.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  virtual Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) = 0;
};

/// The perfect link: every frame arrives intact, in order, exactly once —
/// so a listen never finds a frame in flight.
class DirectTransport : public FrameTransport {
 public:
  /// Borrows `handler`, which must outlive the transport.
  explicit DirectTransport(FrameHandler* handler) : handler_(handler) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) override {
    if (request_frame.empty()) {
      return Status::DeadlineExceeded("no frame in flight");
    }
    return handler_->HandleFrame(request_frame);
  }

 private:
  FrameHandler* handler_;
};

}  // namespace spacetwist::net

#endif  // SPACETWIST_NET_WIRE_H_
