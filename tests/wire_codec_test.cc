#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace spacetwist::net {
namespace {

/// Property sweep over the wire codec: randomized messages must round-trip
/// bit-exactly (encode -> decode == identity), and every truncation or byte
/// corruption of a valid frame must come back as an error Status — never a
/// crash, never a read past the buffer. Follows the lemma_property_test.cc
/// sweep pattern: a parameter grid of seeds x message shapes.

/// Coordinates travel as float32, matching the dataset quantization; any
/// point we put on the wire must already be float32-exact.
geom::Point QuantizedPoint(Rng* rng) {
  return {static_cast<double>(static_cast<float>(rng->Uniform(0, 10000))),
          static_cast<double>(static_cast<float>(rng->Uniform(0, 10000)))};
}

Packet RandomPacket(Rng* rng, size_t num_points) {
  Packet packet;
  packet.points.reserve(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    packet.points.push_back(
        {QuantizedPoint(rng), static_cast<uint32_t>(rng->Next())});
  }
  return packet;
}

/// Random piggybacked server spans (v3) within the wire bounds, so encoded
/// spans round-trip bit-exactly (the encoder only clamps beyond them).
std::vector<telemetry::SpanRecord> RandomSpans(Rng* rng) {
  static constexpr const char* kNames[] = {
      "server.dispatch", "server.pull", "server.granular.scan",
      "server.page.fetch", "server.replay"};
  std::vector<telemetry::SpanRecord> spans;
  const int count = rng->UniformInt(0, 5);
  for (int i = 0; i < count; ++i) {
    telemetry::SpanRecord span;
    span.name = kNames[rng->UniformInt(0, 4)];
    span.start_ns = rng->Next();
    span.end_ns = span.start_ns + static_cast<uint64_t>(rng->UniformInt(0, 1 << 20));
    span.depth = rng->UniformInt(0, 5);
    span.instant = rng->UniformInt(0, 1) == 1;
    const int notes = rng->UniformInt(0, 3);
    for (int n = 0; n < notes; ++n) {
      span.notes.emplace_back(std::string("note") + static_cast<char>('a' + n),
                              rng->Next());
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

Request RandomRequest(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0: {
      OpenRequest open;
      open.anchor = {rng->Uniform(-1e6, 1e6), rng->Uniform(-1e6, 1e6)};
      open.epsilon = rng->Uniform(0, 5000);
      open.k = static_cast<uint32_t>(rng->UniformInt(1, 1 << 20));
      open.nonce = rng->Next();
      open.trace_id = rng->Next();
      open.sampled = rng->UniformInt(0, 1) == 1;
      return open;
    }
    case 1: {
      PullRequest pull{rng->Next(), rng->Next()};
      pull.trace_id = rng->Next();
      pull.sampled = rng->UniformInt(0, 1) == 1;
      return pull;
    }
    default:
      return CloseRequest{rng->Next()};
  }
}

Response RandomResponse(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return OpenOk{
          rng->Next(), rng->Next(),
          RandomPacket(rng, static_cast<size_t>(rng->UniformInt(0, 200))),
          RandomSpans(rng)};
    case 1:
      return PacketReply{
          rng->Next(), rng->Next(),
          RandomPacket(rng, static_cast<size_t>(rng->UniformInt(0, 200))),
          RandomSpans(rng)};
    case 2:
      return CloseOk{rng->Next(), RandomSpans(rng)};
    default: {
      ErrorReply error;
      error.code = static_cast<StatusCode>(rng->UniformInt(1, kMaxStatusCode));
      error.session_id = rng->Next();
      const size_t len = static_cast<size_t>(rng->UniformInt(0, 64));
      for (size_t i = 0; i < len; ++i) {
        error.message.push_back(
            static_cast<char>('a' + rng->UniformInt(0, 25)));
      }
      return error;
    }
  }
}

/// Caps the point block of an OpenOk or PacketReply at `max_points`, so
/// per-byte sweeps stay fast.
void CapPoints(Response* response, size_t max_points) {
  Packet* packet = nullptr;
  if (auto* ok = std::get_if<OpenOk>(response)) packet = &ok->packet;
  if (auto* reply = std::get_if<PacketReply>(response)) {
    packet = &reply->packet;
  }
  if (packet != nullptr && packet->points.size() > max_points) {
    packet->points.resize(max_points);
  }
}

/// Recomputes a hand-patched frame's checksum (over type byte + payload) so
/// tests can corrupt a *payload field* without tripping the integrity check.
void ResealChecksum(std::vector<uint8_t>* frame) {
  ASSERT_GE(frame->size(), 9u);
  std::vector<uint8_t> protected_region;
  protected_region.push_back((*frame)[4]);  // type byte
  protected_region.insert(protected_region.end(), frame->begin() + 9,
                          frame->end());
  const uint32_t crc = Crc32(protected_region.data(), protected_region.size());
  for (int shift = 0; shift < 32; shift += 8) {
    (*frame)[5 + shift / 8] = static_cast<uint8_t>(crc >> shift);
  }
}

class WireCodecSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireCodecSweepTest, RequestsRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const Request request = RandomRequest(&rng);
    const std::vector<uint8_t> frame = EncodeRequest(request);
    auto decoded = DecodeRequest(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == request);
  }
}

TEST_P(WireCodecSweepTest, ResponsesRoundTrip) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int trial = 0; trial < 100; ++trial) {
    const Response response = RandomResponse(&rng);
    const std::vector<uint8_t> frame = EncodeResponse(response);
    auto decoded = DecodeResponse(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == response);
  }
}

TEST_P(WireCodecSweepTest, EveryTruncationFailsCleanly) {
  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<uint8_t> req_frame = EncodeRequest(RandomRequest(&rng));
    for (size_t len = 0; len < req_frame.size(); ++len) {
      EXPECT_FALSE(DecodeRequest(req_frame.data(), len).ok());
    }
    // Cap packets at 40 points so the strict-prefix scan stays fast.
    Response response = RandomResponse(&rng);
    CapPoints(&response, 40);
    const std::vector<uint8_t> resp_frame = EncodeResponse(response);
    for (size_t len = 0; len < resp_frame.size(); ++len) {
      EXPECT_FALSE(DecodeResponse(resp_frame.data(), len).ok());
    }
  }
}

TEST_P(WireCodecSweepTest, SingleByteCorruptionAlwaysDetected) {
  Rng rng(GetParam() + 31);
  for (int trial = 0; trial < 10; ++trial) {
    Response response = RandomResponse(&rng);
    CapPoints(&response, 20);
    const std::vector<uint8_t> frame = EncodeResponse(response);
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(0, 254));
      // Every single-byte flip must be *detected*: the length/type checks
      // catch header damage and the CRC-32 covers type + payload, so a
      // corrupted frame can never decode into a structurally valid message
      // with silently wrong data.
      auto decoded = DecodeResponse(corrupt);
      ASSERT_FALSE(decoded.ok())
          << "flip at byte " << pos << " decoded successfully";
      EXPECT_FALSE(decoded.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireCodecSweepTest,
                         ::testing::Values(1u, 42u, 20080407u, 0xDEADBEEFu));

TEST(WireCodecTest, EmptyAndTinyBuffersAreRejected) {
  EXPECT_FALSE(DecodeRequest(nullptr, 0).ok());
  EXPECT_FALSE(DecodeResponse(nullptr, 0).ok());
  const std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_TRUE(DecodeRequest(tiny).status().IsCorruption());
  EXPECT_TRUE(DecodeResponse(tiny).status().IsCorruption());
}

TEST(WireCodecTest, HugeDeclaredLengthIsRejectedWithoutAllocating) {
  // Header claims a 256 MiB payload; the frame holds only the 9-byte header.
  std::vector<uint8_t> frame = {0x00, 0x00, 0x00, 0x10,
                                static_cast<uint8_t>(MessageType::kPacket),
                                0x00, 0x00, 0x00, 0x00};
  EXPECT_TRUE(DecodeResponse(frame).status().IsCorruption());
}

TEST(WireCodecTest, TrailingGarbageIsCorruption) {
  std::vector<uint8_t> frame = EncodeRequest(PullRequest{7});
  frame.push_back(0);
  EXPECT_TRUE(DecodeRequest(frame).status().IsCorruption());
}

TEST(WireCodecTest, RequestAndResponseTypesDoNotCrossDecode) {
  const std::vector<uint8_t> request_frame = EncodeRequest(PullRequest{7});
  const std::vector<uint8_t> response_frame =
      EncodeResponse(OpenOk{7, 0, {}, {}});
  EXPECT_TRUE(DecodeResponse(request_frame).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeRequest(response_frame).status().IsInvalidArgument());
}

TEST(WireCodecTest, UnknownTypeTagIsCorruption) {
  std::vector<uint8_t> frame = EncodeRequest(PullRequest{7});
  frame[4] = 0xEE;  // type byte
  EXPECT_TRUE(DecodeRequest(frame).status().IsCorruption());
  EXPECT_TRUE(DecodeResponse(frame).status().IsCorruption());
}

TEST(WireCodecTest, ErrorReplyCodeZeroIsRejected) {
  // An ErrorReply claiming kOk is nonsense; the decoder must refuse it so
  // ToStatus can never produce an OK status from an error frame. The frame
  // is resealed after each patch so the *semantic* check is exercised, not
  // the checksum.
  ErrorReply error;
  error.code = StatusCode::kNotFound;
  error.message = "x";
  std::vector<uint8_t> frame = EncodeResponse(error);
  frame[9] = 0;  // first payload byte holds the status code
  ResealChecksum(&frame);
  EXPECT_TRUE(DecodeResponse(frame).status().IsCorruption());
  frame[9] = 200;  // far beyond the last defined code
  ResealChecksum(&frame);
  EXPECT_TRUE(DecodeResponse(frame).status().IsCorruption());
  frame[9] = static_cast<uint8_t>(kMaxStatusCode) + 1;  // first undefined
  ResealChecksum(&frame);
  EXPECT_TRUE(DecodeResponse(frame).status().IsCorruption());
}

TEST(WireCodecTest, ToStatusPreservesCodeAndMessage) {
  ErrorReply error;
  error.code = StatusCode::kResourceExhausted;
  error.message = "session limit";
  const Status status = ToStatus(error);
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(), "session limit");
}

TEST(WireCodecTest, EveryStatusCodeRoundTripsThroughTheWire) {
  // Exhaustive: each non-OK StatusCode (1 .. kMaxStatusCode, including
  // kDeadlineExceeded) must survive Status -> ErrorReply -> frame ->
  // ErrorReply -> Status with its code and message intact. Guards against
  // a new enum value being added without a wire mapping.
  for (int code = 1; code <= kMaxStatusCode; ++code) {
    const Status original(static_cast<StatusCode>(code), "probe message");
    ErrorReply error;
    error.code = original.code();
    error.session_id = 0x1234u + static_cast<uint64_t>(code);
    error.message = original.message();
    const std::vector<uint8_t> frame = EncodeResponse(error);
    auto decoded = DecodeResponse(frame);
    ASSERT_TRUE(decoded.ok()) << "code " << code << ": "
                              << decoded.status().ToString();
    const auto* reply = std::get_if<ErrorReply>(&*decoded);
    ASSERT_NE(reply, nullptr) << "code " << code;
    EXPECT_EQ(reply->session_id, error.session_id);
    const Status round_tripped = ToStatus(*reply);
    EXPECT_EQ(round_tripped.code(), original.code()) << "code " << code;
    EXPECT_EQ(round_tripped.message(), original.message()) << "code " << code;
    // The human-readable name must also be defined (not the fallback).
    EXPECT_NE(round_tripped.ToString().find("probe message"),
              std::string::npos);
  }
}

TEST(WireCodecTest, EncodedPacketSizeMatchesSpec) {
  Rng rng(9);
  const Packet packet = RandomPacket(&rng, 67);
  const std::vector<uint8_t> frame =
      EncodeResponse(PacketReply{7, 3, packet, {}});
  // frame = 4 (length) + 1 (type) + 4 (checksum)
  //       + 8 (session id) + 8 (seq) + 2 (count) + 67 * 12 (points)
  //       + 2 (span count, zero spans).
  EXPECT_EQ(frame.size(),
            4u + 1u + 4u + 8u + 8u + 2u + 67u * kWirePointBytes + 2u);
  // v4 OpenOk: session id + nonce, then the same point and span blocks.
  EXPECT_EQ(EncodeResponse(OpenOk{7, 3, packet, {}}).size(), frame.size());
}

// v4 OpenOk carries packet 0: 0 points (a stream dry at open), 1, and a
// full β = 67 packet, each with and without piggybacked spans.
TEST(WireCodecTest, OpenOkCarriesPacketZero) {
  Rng rng(23);
  for (const size_t points : {0u, 1u, 67u}) {
    for (const bool with_spans : {false, true}) {
      OpenOk ok{rng.Next(), rng.Next(), RandomPacket(&rng, points), {}};
      if (with_spans) {
        while (ok.server_spans.empty()) ok.server_spans = RandomSpans(&rng);
      }
      auto decoded = DecodeResponse(EncodeResponse(ok));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const auto* reply = std::get_if<OpenOk>(&*decoded);
      ASSERT_NE(reply, nullptr);
      EXPECT_TRUE(*reply == ok) << points << " points, spans " << with_spans;
    }
  }
}

// The OpenOk point block is bounds-checked like PacketReply's: a count
// at the u16 ceiling (kMaxWirePointsPerFrame, the largest a frame can
// declare) or one more point than the block holds is kCorruption.
TEST(WireCodecTest, OpenOkPointCountBeyondItsBlockIsCorruption) {
  Rng rng(29);
  const OpenOk ok{1, 2, RandomPacket(&rng, 67), {}};
  const std::vector<uint8_t> frame = EncodeResponse(ok);
  constexpr size_t kCountAt = 9 + 8 + 8;  // header, session id, nonce
  for (const uint16_t count :
       {static_cast<uint16_t>(kMaxWirePointsPerFrame), uint16_t{68}}) {
    std::vector<uint8_t> lie = frame;
    lie[kCountAt] = static_cast<uint8_t>(count);
    lie[kCountAt + 1] = static_cast<uint8_t>(count >> 8);
    ResealChecksum(&lie);
    EXPECT_TRUE(DecodeResponse(lie).status().IsCorruption()) << count;
  }
  // A truncated point block: the frame ends inside point 67.
  std::vector<uint8_t> cut(frame.begin(), frame.end() - 8);
  cut[0] = static_cast<uint8_t>(cut.size() - 9);
  cut[1] = static_cast<uint8_t>((cut.size() - 9) >> 8);
  ResealChecksum(&cut);
  EXPECT_TRUE(DecodeResponse(cut).status().IsCorruption());
}

TEST(WireCodecTest, OversizedSpanListIsClampedToValidFrame) {
  // The encoder clamps span names/notes/counts to the wire bounds rather
  // than failing, so arbitrary in-process traces always produce decodable
  // frames; the decode yields the clamped list.
  telemetry::SpanRecord huge;
  huge.name = std::string(300, 'n');
  huge.start_ns = 10;
  huge.end_ns = 20;
  for (int i = 0; i < 40; ++i) {
    huge.notes.emplace_back(std::string(100, 'k'), static_cast<uint64_t>(i));
  }
  CloseOk closed{7, std::vector<telemetry::SpanRecord>(300, huge)};
  auto decoded = DecodeResponse(EncodeResponse(closed));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* reply = std::get_if<CloseOk>(&*decoded);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->server_spans.size(), kMaxWireSpansPerFrame);
  const telemetry::SpanRecord& span = reply->server_spans[0];
  EXPECT_EQ(span.name.size(), kMaxWireSpanNameBytes);
  ASSERT_EQ(span.notes.size(), kMaxWireSpanNotes);
  EXPECT_EQ(span.notes[0].first.size(), kMaxWireNoteKeyBytes);
  EXPECT_EQ(span.notes[0].second, 0u);
}

/// Bit-at-a-time CRC-32 (reflected polynomial 0xEDB88320): the reference
/// the table-driven frame checksum must reproduce.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

TEST(WireCodecTest, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(WireCodecTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..2048 from start offsets 0..7 cover every 8-byte block count,
  // every tail length, and every alignment of the block loads.
  constexpr size_t kMaxLen = 2048;
  Rng rng(20080407);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace spacetwist::net
