#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace spacetwist::net {
namespace {

/// Structured fuzzing of the wire decoders: every message type gets a
/// budget of >= 100k Rng-mutated frames (bit flips, length-field lies,
/// truncations, extensions, concatenated frames, splices, raw noise) and
/// the decoders must stay total — return a value or an error Status, never
/// crash, never read out of bounds (the ASan/UBSan CI job turns "out of
/// bounds" into a hard failure). The same mutation engine backs the
/// optional libFuzzer harness in tools/wire_fuzzer.cc.

constexpr int kMutationsPerType = 100'000;

/// Up to 67 float32-exact points (one β-sized packet).
Packet RandomPacket(Rng* rng) {
  Packet packet;
  const size_t n = static_cast<size_t>(rng->UniformInt(0, 67));
  for (size_t i = 0; i < n; ++i) {
    packet.points.push_back(
        {{static_cast<double>(static_cast<float>(rng->Uniform(0, 10000))),
          static_cast<double>(static_cast<float>(rng->Uniform(0, 10000)))},
         static_cast<uint32_t>(rng->Next())});
  }
  return packet;
}

/// A sampled Open's span block: dispatch, open, and the first scan.
std::vector<telemetry::SpanRecord> OpenSpans(Rng* rng) {
  std::vector<telemetry::SpanRecord> spans;
  const char* const names[] = {"server.dispatch", "server.open",
                               "server.granular.scan"};
  for (int depth = 0; depth < 3; ++depth) {
    telemetry::SpanRecord span;
    span.name = names[depth];
    span.start_ns = rng->Next() >> 1;
    span.end_ns = span.start_ns + static_cast<uint64_t>(depth);
    span.depth = depth;
    span.notes.emplace_back("points", rng->Next());
    spans.push_back(std::move(span));
  }
  return spans;
}

/// A seed frame of each request/response type, sized so mutations explore
/// non-trivial payload structure.
std::vector<uint8_t> SeedFrame(MessageType type, Rng* rng) {
  switch (type) {
    case MessageType::kOpenRequest: {
      OpenRequest open;
      open.anchor = {rng->Uniform(0, 10000), rng->Uniform(0, 10000)};
      open.epsilon = rng->Uniform(0, 1000);
      open.k = static_cast<uint32_t>(rng->UniformInt(1, 64));
      open.nonce = rng->Next();
      return EncodeRequest(open);
    }
    case MessageType::kPullRequest:
      return EncodeRequest(PullRequest{rng->Next(), rng->Next()});
    case MessageType::kCloseRequest:
      return EncodeRequest(CloseRequest{rng->Next()});
    case MessageType::kOpenOk: {
      // v4: packet 0 rides the OpenOk, with a sampled Open's spans half
      // of the time.
      OpenOk ok{rng->Next(), rng->Next(), RandomPacket(rng), {}};
      if (rng->UniformInt(0, 1) == 1) ok.server_spans = OpenSpans(rng);
      return EncodeResponse(ok);
    }
    case MessageType::kPacket: {
      const Packet packet = RandomPacket(rng);
      return EncodeResponse(PacketReply{rng->Next(), rng->Next(), packet, {}});
    }
    case MessageType::kCloseOk:
      return EncodeResponse(CloseOk{rng->Next(), {}});
    case MessageType::kError: {
      ErrorReply error;
      error.code = static_cast<StatusCode>(rng->UniformInt(1, kMaxStatusCode));
      error.session_id = rng->Next();
      const size_t len = static_cast<size_t>(rng->UniformInt(0, 48));
      for (size_t i = 0; i < len; ++i) {
        error.message.push_back(static_cast<char>(rng->UniformInt(32, 126)));
      }
      return EncodeResponse(error);
    }
  }
  return {};
}

/// One Rng-driven mutation of a valid frame.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& frame, Rng* rng) {
  std::vector<uint8_t> out = frame;
  switch (rng->UniformInt(0, 6)) {
    case 0: {  // flip 1..8 random bits
      const int flips = static_cast<int>(rng->UniformInt(1, 8));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        const size_t pos = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(out.size()) - 1));
        out[pos] ^= static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
      }
      return out;
    }
    case 1: {  // length-field lie: rewrite the declared payload length
      const uint32_t lie = static_cast<uint32_t>(rng->Next());
      for (int b = 0; b < 4 && static_cast<size_t>(b) < out.size(); ++b) {
        out[b] = static_cast<uint8_t>(lie >> (8 * b));
      }
      return out;
    }
    case 2: {  // truncate anywhere
      out.resize(static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(out.size()))));
      return out;
    }
    case 3: {  // extend with garbage
      const size_t extra = static_cast<size_t>(rng->UniformInt(1, 32));
      for (size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<uint8_t>(rng->UniformInt(0, 255)));
      }
      return out;
    }
    case 4: {  // concatenate two valid frames (decoders take exactly one)
      out.insert(out.end(), frame.begin(), frame.end());
      return out;
    }
    case 5: {  // splice: random cut of the frame glued to its own prefix
      const size_t cut = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(out.size())));
      out.resize(cut);
      const size_t take = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(frame.size())));
      out.insert(out.end(), frame.begin(), frame.begin() + take);
      return out;
    }
    default: {  // pure noise of a plausible size
      out.assign(static_cast<size_t>(rng->UniformInt(0, 64)), 0);
      for (uint8_t& byte : out) {
        byte = static_cast<uint8_t>(rng->UniformInt(0, 255));
      }
      return out;
    }
  }
}

class WireFuzzTest : public ::testing::TestWithParam<MessageType> {};

TEST_P(WireFuzzTest, HundredThousandMutationsNeverCrashTheDecoders) {
  const MessageType type = GetParam();
  Rng rng(0xF022 + static_cast<uint64_t>(type));
  uint64_t rejected = 0;
  int done = 0;
  while (done < kMutationsPerType) {
    // Fresh seed frame every 64 mutations keeps payload shapes varied.
    const std::vector<uint8_t> seed = SeedFrame(type, &rng);
    for (int m = 0; m < 64 && done < kMutationsPerType; ++m, ++done) {
      const std::vector<uint8_t> mutated = Mutate(seed, &rng);
      // Both decoders must be total on arbitrary bytes; a mutated frame
      // that still decodes (e.g. a flip that cancelled out) is fine — the
      // property under test is "no crash, no UB, errors are clean".
      auto request = DecodeRequest(mutated.data(), mutated.size());
      if (!request.ok()) {
        EXPECT_FALSE(request.status().message().empty());
        ++rejected;
      }
      auto response = DecodeResponse(mutated.data(), mutated.size());
      if (!response.ok()) {
        EXPECT_FALSE(response.status().message().empty());
      }
    }
  }
  // Sanity: the mutator is actually corrupting things.
  EXPECT_GT(rejected, static_cast<uint64_t>(kMutationsPerType) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, WireFuzzTest,
    ::testing::Values(MessageType::kOpenRequest, MessageType::kPullRequest,
                      MessageType::kCloseRequest, MessageType::kOpenOk,
                      MessageType::kPacket, MessageType::kCloseOk,
                      MessageType::kError),
    [](const ::testing::TestParamInfo<MessageType>& info) {
      switch (info.param) {
        case MessageType::kOpenRequest:
          return std::string("OpenRequest");
        case MessageType::kPullRequest:
          return std::string("PullRequest");
        case MessageType::kCloseRequest:
          return std::string("CloseRequest");
        case MessageType::kOpenOk:
          return std::string("OpenOk");
        case MessageType::kPacket:
          return std::string("Packet");
        case MessageType::kCloseOk:
          return std::string("CloseOk");
        case MessageType::kError:
          return std::string("Error");
      }
      return std::string("Unknown");
    });

TEST(WireFuzzTest, DecodersAreTotalOnTinyBuffers) {
  // Exhaustive over all buffers of length 0..2 and a byte sweep at the
  // type position of a length-3 header prefix.
  EXPECT_FALSE(DecodeRequest(nullptr, 0).ok());
  for (int a = 0; a < 256; ++a) {
    const uint8_t one[] = {static_cast<uint8_t>(a)};
    EXPECT_FALSE(DecodeRequest(one, 1).ok());
    EXPECT_FALSE(DecodeResponse(one, 1).ok());
    const uint8_t two[] = {static_cast<uint8_t>(a), 0x00};
    EXPECT_FALSE(DecodeRequest(two, 2).ok());
    const uint8_t three[] = {0x00, 0x00, static_cast<uint8_t>(a)};
    EXPECT_FALSE(DecodeResponse(three, 3).ok());
  }
}

}  // namespace
}  // namespace spacetwist::net
