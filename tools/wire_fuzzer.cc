// libFuzzer entry point for the wire codec (built only with
// -DSPACETWIST_FUZZ=ON, which requires a clang toolchain:
//
//   cmake -B build-fuzz -DSPACETWIST_FUZZ=ON \
//         -DCMAKE_CXX_COMPILER=clang++ -DSPACETWIST_SANITIZE=address
//   cmake --build build-fuzz --target wire_fuzzer
//   ./build-fuzz/tools/wire_fuzzer corpus/
//
// The coverage-guided search explores the same property the deterministic
// structured fuzzer (tests/wire_fuzz_test.cc) sweeps with a fixed budget:
// DecodeRequest / DecodeResponse are total on arbitrary bytes — a value or
// an error Status, never a crash, never an out-of-bounds read. It is seeded
// with a valid frame of every message shape (see SeedFrames), so it starts
// from real structure instead of having to discover the frame checksum.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/wire.h"

extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace {

/// One valid frame of every message shape, the v4 OpenOk with 0, 1 and 67
/// points, each with and without a sampled Open's spans.
const std::vector<std::vector<uint8_t>>& SeedFrames() {
  namespace net = spacetwist::net;
  static const auto* const seeds = new std::vector<std::vector<uint8_t>>([] {
    const auto points = [](size_t n) {
      net::Packet packet;
      for (size_t i = 0; i < n; ++i) {
        packet.points.push_back(
            {{1000.0 + 7.5 * static_cast<double>(i), 2000.25},
             static_cast<uint32_t>(i)});
      }
      return packet;
    };
    std::vector<spacetwist::telemetry::SpanRecord> spans(3);
    const char* const names[] = {"server.dispatch", "server.open",
                                 "server.granular.scan"};
    for (int i = 0; i < 3; ++i) {
      spans[i].name = names[i];
      spans[i].start_ns = 100 + static_cast<uint64_t>(i);
      spans[i].end_ns = 200 - static_cast<uint64_t>(i);
      spans[i].depth = i;
    }
    spans[2].notes.emplace_back("points", 67);
    net::OpenRequest open;
    open.anchor = {5000.5, 4999.25};
    open.epsilon = 200.0;
    open.k = 4;
    open.nonce = 0x5EED;
    std::vector<std::vector<uint8_t>> frames = {
        net::EncodeRequest(open),
        net::EncodeRequest(net::PullRequest{9, 1, 0xABC, true}),
        net::EncodeRequest(net::CloseRequest{9}),
        net::EncodeResponse(net::PacketReply{9, 1, points(67), spans}),
        net::EncodeResponse(net::CloseOk{9, spans}),
        net::EncodeResponse(
            net::ErrorReply{spacetwist::StatusCode::kExhausted, 9, "dry"}),
    };
    for (const size_t n : {size_t{0}, size_t{1}, size_t{67}}) {
      frames.push_back(
          net::EncodeResponse(net::OpenOk{9, 0x5EED, points(n), {}}));
      frames.push_back(
          net::EncodeResponse(net::OpenOk{9, 0x5EED, points(n), spans}));
    }
    return frames;
  }());
  return *seeds;
}

}  // namespace

/// Every 16th mutation restarts from a seed frame; the rest are libFuzzer's
/// own mutations of the input.
extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed) {
  const std::vector<std::vector<uint8_t>>& seeds = SeedFrames();
  if (seed % 16 == 0) {
    const std::vector<uint8_t>& frame = seeds[(seed / 16) % seeds.size()];
    if (frame.size() <= max_size) {
      std::memcpy(data, frame.data(), frame.size());
      return frame.size();
    }
  }
  return LLVMFuzzerMutate(data, size, max_size);
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using spacetwist::net::DecodeRequest;
  using spacetwist::net::DecodeResponse;

  auto request = DecodeRequest(data, size);
  if (request.ok()) {
    // A frame that decodes must re-encode and decode to the same message
    // (encode is canonical, so the round trip is a strict check).
    const auto frame = spacetwist::net::EncodeRequest(*request);
    auto again = DecodeRequest(frame.data(), frame.size());
    if (!again.ok() || !(*again == *request)) __builtin_trap();
  }
  auto response = DecodeResponse(data, size);
  if (response.ok()) {
    const auto frame = spacetwist::net::EncodeResponse(*response);
    auto again = DecodeResponse(frame.data(), frame.size());
    if (!again.ok() || !(*again == *response)) __builtin_trap();
  }
  return 0;
}
