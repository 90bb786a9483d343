// Serving-index ablation: per-query cost of granular INN on the Table I
// default workload (UI, N = 0.5M, epsilon = 200, k = 1, beta = 67). The
// `paged` row measures the oracle stream, server::GranularInnStream (buffer
// pool + per-point Next(), opened with OpenGranularSession); the `memidx`
// row the frontier kernel on the in-memory tree (arena slots + batched
// beta-pulls). The paged serving path (`--backend paged`) runs the same
// kernel on buffer-pool pages, so it lands between the two rows;
// docs/ALGORITHMS.md splits the gap into kernel and storage. Both rows are
// driven through the identical pull pattern and must report the
// bit-identical point stream; what changes is server.granular.*
// nanoseconds per query. At full scale the memidx row must be at least 5x
// cheaper — that is the artifact's claim and the run fails if it
// regresses. The row names are what the JSON validator expects.
//
// Sole writer of BENCH_latency.json (schema spacetwist.memidx.v1): one
// result entry per backend with its per-query latency histogram and its
// private server.granular.* registry snapshot, plus the headline speedup
// and the build it was measured in (CMake build type and whether NDEBUG
// was set), since the ratio moves with the optimization level.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "eval/table.h"
#include "server/inn_backend.h"
#include "telemetry/clock.h"

namespace spacetwist::bench {
namespace {

#ifndef SPACETWIST_BUILD_TYPE
#define SPACETWIST_BUILD_TYPE "unknown"
#endif
constexpr const char* kBuildType = SPACETWIST_BUILD_TYPE;
#if defined(NDEBUG)
constexpr uint64_t kNdebug = 1;
#else
constexpr uint64_t kNdebug = 0;
#endif

constexpr size_t kBeta = 67;       // the paper's packet capacity
constexpr size_t kPullsPerQuery = 4;  // ~4 packets/query, Table I regime
constexpr double kEpsilon = 200.0;
constexpr size_t kK = 1;

struct BackendRun {
  const char* name = nullptr;
  uint64_t total_ns = 0;
  double ns_per_query = 0.0;
  uint64_t points = 0;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  telemetry::HistogramSnapshot latency;
  telemetry::RegistrySnapshot granular;
};

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void FoldPoint(const rtree::DataPoint& p, uint64_t* digest) {
  const auto fold = [digest](uint64_t bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      *digest ^= (bits >> shift) & 0xFF;
      *digest *= 1099511628211ull;
    }
  };
  fold(p.id);
  fold(DoubleBits(p.point.x));
  fold(DoubleBits(p.point.y));
}

/// Serves workload queries [lo, hi) through `open`'s streams —
/// kPullsPerQuery batched beta-pulls per query, or until dry — and
/// accumulates serving nanoseconds into `*run`. The clock covers the
/// serving side only (session open and the NextBatch pulls); digest folding
/// and batch bookkeeping happen with the clock stopped, so the measurement
/// is the backend's cost, not the bench's.
template <typename OpenFn>
void MeasureBlock(const std::vector<std::pair<geom::Point, geom::Point>>&
                      workload,
                  size_t lo, size_t hi, telemetry::Histogram* latency,
                  telemetry::Clock* clock,
                  std::vector<rtree::DataPoint>* batch, BackendRun* run,
                  OpenFn&& open) {
  for (size_t i = lo; i < hi; ++i) {
    const geom::Point& anchor = workload[i].second;
    uint64_t elapsed = 0;
    uint64_t start = clock->NowNs();
    std::unique_ptr<server::InnSource> source = open(anchor);
    elapsed += clock->NowNs() - start;
    for (size_t pull = 0; pull < kPullsPerQuery; ++pull) {
      batch->clear();
      start = clock->NowNs();
      const Status status = source->NextBatch(kBeta, batch);
      elapsed += clock->NowNs() - start;
      SPACETWIST_CHECK(status.ok()) << status.ToString();
      for (const rtree::DataPoint& p : *batch) FoldPoint(p, &run->digest);
      run->points += batch->size();
      if (batch->size() < kBeta) break;  // stream dry
    }
    latency->Record(elapsed);
    run->total_ns += elapsed;
  }
}

void Run() {
  PrintHeader("Memidx serving index: paged vs in-memory granular INN cost");

  const datasets::Dataset ds = Ui(500000);
  rtree::RTreeOptions rtree_options;
  auto server = server::LbsServer::Build(ds, rtree_options,
                                         server::ServingIndex::kMemidx);
  SPACETWIST_CHECK(server.ok()) << server.status().ToString();

  // Fixed (query, anchor) workload, anchors 200 m from the true location
  // (Section V guideline) — identical for both backends by construction.
  Rng rng(kWorkloadSeed);
  std::vector<std::pair<geom::Point, geom::Point>> workload;
  const size_t queries = eval::ScaledCount(400, 20);
  for (size_t i = 0; i < queries; ++i) {
    const geom::Point q{rng.Uniform(500, 9500), rng.Uniform(500, 9500)};
    const double angle = rng.Angle();
    const geom::Point anchor{q.x + 200.0 * std::cos(angle),
                             q.y + 200.0 * std::sin(angle)};
    workload.push_back({q, anchor});
  }

  // The backends alternate in blocks of kBlock queries rather than running
  // as two monolithic phases: machine-wide speed drift (frequency scaling,
  // noisy neighbors) then lands on both sides of the ratio about equally
  // instead of skewing whichever backend ran in the slower minute. Blocks —
  // not per-query interleave — so each backend still serves from its own
  // warm structures, as it would in a real deployment; the transition cost
  // amortizes over the block.
  constexpr size_t kBlock = 25;
  telemetry::MetricRegistry paged_registry;
  server::GranularOptions paged_options;
  paged_options.registry = &paged_registry;
  telemetry::MetricRegistry mem_registry;
  server::GranularOptions mem_options;
  mem_options.registry = &mem_registry;
  server::LbsServer* lbs = server->get();

  BackendRun paged;
  paged.name = "paged";
  BackendRun memidx;
  memidx.name = "memidx";
  telemetry::Histogram* paged_latency =
      paged_registry.GetHistogram("server.granular.serve_ns");
  telemetry::Histogram* mem_latency =
      mem_registry.GetHistogram("server.granular.serve_ns");
  telemetry::Clock* clock = telemetry::DefaultClock();
  std::vector<rtree::DataPoint> batch;
  for (size_t lo = 0; lo < workload.size(); lo += kBlock) {
    const size_t hi = std::min(workload.size(), lo + kBlock);
    MeasureBlock(workload, lo, hi, paged_latency, clock, &batch, &paged,
                 [&](const geom::Point& a) {
                   return std::unique_ptr<server::InnSource>(
                       lbs->OpenGranularSession(a, kEpsilon, kK,
                                                paged_options));
                 });
    MeasureBlock(workload, lo, hi, mem_latency, clock, &batch, &memidx,
                 [&](const geom::Point& a) {
                   return lbs->OpenInnSource(a, kEpsilon, kK, mem_options);
                 });
  }
  paged.ns_per_query = static_cast<double>(paged.total_ns) /
                       static_cast<double>(workload.size());
  memidx.ns_per_query = static_cast<double>(memidx.total_ns) /
                        static_cast<double>(workload.size());
  paged.latency = paged_latency->Snapshot();
  memidx.latency = mem_latency->Snapshot();
  paged.granular = paged_registry.Snapshot();
  memidx.granular = mem_registry.Snapshot();

  // The whole point of the differential layer: same pull pattern, same
  // points, bit for bit — the backends differ only in cost.
  SPACETWIST_CHECK(paged.digest == memidx.digest)
      << "memidx stream diverged from the paged oracle";
  SPACETWIST_CHECK(paged.points == memidx.points);

  const double speedup = paged.ns_per_query / memidx.ns_per_query;
  eval::Table table({"backend", "ns/query", "p50.ns", "p99.ns", "points"});
  for (const BackendRun* run : {&paged, &memidx}) {
    table.AddRow({run->name, StrFormat("%.0f", run->ns_per_query),
                  StrFormat("%.0f", run->latency.Percentile(0.50)),
                  StrFormat("%.0f", run->latency.Percentile(0.99)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(run->points))});
  }
  table.Print(std::cout);
  std::printf(
      "speedup=%.1fx over %zu queries; streams byte-identical "
      "(build %s, NDEBUG %s)\n",
      speedup, workload.size(), kBuildType, kNdebug != 0 ? "on" : "off");

  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "memidx_serving");
  json.KV("schema", "spacetwist.memidx.v1");
  json.KV("dataset_points", static_cast<uint64_t>(ds.points.size()));
  json.KV("queries", static_cast<uint64_t>(workload.size()));
  json.KV("beta", static_cast<uint64_t>(kBeta));
  json.KV("pulls_per_query", static_cast<uint64_t>(kPullsPerQuery));
  json.KV("build_type", std::string_view(kBuildType));
  json.KV("ndebug", kNdebug);
  json.Key("results").BeginArray();
  for (const BackendRun* run : {&paged, &memidx}) {
    json.BeginObject();
    json.KV("backend", run->name);
    json.KV("ns_per_query", run->ns_per_query, 1);
    json.KV("points", run->points);
    json.KV("digest_match", uint64_t{1});
    json.Key("latency_ns");
    telemetry::WriteHistogram(run->latency, &json);
    json.Key("telemetry").BeginObject();
    telemetry::WriteSnapshot(run->granular, &json);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.KV("speedup", speedup, 1);
  json.EndObject();
  WriteJsonFile("BENCH_latency.json", json);

  if (eval::BenchScale() >= 1.0) {
    // The acceptance gate: an order-of-magnitude-class serving win. Only
    // meaningful at paper scale — tiny trees fit in the buffer pool and
    // flatter the paged path. Checked after the artifact is written so a
    // regression leaves the numbers behind for diagnosis.
    SPACETWIST_CHECK(speedup >= 5.0)
        << "memidx serving must be >= 5x cheaper than paged, got "
        << StrFormat("%.2f", speedup) << "x (build " << kBuildType << ")";
  }
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
