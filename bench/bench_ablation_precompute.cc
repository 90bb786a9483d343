// Ablation for Section IV-B's design discussion: run-time granular search
// (Algorithm 2, any epsilon at query time) vs the rejected pre-computation
// alternative (a small R-tree of per-cell representatives, fixed epsilon).
// Measures per-query server page reads and packets for both, plus the
// precomputed index's size. Expected: precomputation wins on query-time
// work — the paper rejects it only because epsilon must be known up front.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/anchor.h"
#include "core/spacetwist_client.h"
#include "eval/table.h"
#include "net/channel.h"
#include "server/precomputed_granular.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

void Run() {
  PrintHeader(
      "Ablation (Sec. IV-B): online granular search vs precomputation");
  const datasets::Dataset ds = Ui(500000);
  auto server = BuildServer(ds);
  const auto queries =
      eval::GenerateQueryPoints(QueryCount(), ds.domain, kWorkloadSeed);

  eval::Table table({"epsilon", "online pkts", "online reads",
                     "pre pkts", "pre reads", "pre reps", "pre pages"});
  for (const double eps : {100.0, 200.0, 500.0}) {
    // Online path: the regular SpaceTwist client over the full index.
    eval::GstRunOptions online;
    online.params.epsilon = eps;
    online.params.anchor_distance = 200;
    online.measure_error = false;
    online.measure_privacy = false;
    online.seed = kRunSeed;
    auto online_agg = eval::RunGst(server.get(), queries, online);
    SPACETWIST_CHECK(online_agg.ok());

    // Precomputed path: Algorithm 1 against the representative tree.
    auto index = server::PrecomputedGranularIndex::Build(ds, eps, 1)
                     .MoveValueOrDie();
    Rng rng(kRunSeed);
    telemetry::Accumulator pre_packets, pre_reads;
    for (const geom::Point& q : queries) {
      Rng query_rng = rng.Fork();
      const geom::Point anchor =
          core::GenerateAnchor(q, 200, ds.domain, &query_rng);
      auto stream = index->OpenInnSession(anchor);
      net::PacketChannel channel(stream.get(), net::PacketConfig());
      const uint64_t reads_before =
          index->tree()->buffer_pool()->stats().logical_reads;
      // Client algorithm, inlined for the alternative transport.
      double gamma = 1e18;
      double tau = 0.0;
      uint64_t packets = 0;
      const double anchor_dist = geom::Distance(q, anchor);
      while (gamma + anchor_dist > tau) {
        auto packet = channel.NextPacket();
        if (!packet.ok()) break;
        ++packets;
        for (const rtree::DataPoint& p : packet->points) {
          tau = geom::Distance(anchor, p.point);
          gamma = std::min(gamma, geom::Distance(q, p.point));
        }
      }
      pre_packets.Add(static_cast<double>(packets));
      pre_reads.Add(static_cast<double>(
          index->tree()->buffer_pool()->stats().logical_reads -
          reads_before));
    }

    table.AddRow({Fmt1(eps), Fmt2(online_agg->mean_packets),
                  Fmt1(online_agg->mean_node_reads),
                  Fmt2(pre_packets.Mean()), Fmt1(pre_reads.Mean()),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        index->representative_count())),
                  StrFormat("%zu", index->page_count())});
  }
  table.Print(std::cout);
  std::printf("expected: near-identical packets; the precomputed index "
              "does far fewer page reads but is locked to one epsilon "
              "(why Section IV-B builds the run-time algorithm instead)\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
