// Road-network extension (Section VIII research direction): SpaceTwist
// with shortest-path distances. Sweeps the anchor network distance and
// reports packets, server Dijkstra work, and the (exactly computed) privacy
// value, against the discrete vertex-cloaking baseline at a cloak size
// whose privacy region cardinality is comparable. Expected shape mirrors
// the Euclidean story: SpaceTwist's cost grows mildly with the privacy
// target while the cloaking baseline's cost is proportional to it.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "eval/table.h"
#include "roadnet/network_client.h"
#include "roadnet/network_dataset.h"
#include "roadnet/network_privacy.h"
#include "roadnet/vertex_cloak.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

void Run() {
  PrintHeader("Road network: SpaceTwist vs vertex cloaking (k = 2)");
  roadnet::NetworkGenParams params;
  params.grid_side = eval::ScaledCount(45, 12);
  params.extent = 10000;
  params.poi_count = eval::ScaledCount(3000, 100);
  const roadnet::NetworkDataset ds =
      roadnet::GenerateNetwork(params, kDatasetSeed);
  std::printf("network: %zu vertices, %zu edges, %zu POIs\n",
              ds.network.vertex_count(), ds.network.edge_count(),
              ds.pois.size());

  roadnet::NetworkSpaceTwistClient client(&ds);
  const size_t queries = QueryCount() / 2 + 1;
  const std::vector<double> dists = {250, 500, 1000, 2000};

  eval::Table table({"anchor dist", "ST pkts", "ST settled", "ST |Psi|",
                     "ST Gamma", "CLK pois", "CLK settled", "CLK |cloak|"});
  for (const double dist : dists) {
    Rng rng(kRunSeed);
    telemetry::Accumulator st_packets, st_settled, st_region, st_gamma;
    telemetry::Accumulator clk_pois, clk_settled;
    size_t cloak_size = 0;
    for (size_t i = 0; i < queries; ++i) {
      const roadnet::VertexId q = static_cast<roadnet::VertexId>(
          rng.UniformInt(0,
                         static_cast<int64_t>(ds.network.vertex_count()) -
                             1));
      roadnet::NetworkQueryParams st;
      st.k = 2;
      st.anchor_distance = dist;
      st.beta = 16;
      auto outcome = client.Query(q, st, &rng);
      SPACETWIST_CHECK(outcome.ok()) << outcome.status().ToString();
      st_packets.Add(static_cast<double>(outcome->packets));
      st_settled.Add(
          static_cast<double>(outcome->server_vertices_settled));
      auto region = roadnet::DeriveNetworkPrivacyRegion(
          ds, roadnet::MakeNetworkObservation(*outcome), q);
      SPACETWIST_CHECK(region.ok());
      st_region.Add(static_cast<double>(region->possible_vertices.size()));
      st_gamma.Add(region->privacy_value);

      // Match the baseline's privacy (cloak cardinality) to SpaceTwist's
      // measured region cardinality for an apples-to-apples cost read.
      cloak_size = std::max<size_t>(
          2, static_cast<size_t>(st_region.Mean()));
      auto clk = roadnet::VertexCloakQuery(ds, q, 2, cloak_size,
                                           1.5 * dist, &rng);
      SPACETWIST_CHECK(clk.ok());
      clk_pois.Add(static_cast<double>(clk->candidate_pois));
      clk_settled.Add(static_cast<double>(clk->server_vertices_settled));
    }
    table.AddRow({Fmt1(dist), Fmt1(st_packets.Mean()),
                  Fmt1(st_settled.Mean()), Fmt1(st_region.Mean()),
                  Fmt1(st_gamma.Mean()), Fmt1(clk_pois.Mean()),
                  Fmt1(clk_settled.Mean()), StrFormat("%zu", cloak_size)});
  }
  table.Print(std::cout);
  std::printf("expected: SpaceTwist privacy (Gamma, |Psi|) scales with the "
              "anchor distance at near-flat packet cost; the cloaking "
              "baseline pays server work proportional to the cloak\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
