// Ablation for the Section VII discussion: the packet capacity beta
// conceals the client's exact termination point among the last packet's
// points. Larger beta -> larger inferred region -> more privacy, at the
// cost of shipping more points per packet. Sweeps beta and reports packets,
// received points, region area, and privacy value.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/spacetwist_client.h"
#include "eval/table.h"
#include "privacy/observation.h"
#include "privacy/region.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

void Run() {
  PrintHeader("Ablation (Sec. VII): packet capacity beta vs privacy");
  const std::vector<size_t> betas = {1, 4, 16, 67};
  const datasets::Dataset ds = Ui(500000);
  auto server = BuildServer(ds);
  const auto queries =
      eval::GenerateQueryPoints(QueryCount(), ds.domain, kWorkloadSeed);

  eval::Table table(
      {"beta", "packets", "points", "area(km^2)", "privacy(m)"});
  for (const size_t beta : betas) {
    Rng rng(kRunSeed);
    telemetry::Accumulator packets, points, area, privacy;
    for (const geom::Point& q : queries) {
      core::SpaceTwistClient client(server.get());
      core::QueryParams params;
      params.epsilon = 200;
      params.anchor_distance = 200;
      params.packet = net::PacketConfig::WithCapacity(beta);
      Rng query_rng = rng.Fork();
      auto outcome = client.Query(q, params, &query_rng);
      SPACETWIST_CHECK(outcome.ok());
      packets.Add(static_cast<double>(outcome->packets));
      points.Add(static_cast<double>(outcome->retrieved.size()));
      const privacy::Observation obs =
          privacy::MakeObservation(*outcome, server->domain());
      const privacy::PrivacyEstimate est =
          privacy::EstimatePrivacy(obs, q, 4000, &query_rng);
      area.Add(est.area / 1e6);
      privacy.Add(est.privacy_value);
    }
    table.AddRow({StrFormat("%zu", beta), Fmt1(packets.Mean()),
                  Fmt1(points.Mean()), Fmt2(area.Mean()),
                  Fmt1(privacy.Mean())});
  }
  table.Print(std::cout);
  std::printf("expected: area and privacy grow with beta (termination "
              "point concealed among more points)\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
