// Cross-baseline comparison: every Euclidean technique in the repository
// answering the same workload at a comparable privacy span — GST
// (SpaceTwist + granular search), CLK (square cloak), DUMMY (dummy
// locations of Kido et al.), and the SHB/DHB transformation baselines.
// Reports communication, exactness, and the privacy notion each offers.
// Expected: GST is the only one combining low cost with a guaranteed
// error bound and a quantifiable inferred-region privacy value.

#include <cstdio>
#include <vector>

#include "baselines/dummy_baseline.h"
#include "baselines/hilbert_baseline.h"
#include "bench/bench_util.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

void Run() {
  PrintHeader("All baselines on one workload (privacy span ~ 400 m)");
  const datasets::Dataset ds = Ui(500000);
  auto server = BuildServer(ds);
  const auto queries =
      eval::GenerateQueryPoints(QueryCount(), ds.domain, kWorkloadSeed);
  const double span = 400;
  const size_t k = 4;

  eval::Table table(
      {"method", "packets", "mean err(m)", "privacy notion"});

  {
    eval::GstRunOptions gst;
    gst.params.k = k;
    gst.params.epsilon = 200;
    gst.params.anchor_distance = span;
    gst.seed = kRunSeed;
    auto agg = eval::RunGst(server.get(), queries, gst);
    SPACETWIST_CHECK(agg.ok());
    table.AddRow({"GST", Fmt2(agg->mean_packets), Fmt1(agg->mean_error),
                  StrFormat("Gamma=%.0fm (inferred region)",
                            agg->mean_privacy)});
  }
  {
    auto agg = eval::RunClk(server.get(), queries, k, span, kRunSeed);
    SPACETWIST_CHECK(agg.ok());
    table.AddRow({"CLK", Fmt2(agg->mean_packets), "0.0",
                  StrFormat("cloak extent %.0fm", 2 * span)});
  }
  {
    baselines::DummyLocationClient dummy(server.get(), net::PacketConfig());
    Rng rng(kRunSeed);
    telemetry::Accumulator packets;
    const size_t dummies = 9;
    for (const geom::Point& q : queries) {
      Rng query_rng = rng.Fork();
      auto result = dummy.Query(q, k, dummies, span, &query_rng);
      SPACETWIST_CHECK(result.ok());
      packets.Add(static_cast<double>(result->packets));
    }
    table.AddRow({"DUMMY", Fmt2(packets.Mean()), "0.0",
                  StrFormat("%zu-anonymous point set", dummies + 1)});
  }
  for (const int curves : {1, 2}) {
    baselines::HilbertKnnClient hilbert(ds, curves, 12, 777);
    telemetry::Accumulator err, packets;
    for (const geom::Point& q : queries) {
      auto truth = server->ExactKnn(q, k);
      SPACETWIST_CHECK(truth.ok());
      auto result = hilbert.Query(q, k);
      SPACETWIST_CHECK(result.ok());
      err.Add(result->neighbors.back().distance - truth->back().distance);
      packets.Add(static_cast<double>(result->packets));
    }
    table.AddRow({curves == 1 ? "SHB" : "DHB", Fmt2(packets.Mean()),
                  Fmt1(err.Mean()),
                  "transformation secrecy (no error bound)"});
  }
  table.Print(std::cout);
  std::printf("expected: CLK/DUMMY exact but cost scales with the privacy "
              "span; SHB/DHB cheap but unbounded error; GST low cost, "
              "bounded error, quantified privacy\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
