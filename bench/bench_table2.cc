// Reproduces Table II: result error (meters) versus k for the SHB and DHB
// transformation baselines and GST (epsilon = 200), on UI (N = 0.5M) and
// the SC / TG stand-ins. Expected shape: DHB < SHB on uniform data; both
// blow up on skewed data while GST stays well under its 200 m bound, more
// accurate on SC than TG.

#include <cstdio>
#include <vector>

#include "baselines/hilbert_baseline.h"
#include "bench/bench_util.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

constexpr int kHilbertLevel = 12;
constexpr uint64_t kHilbertKey = 777;

struct DatasetErrors {
  std::vector<double> shb;  // per k
  std::vector<double> dhb;
  std::vector<double> gst;
};

DatasetErrors MeasureDataset(const datasets::Dataset& ds,
                             const std::vector<size_t>& ks) {
  DatasetErrors out;
  auto server = BuildServer(ds);
  const auto queries =
      eval::GenerateQueryPoints(QueryCount(), ds.domain, kWorkloadSeed);
  const baselines::HilbertKnnClient shb(ds, 1, kHilbertLevel, kHilbertKey);
  const baselines::HilbertKnnClient dhb(ds, 2, kHilbertLevel, kHilbertKey);

  for (const size_t k : ks) {
    telemetry::Accumulator shb_err, dhb_err;
    for (const geom::Point& q : queries) {
      auto truth = server->ExactKnn(q, k);
      SPACETWIST_CHECK(truth.ok());
      const double true_dist = truth->back().distance;
      auto s = shb.Query(q, k);
      SPACETWIST_CHECK(s.ok());
      shb_err.Add(s->neighbors.back().distance - true_dist);
      auto d = dhb.Query(q, k);
      SPACETWIST_CHECK(d.ok());
      dhb_err.Add(d->neighbors.back().distance - true_dist);
    }
    out.shb.push_back(shb_err.Mean());
    out.dhb.push_back(dhb_err.Mean());

    eval::GstRunOptions gst;
    gst.params.k = k;
    gst.params.epsilon = 200;
    gst.params.anchor_distance = 200;
    gst.measure_privacy = false;
    gst.seed = kRunSeed;
    auto agg = eval::RunGst(server.get(), queries, gst);
    SPACETWIST_CHECK(agg.ok());
    out.gst.push_back(agg->mean_error);
  }
  return out;
}

void Run() {
  PrintHeader("Table II: result error (m) vs k  [SHB | DHB | GST]");
  const std::vector<size_t> ks = {1, 2, 4, 8, 16};

  const DatasetErrors ui = MeasureDataset(Ui(500000), ks);
  const DatasetErrors sc = MeasureDataset(Sc(), ks);
  const DatasetErrors tg = MeasureDataset(Tg(), ks);

  eval::Table table({"k", "UI.SHB", "UI.DHB", "UI.GST", "SC.SHB", "SC.DHB",
                     "SC.GST", "TG.SHB", "TG.DHB", "TG.GST"});
  for (size_t i = 0; i < ks.size(); ++i) {
    table.AddRow({StrFormat("%zu", ks[i]), Fmt1(ui.shb[i]), Fmt1(ui.dhb[i]),
                  Fmt1(ui.gst[i]), Fmt1(sc.shb[i]), Fmt1(sc.dhb[i]),
                  Fmt1(sc.gst[i]), Fmt1(tg.shb[i]), Fmt1(tg.dhb[i]),
                  Fmt1(tg.gst[i])});
  }
  table.Print(std::cout);
  std::printf("paper (UI, k=1): SHB 7.1, DHB 2.2, GST 51.3; "
              "skewed data: SHB/DHB errors explode, GST errors shrink\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
