// Shard scale-out: the same closed-loop client load run against
// Hilbert-partitioned fleets of 1/2/4/8 shards behind a ShardRouter.
// Expected shape: per-query digests stay byte-identical to one server at
// every fleet size (the router is invisible), while the mean per-query
// fan-out stays well below the fleet size — contiguous Hilbert ranges keep
// shards spatially clustered, so a supply disk touches few partition
// rectangles and scale-out buys capacity without scattering every query.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/load_generator.h"
#include "eval/table.h"
#include "shard/router.h"
#include "telemetry/metric.h"
#include "telemetry/timeseries.h"

namespace spacetwist::bench {
namespace {

struct Measurement {
  size_t shards = 0;
  double mean_fanout = 0.0;
  uint32_t max_fanout = 0;
  std::vector<uint64_t> per_shard_pulls;
  std::vector<uint64_t> shard_points;
  eval::LoadReport report;
};

void Run() {
  PrintHeader("Shard scale-out: fleet size vs fan-out and throughput");

  const datasets::Dataset ds = Ui(500000);
  auto truth = BuildServer(ds);

  const size_t num_clients = eval::ScaledCount(256, 64);
  const size_t queries_per_client = eval::ScaledCount(32, 16);
  eval::LoadOptions load;
  load.worker_threads = 8;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      ds.domain, load.params, num_clients, queries_per_client, kRunSeed);

  // Single-server direct-path digests: the fleet must reproduce these
  // byte-for-byte at every size.
  auto reference = eval::RunReference(truth.get(), schedule, load.params);
  SPACETWIST_CHECK(reference.ok()) << reference.status().ToString();

  const std::vector<size_t> fleet_sizes = {1, 2, 4, 8};
  std::vector<Measurement> measurements;
  for (const size_t shards : fleet_sizes) {
    shard::ShardRouterOptions options;
    options.num_shards = shards;
    options.front.max_sessions = num_clients * 2;
    auto router = shard::ShardRouter::Build(ds, options);
    SPACETWIST_CHECK(router.ok()) << router.status().ToString();
    shard::ShardRouter* rt = router->get();

    // Every fleet counts into the same default-registry instruments — its
    // pulls into shard.<i>.pulls, each query's fan-out (one merged stream
    // per query on this fault-free link) into shard.router.fanout — so each
    // fleet's share is the growth around its run.
    std::vector<telemetry::Counter*> pull_counters;
    std::vector<uint64_t> pulls_before;
    for (size_t i = 0; i < shards; ++i) {
      pull_counters.push_back(
          rt->registry()->GetCounter(StrFormat("shard.%zu.pulls", i)));
      pulls_before.push_back(pull_counters.back()->value());
    }
    const telemetry::Histogram* fanout_hist =
        rt->registry()->GetHistogram("shard.router.fanout");
    const telemetry::HistogramSnapshot fanout_before = fanout_hist->Snapshot();
    auto report = eval::RunLoad(rt->front(), schedule, load);
    SPACETWIST_CHECK(report.ok()) << report.status().ToString();
    SPACETWIST_CHECK(report->digests == *reference)
        << shards << " shards changed query results vs one server";
    // The fleet's own records; its max is the top of the highest bucket
    // that grew, exact here because values below 32 have unit buckets.
    const telemetry::HistogramSnapshot fanout =
        telemetry::SubtractHistogramSnapshot(fanout_hist->Snapshot(),
                                             fanout_before);

    Measurement m;
    m.shards = shards;
    m.mean_fanout = fanout.count == 0 ? 0.0
                                      : static_cast<double>(fanout.sum) /
                                            static_cast<double>(fanout.count);
    m.max_fanout = static_cast<uint32_t>(fanout.max);
    for (size_t i = 0; i < shards; ++i) {
      m.per_shard_pulls.push_back(pull_counters[i]->value() - pulls_before[i]);
      m.shard_points.push_back(
          rt->partitioner().partition(i).dataset.points.size());
    }
    m.report = std::move(*report);
    measurements.push_back(std::move(m));
  }

  eval::Table table({"shards", "qps", "mean.fanout", "max.fanout",
                     "shard.pulls", "p99.ms", "digests"});
  for (const Measurement& m : measurements) {
    uint64_t pulls = 0;
    for (const uint64_t p : m.per_shard_pulls) pulls += p;
    table.AddRow({StrFormat("%zu", m.shards),
                  Fmt1(m.report.queries_per_second), Fmt2(m.mean_fanout),
                  StrFormat("%u", m.max_fanout),
                  StrFormat("%llu", static_cast<unsigned long long>(pulls)),
                  StrFormat("%.3f", m.report.p99_latency_ms), "match"});
  }
  table.Print(std::cout);
  std::printf("clients=%zu queries/client=%zu; every fleet size reproduced "
              "the single-server digests byte-for-byte\n",
              num_clients, queries_per_client);

  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "shard_scaling");
  json.KV("schema", "spacetwist.shard.v1");
  json.KV("clients", static_cast<uint64_t>(num_clients));
  json.KV("queries_per_client", static_cast<uint64_t>(queries_per_client));
  json.Key("results").BeginArray();
  for (const Measurement& m : measurements) {
    json.BeginObject();
    json.KV("shards", static_cast<uint64_t>(m.shards));
    json.KV("qps", m.report.queries_per_second, 1);
    json.KV("p99_ms", m.report.p99_latency_ms);
    json.KV("mean_fanout", m.mean_fanout);
    json.KV("max_fanout", m.max_fanout);
    json.KV("digest_match", static_cast<uint64_t>(1));
    json.Key("per_shard_pulls").BeginArray();
    for (const uint64_t p : m.per_shard_pulls) json.Value(p);
    json.EndArray();
    json.Key("shard_points").BeginArray();
    for (const uint64_t p : m.shard_points) json.Value(p);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  FinishBenchJson("BENCH_shard.json", &json);
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
