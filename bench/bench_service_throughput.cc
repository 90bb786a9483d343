// Serving-engine throughput: M closed-loop clients running real SpaceTwist
// queries (Algorithm 1 over the wire codec) against one shared
// ServiceEngine, swept across worker thread counts. Expected shape: qps
// scales with threads (>= 3x from 1 -> 8 given >= 8 hardware cores; the
// table prints the detected core count since speedup is bounded by it)
// while per-query digests stay byte-identical to the single-threaded
// direct path — concurrency buys throughput, never different answers.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/load_generator.h"
#include "eval/table.h"
#include "service/service_engine.h"

namespace spacetwist::bench {
namespace {

struct Measurement {
  size_t threads = 0;
  eval::LoadReport report;
};

void Run() {
  PrintHeader("Service throughput: closed-loop clients vs worker threads");

  const datasets::Dataset ds = Ui(500000);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;  // shared tree, many threads
  auto server = server::LbsServer::Build(ds, rtree_options);
  SPACETWIST_CHECK(server.ok()) << server.status().ToString();

  // Floors keep the run long enough (~1k queries) that qps reflects steady
  // state rather than thread wake-up latency, even at tiny bench scales.
  const size_t num_clients = eval::ScaledCount(256, 64);
  const size_t queries_per_client = eval::ScaledCount(32, 16);
  eval::LoadOptions load;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      server->get()->domain(), load.params, num_clients, queries_per_client,
      kRunSeed);

  // Single-threaded direct-path digests: the correctness yardstick.
  auto reference = eval::RunReference(server->get(), schedule, load.params);
  SPACETWIST_CHECK(reference.ok()) << reference.status().ToString();

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Measurement> measurements;
  for (const size_t threads : thread_counts) {
    service::ServiceOptions options;
    options.num_shards = 16;
    options.max_sessions = num_clients * 2;
    service::ServiceEngine engine(server->get(), options);
    load.worker_threads = threads;
    auto report = eval::RunLoad(&engine, schedule, load);
    SPACETWIST_CHECK(report.ok()) << report.status().ToString();
    SPACETWIST_CHECK(report->digests == *reference)
        << "thread count " << threads
        << " changed query results vs the single-threaded reference";
    measurements.push_back({threads, std::move(*report)});
  }

  const double base_qps = measurements.front().report.queries_per_second;
  eval::Table table({"threads", "qps", "speedup", "p50.ms", "p99.ms",
                     "packets", "points"});
  for (const Measurement& m : measurements) {
    table.AddRow({StrFormat("%zu", m.threads),
                  Fmt1(m.report.queries_per_second),
                  Fmt2(m.report.queries_per_second / base_qps),
                  StrFormat("%.3f", m.report.p50_latency_ms),
                  StrFormat("%.3f", m.report.p99_latency_ms),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        m.report.packets)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        m.report.points))});
  }
  table.Print(std::cout);
  std::printf("clients=%zu queries/client=%zu hardware_cores=%u; digests "
              "byte-identical to the direct single-threaded path at every "
              "thread count\n",
              num_clients, queries_per_client,
              std::thread::hardware_concurrency());

  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "service_throughput");
  json.KV("clients", static_cast<uint64_t>(num_clients));
  json.KV("queries_per_client", static_cast<uint64_t>(queries_per_client));
  json.KV("hardware_cores", std::thread::hardware_concurrency());
  json.Key("results").BeginArray();
  for (const Measurement& m : measurements) {
    json.BeginObject();
    json.KV("threads", static_cast<uint64_t>(m.threads));
    json.KV("qps", m.report.queries_per_second, 1);
    json.KV("p50_ms", m.report.p50_latency_ms);
    json.KV("p99_ms", m.report.p99_latency_ms);
    // The full distribution behind the p50/p99 columns (the tail is where
    // contention shows first). BENCH_latency.json now belongs to
    // bench_memidx's serving-backend comparison.
    json.Key("latency_ns");
    telemetry::WriteHistogram(m.report.latency, &json);
    json.EndObject();
  }
  json.EndArray();
  FinishBenchJson("BENCH_service.json", &json);
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
