// End-to-end distributed tracing over the serving stack: a closed-loop
// traced workload runs through the wire codec against a ServiceEngine, the
// client merges the piggybacked server spans into one trace tree per query,
// and the run exports the Chrome-trace_event document (BENCH_trace.json,
// schema spacetwist.trace.v2) plus one trade-off record per query. The whole
// run is driven by a VirtualClock, and the export is rendered twice from two
// identically-seeded runs and checked byte-identical — determinism is the
// claim, not just a convenience.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/load_generator.h"
#include "eval/table.h"
#include "eval/tradeoff.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/trace_export.h"
#include "telemetry/trace_sink.h"

namespace spacetwist::bench {
namespace {

struct TracedRun {
  std::string json;
  eval::LoadReport report;
  uint64_t sink_offered = 0;
  uint64_t sink_recorded = 0;
  uint64_t sink_dropped = 0;
};

// One full traced pass under a fresh VirtualClock and a fresh server.
// worker_threads stays 1: the virtual clock ticks once per read, so a single
// worker makes the span timeline (and therefore the exported bytes) a pure
// function of the seed. The server is rebuilt per run because page-fetch
// spans note buffer-pool misses — a warmed pool would change the bytes.
TracedRun RunTraced(const datasets::Dataset& ds, size_t num_clients,
                    size_t queries_per_client) {
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto built = server::LbsServer::Build(ds, rtree_options);
  SPACETWIST_CHECK(built.ok()) << built.status().ToString();
  server::LbsServer* server = built->get();

  telemetry::VirtualClock clock(/*start_ns=*/0, /*auto_advance_ns=*/1000);
  telemetry::MetricRegistry registry;  // keep the process registry clean

  telemetry::TraceSinkOptions sink_options;
  sink_options.sample_every = 2;  // server-side retention at half rate
  telemetry::TraceSink sink(sink_options);

  service::ServiceOptions options;
  options.max_sessions = num_clients * 2;
  options.clock = &clock;
  options.registry = &registry;
  options.trace_sink = &sink;
  service::ServiceEngine engine(server, options);

  eval::LoadOptions load;
  load.worker_threads = 1;
  load.clock = &clock;
  load.registry = &registry;
  // Every query gets a trade-off record; every 8th query gets a full
  // trace. Tracing all 512 queries at paper scale would balloon the
  // committed artifact past 5 MB without adding information — 64 traces
  // already cover every phase and the byte-identity claim.
  load.trace_every = 8;
  load.truth = server;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      server->domain(), load.params, num_clients, queries_per_client,
      kRunSeed);

  // Every query closes its wire session, so by the time the load returns
  // all sessions have retired through Absorb and the sink is complete.
  auto report = eval::RunLoad(&engine, schedule, load);
  SPACETWIST_CHECK(report.ok()) << report.status().ToString();
  SPACETWIST_CHECK(report->first_failure.ok())
      << report->first_failure.ToString();

  TracedRun run;
  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("schema", telemetry::kTraceSchema);
  json.KV("bench", "trace");
  json.KV("clients", static_cast<uint64_t>(num_clients));
  json.KV("queries_per_client", static_cast<uint64_t>(queries_per_client));
  json.KV("seed", kRunSeed);
  telemetry::WriteTraceEvents(report->traces, &json);
  eval::WriteTradeoffs(report->tradeoffs, &json);
  json.EndObject();
  run.json = json.str();
  run.report = std::move(*report);
  run.sink_offered = sink.offered();
  run.sink_recorded = sink.recorded();
  run.sink_dropped = sink.dropped();
  return run;
}

void Run() {
  PrintHeader("Distributed tracing: merged client+server spans, trade-off "
              "records, deterministic export");

  const datasets::Dataset ds = Ui(100000);

  const size_t num_clients = eval::ScaledCount(64, 8);
  const size_t queries_per_client = eval::ScaledCount(8, 4);

  TracedRun first = RunTraced(ds, num_clients, queries_per_client);
  TracedRun second = RunTraced(ds, num_clients, queries_per_client);
  SPACETWIST_CHECK(first.json == second.json)
      << "trace export is not byte-identical across identically-seeded "
         "VirtualClock runs";

  // Per-phase latency breakdown straight from the merged trace trees.
  struct PhaseAgg {
    std::string name;
    uint64_t spans = 0;
    uint64_t total_ns = 0;
  };
  std::vector<PhaseAgg> phases;
  uint64_t merged_server_spans = 0;
  for (const telemetry::TraceRecord& trace : first.report.traces) {
    for (const telemetry::SpanRecord& span : trace.spans) {
      if (span.instant) continue;
      if (span.name.rfind("server.", 0) == 0) ++merged_server_spans;
      PhaseAgg* agg = nullptr;
      for (PhaseAgg& candidate : phases) {
        if (candidate.name == span.name) {
          agg = &candidate;
          break;
        }
      }
      if (agg == nullptr) {
        phases.push_back(PhaseAgg{span.name, 0, 0});
        agg = &phases.back();
      }
      ++agg->spans;
      agg->total_ns += span.end_ns - span.start_ns;
    }
  }
  eval::Table table({"phase", "spans", "total(us)", "mean(us)"});
  for (const PhaseAgg& agg : phases) {
    table.AddRow({agg.name,
                  StrFormat("%llu",
                            static_cast<unsigned long long>(agg.spans)),
                  StrFormat("%.3f", agg.total_ns / 1e3),
                  StrFormat("%.3f",
                            agg.spans > 0
                                ? agg.total_ns / 1e3 / agg.spans
                                : 0.0)});
  }
  table.Print(std::cout);

  SPACETWIST_CHECK(merged_server_spans > 0)
      << "no server spans made it across the wire boundary";
  SPACETWIST_CHECK(first.report.tradeoffs.size() ==
                   num_clients * queries_per_client)
      << "expected one trade-off record per query";
  std::printf("%zu traces (%llu server spans merged client-side), %zu "
              "trade-off records; server sink offered=%llu recorded=%llu "
              "dropped=%llu (sample_every=2)\n",
              first.report.traces.size(),
              static_cast<unsigned long long>(merged_server_spans),
              first.report.tradeoffs.size(),
              static_cast<unsigned long long>(first.sink_offered),
              static_cast<unsigned long long>(first.sink_recorded),
              static_cast<unsigned long long>(first.sink_dropped));
  std::printf("export byte-identical across two VirtualClock runs "
              "(%zu bytes)\n", first.json.size());

  std::FILE* f = std::fopen("BENCH_trace.json", "w");
  SPACETWIST_CHECK(f != nullptr) << "cannot open BENCH_trace.json";
  std::fwrite(first.json.data(), 1, first.json.size(), f);
  std::fclose(f);
  std::printf("wrote BENCH_trace.json\n");
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
