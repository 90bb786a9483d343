// End-to-end coverage of the distributed-tracing pipeline: TraceSink
// admission, the Chrome-trace_event exporter, the StatszTicker, the merged
// client+server trace across the wire boundary, and per-query trade-off
// records — everything under VirtualClock so reruns are byte-identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "datasets/generator.h"
#include "net/wire.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/wire_client.h"
#include "telemetry/clock.h"
#include "telemetry/export.h"
#include "telemetry/registry.h"
#include "telemetry/statsz_ticker.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"
#include "telemetry/trace_sink.h"

#include "eval/load_generator.h"
#include "eval/tradeoff.h"

namespace spacetwist {
namespace {

using telemetry::MetricRegistry;
using telemetry::SpanRecord;
using telemetry::StatszTicker;
using telemetry::Trace;
using telemetry::TraceRecord;
using telemetry::TraceSink;
using telemetry::TraceSinkOptions;
using telemetry::VirtualClock;

bool HasSpan(const std::vector<SpanRecord>& spans, std::string_view name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// TraceSink: deterministic every-Nth sampling under a hard capacity.

TEST(TraceSinkTest, SamplesEveryNthAndBoundsCapacity) {
  TraceSinkOptions options;
  options.capacity = 3;
  options.sample_every = 2;
  TraceSink sink(options);
  for (uint64_t i = 0; i < 10; ++i) {
    sink.Offer(TraceRecord{i + 1, {}});
  }
  // Offers 0,2,4 buffered; 6 and 8 sampled in but over capacity; odd
  // offers skipped by the sampler (not counted as drops).
  EXPECT_EQ(sink.offered(), 10u);
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.size(), 3u);

  const std::vector<TraceRecord> drained = sink.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].trace_id, 1u);
  EXPECT_EQ(drained[1].trace_id, 3u);
  EXPECT_EQ(drained[2].trace_id, 5u);
  EXPECT_EQ(sink.size(), 0u);

  // Draining frees capacity; the every-Nth cadence keeps counting.
  EXPECT_TRUE(sink.Offer(TraceRecord{11, {}}));   // offer 10: sampled in
  EXPECT_FALSE(sink.Offer(TraceRecord{12, {}}));  // offer 11: skipped
  EXPECT_EQ(sink.size(), 1u);
}

// ---------------------------------------------------------------------------
// Exporter: schema-stamped, Perfetto-loadable, byte-identical re-renders.

std::vector<TraceRecord> MakeTraces() {
  VirtualClock clock(0, /*auto_advance_ns=*/7);
  Trace trace(&clock);
  trace.set_trace_id(0x0123456789abcdefULL);
  {
    Trace::Span open = trace.StartSpan("wire.open");
    open.Note("attempts", 1);
    {
      Trace::Span dispatch = trace.StartSpan("server.dispatch");
      trace.Event("server.replay", 4);
    }
  }
  return {TraceRecord{trace.trace_id(), trace.records()}};
}

TEST(TraceExportTest, EmitsSchemaProcessesSpansAndInstants) {
  const std::string json = telemetry::TracesToJson(MakeTraces());
  EXPECT_EQ(json, telemetry::TracesToJson(MakeTraces()));  // byte-identical

  // Cross-check with our own parser: the document must round-trip.
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* schema = doc->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string(), telemetry::kTraceSchema);
  const JsonValue* unit = doc->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string(), "ns");

  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t metadata = 0, complete = 0, instants = 0;
  bool saw_server_pid2 = false;
  for (const JsonValue& event : events->array()) {
    const std::string ph = event.Find("ph")->string();
    if (ph == "M") ++metadata;
    if (ph == "X") ++complete;
    if (ph == "i") ++instants;
    if (ph != "M") {
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("trace_id")->string(), "0x0123456789abcdef");
      if (event.Find("name")->string() == "server.dispatch") {
        saw_server_pid2 = event.Find("pid")->number() == 2.0;
      }
    }
  }
  EXPECT_EQ(metadata, 2u);  // client + server process_name
  EXPECT_EQ(complete, 2u);  // wire.open + server.dispatch
  EXPECT_EQ(instants, 1u);  // server.replay
  EXPECT_TRUE(saw_server_pid2) << "server spans must land on pid 2";
}

// ---------------------------------------------------------------------------
// StatszTicker: interval-driven sampling on the injected clock
// (`serve-bench --statsz-interval` behind a VirtualClock).

TEST(StatszTickerTest, SamplesOnVirtualClockIntervals) {
  VirtualClock clock(0, 0);  // manual advance only
  MetricRegistry registry;
  registry.GetCounter("ticker.polls")->Add(1);
  StatszTicker ticker(&clock, &registry, /*interval_ns=*/1'000'000'000);

  EXPECT_FALSE(ticker.Poll());  // t=0: first deadline is 1s
  clock.Advance(999'999'999);
  EXPECT_FALSE(ticker.Poll());  // t=1s - 1ns
  clock.Advance(1);
  EXPECT_TRUE(ticker.Poll());   // t=1s exactly
  EXPECT_FALSE(ticker.Poll());  // same interval: no second sample

  // Several intervals elapse unobserved: one catch-up sample, then the
  // cadence realigns to the next whole interval (t=5s).
  clock.Advance(3'500'000'000);
  EXPECT_TRUE(ticker.Poll());
  EXPECT_FALSE(ticker.Poll());
  clock.Advance(500'000'000);
  EXPECT_TRUE(ticker.Poll());

  ASSERT_EQ(ticker.samples().size(), 3u);
  EXPECT_EQ(ticker.samples()[0].at_ns, 1'000'000'000u);
  EXPECT_EQ(ticker.samples()[1].at_ns, 4'500'000'000u);
  EXPECT_EQ(ticker.samples()[2].at_ns, 5'000'000'000u);
  EXPECT_EQ(ticker.start_ns(), 0u);
  for (const telemetry::StatszSample& sample : ticker.samples()) {
    EXPECT_NE(sample.text.find("=== spacetwist statsz ==="),
              std::string::npos);
    EXPECT_NE(sample.text.find("ticker.polls"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// ToStatsz structure under VirtualClock: sections in fixed order, values
// derived only from the injected timeline, deterministic re-render.

TEST(StatszStructureTest, PageIsStructuredAndClockDisciplined) {
  VirtualClock clock(0, /*auto_advance_ns=*/250);
  MetricRegistry registry;
  telemetry::Histogram* latency =
      registry.GetHistogram("test.latency_ns");
  for (int i = 0; i < 4; ++i) {
    const uint64_t start = clock.NowNs();
    const uint64_t end = clock.NowNs();
    latency->Record(end - start);  // always 250 on the virtual timeline
  }
  registry.GetCounter("test.queries")->Add(4);
  registry.GetGauge("test.depth")->Set(-1);

  const std::string page = telemetry::ToStatsz(registry.Snapshot());
  EXPECT_EQ(page, telemetry::ToStatsz(registry.Snapshot()));

  // Structure: header, schema line, then the three sections in order.
  const size_t header = page.find("=== spacetwist statsz ===");
  const size_t schema = page.find(telemetry::kTelemetrySchema);
  const size_t counters = page.find("\ncounters:\n");
  const size_t gauges = page.find("\ngauges:\n");
  const size_t histograms = page.find("\nhistograms:\n");
  ASSERT_NE(header, std::string::npos);
  ASSERT_NE(schema, std::string::npos);
  ASSERT_NE(counters, std::string::npos);
  ASSERT_NE(gauges, std::string::npos);
  ASSERT_NE(histograms, std::string::npos);
  EXPECT_LT(header, schema);
  EXPECT_LT(schema, counters);
  EXPECT_LT(counters, gauges);
  EXPECT_LT(gauges, histograms);

  // Values come straight off the virtual timeline: every latency is 250.
  EXPECT_NE(page.find("count=4 mean=250.0 min=250 max=250"),
            std::string::npos);
  EXPECT_NE(page.find("test.queries"), std::string::npos);
  EXPECT_NE(page.find("test.depth"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The tentpole, in miniature: one query over the wire boundary produces a
// single merged trace holding client spans AND the server spans that rode
// back piggybacked on the replies, all under one trace id; the server
// retains its copy in the TraceSink.

TEST(MergedTraceTest, ClientAndServerSpansShareOneTraceId) {
  const datasets::Dataset dataset = datasets::GenerateUniform(2000, 811);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto server =
      server::LbsServer::Build(dataset, rtree_options).MoveValueOrDie();

  MetricRegistry registry;
  VirtualClock clock(0, /*auto_advance_ns=*/3);
  TraceSink sink;
  service::ServiceOptions options;
  options.clock = &clock;
  options.registry = &registry;
  options.trace_sink = &sink;
  service::ServiceEngine engine(server.get(), options);
  net::DirectTransport transport(&engine);

  Trace trace(&clock);
  service::RetryConfig retry;
  retry.seed = 7;
  retry.registry = &registry;
  retry.trace = &trace;
  auto session = service::WireSession::Open(
      &transport, geom::Point{4800, 5100}, /*epsilon=*/150.0, /*k=*/2,
      retry);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int i = 0; i < 4; ++i) {
    auto packet = (*session)->NextPacket();
    if (!packet.ok()) break;
  }
  ASSERT_TRUE((*session)->Close().ok());

  // One trace id for the whole query, stamped on the trace by the client.
  EXPECT_NE(trace.trace_id(), 0u);
  EXPECT_EQ(trace.trace_id(), (*session)->trace_id());

  const std::vector<SpanRecord> spans = trace.records();
  // Client-side spans...
  EXPECT_TRUE(HasSpan(spans, "wire.open"));
  EXPECT_TRUE(HasSpan(spans, "wire.pull"));
  EXPECT_TRUE(HasSpan(spans, "wire.close"));
  // ...and the server's, shipped across the wire and merged in.
  EXPECT_TRUE(HasSpan(spans, "server.dispatch"));
  EXPECT_TRUE(HasSpan(spans, "server.open"));
  EXPECT_TRUE(HasSpan(spans, "server.pull"));
  EXPECT_TRUE(HasSpan(spans, "server.granular.scan"));
  EXPECT_TRUE(HasSpan(spans, "server.page.fetch"));
  EXPECT_TRUE(HasSpan(spans, "server.close"));
  for (const SpanRecord& span : spans) {
    EXPECT_FALSE(span.open) << span.name;
    if (span.name.rfind("server.", 0) == 0) {
      // Adopted server spans nest under the client span that was open
      // when their frame arrived.
      EXPECT_GE(span.depth, 1u) << span.name;
    }
  }

  // The granular scan span accounts for the cell/heap work it wrapped.
  for (const SpanRecord& span : spans) {
    if (span.name != "server.granular.scan") continue;
    bool has_heap_pops = false;
    for (const auto& [key, value] : span.notes) {
      if (key == "heap_pops") has_heap_pops = true;
    }
    EXPECT_TRUE(has_heap_pops);
  }

  // The server retained its own copy: the retired session's spans reached
  // the sink under the same trace id.
  const std::vector<TraceRecord> retained = sink.Drain();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].trace_id, trace.trace_id());
  EXPECT_TRUE(HasSpan(retained[0].spans, "server.dispatch"));
  EXPECT_TRUE(HasSpan(retained[0].spans, "server.granular.scan"));
  EXPECT_FALSE(HasSpan(retained[0].spans, "wire.pull"));
}

// ---------------------------------------------------------------------------
// Trade-off accounting: one record per query in a seeded workload, with the
// accuracy leg scored against ground truth, and a byte-identical export.

struct WorkloadArtifacts {
  eval::LoadReport report;
  std::string json;
};

WorkloadArtifacts RunTracedWorkload() {
  const datasets::Dataset dataset = datasets::GenerateUniform(3000, 917);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto server =
      server::LbsServer::Build(dataset, rtree_options).MoveValueOrDie();

  MetricRegistry registry;
  VirtualClock clock(0, /*auto_advance_ns=*/5);
  service::ServiceOptions options;
  options.clock = &clock;
  options.registry = &registry;
  service::ServiceEngine engine(server.get(), options);

  eval::LoadOptions load;
  load.worker_threads = 1;  // the virtual clock ticks once per read
  load.clock = &clock;
  load.registry = &registry;
  load.trace_every = 2;
  load.truth = server.get();

  auto report = eval::RunLoad(
      &engine,
      eval::BuildClosedLoopWorkload(server->domain(), load.params, 4, 3, 99),
      load);
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  telemetry::JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", telemetry::kTraceSchema);
  telemetry::WriteTraceEvents(report->traces, &writer);
  eval::WriteTradeoffs(report->tradeoffs, &writer);
  writer.EndObject();
  return WorkloadArtifacts{std::move(*report), writer.str()};
}

TEST(TradeoffTest, EveryQueryGetsARecordAndExportsDeterministically) {
  WorkloadArtifacts run = RunTracedWorkload();
  const auto& report = run.report;

  // One record per query, folded client-major.
  ASSERT_EQ(report.tradeoffs.size(), 12u);
  for (size_t i = 0; i < report.tradeoffs.size(); ++i) {
    const eval::TradeoffRecord& rec = report.tradeoffs[i];
    EXPECT_EQ(rec.client, i / 3);
    EXPECT_EQ(rec.query_index, i % 3);
    EXPECT_TRUE(rec.error_evaluated);
    EXPECT_GE(rec.packets, 1u);
    EXPECT_GT(rec.latency_ns, 0u);
    EXPECT_GT(rec.anchor_distance, 0.0);
    EXPECT_GE(rec.tau, rec.gamma);  // Algorithm 1 terminates with tau>=gamma
    EXPECT_GT(rec.downlink_bytes, 0u);
    EXPECT_GT(rec.uplink_bytes, 0u);
    // Sampling stamp: every 2nd query (global index) carries a trace id.
    const bool sampled = (rec.client * 3 + rec.query_index) % 2 == 0;
    if (sampled) {
      EXPECT_EQ(rec.trace_id,
                eval::QueryTraceId(99, rec.client, rec.query_index));
    } else {
      EXPECT_EQ(rec.trace_id, 0u);
    }
  }
  // Every sampled query produced a merged trace with both tiers present.
  ASSERT_EQ(report.traces.size(), 6u);
  for (const TraceRecord& trace : report.traces) {
    EXPECT_NE(trace.trace_id, 0u);
    EXPECT_TRUE(HasSpan(trace.spans, "wire.pull"));
    EXPECT_TRUE(HasSpan(trace.spans, "server.granular.scan"));
  }

  // The export parses, and a fresh identically-seeded run (fresh server,
  // fresh VirtualClock) renders byte-identical output.
  auto doc = ParseJson(run.json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* tradeoffs = doc->Find("tradeoffs");
  ASSERT_NE(tradeoffs, nullptr);
  EXPECT_EQ(tradeoffs->array().size(), 12u);
  EXPECT_EQ(run.json, RunTracedWorkload().json);
}

}  // namespace
}  // namespace spacetwist
