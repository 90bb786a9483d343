// trace-report summarizers (src/cli/trace_report.h): dispatch queue-delay
// folding over Chrome-trace span events, and the flight-recorder /
// timeseries document report the CLI prints for --timeseries output.

#include "cli/trace_report.h"

#include <string>

#include "common/json.h"
#include "gtest/gtest.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"

namespace spacetwist::cli {
namespace {

JsonValue MustParse(std::string_view text) {
  Result<JsonValue> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? doc.MoveValueOrDie() : JsonValue();
}

// One lane: a client wire.pull span [100, 400] us carrying a
// server.dispatch [130, 360] (queue delay 30), plus a second lane whose
// dispatch has no enclosing client span (unmatched).
constexpr std::string_view kTraceDoc = R"({
  "schema": "spacetwist.trace.v2",
  "traceEvents": [
    {"name": "wire.pull", "ph": "X", "ts": 100.0, "dur": 300.0,
     "pid": 1, "tid": 1},
    {"name": "server.dispatch", "ph": "X", "ts": 130.0, "dur": 230.0,
     "pid": 2, "tid": 1},
    {"name": "wire.pull", "ph": "X", "ts": 150.0, "dur": 200.0,
     "pid": 1, "tid": 1},
    {"name": "server.dispatch", "ph": "X", "ts": 170.0, "dur": 100.0,
     "pid": 2, "tid": 1},
    {"name": "server.dispatch", "ph": "X", "ts": 500.0, "dur": 50.0,
     "pid": 2, "tid": 2},
    {"name": "server.open", "ph": "X", "ts": 140.0, "dur": 10.0,
     "pid": 2, "tid": 1},
    {"name": "client.note", "ph": "i", "ts": 120.0, "pid": 1, "tid": 1}
  ]
})";

TEST(DispatchQueueDelay, FoldsServerDispatchAgainstEnclosingClientSpans) {
  const JsonValue doc = MustParse(kTraceDoc);
  const DispatchQueueDelaySummary summary = SummarizeDispatchQueueDelay(doc);
  EXPECT_EQ(summary.dispatches, 3u);
  // Lane 2's dispatch has no client span; lane 1's two dispatches match.
  EXPECT_EQ(summary.matched, 2u);
  // First dispatch: innermost enclosing client span starts at 100 -> 30.
  // Second dispatch at 170: innermost is the wire.pull at 150 -> 20.
  EXPECT_DOUBLE_EQ(summary.total_delay_us, 50.0);
  EXPECT_DOUBLE_EQ(summary.max_delay_us, 30.0);
  EXPECT_DOUBLE_EQ(summary.mean_delay_us(), 25.0);
  EXPECT_DOUBLE_EQ(summary.total_dur_us, 380.0);
  EXPECT_DOUBLE_EQ(summary.max_dur_us, 230.0);
  const std::string text = FormatDispatchQueueDelay(summary);
  EXPECT_NE(text.find("3 dispatches"), std::string::npos);
  EXPECT_NE(text.find("2 matched"), std::string::npos);
}

TEST(DispatchQueueDelay, EmptyDocumentReportsNoSpans) {
  const JsonValue doc = MustParse(R"({"traceEvents": []})");
  const DispatchQueueDelaySummary summary = SummarizeDispatchQueueDelay(doc);
  EXPECT_EQ(summary.dispatches, 0u);
  EXPECT_NE(FormatDispatchQueueDelay(summary).find("no server.dispatch"),
            std::string::npos);
}

TEST(TimeSeriesDocument, SchemaDetection) {
  EXPECT_TRUE(IsTimeSeriesDocument(
      MustParse(R"({"schema": "spacetwist.timeseries.v1"})")));
  EXPECT_FALSE(IsTimeSeriesDocument(
      MustParse(R"({"schema": "spacetwist.trace.v2"})")));
  EXPECT_FALSE(IsTimeSeriesDocument(MustParse("[]")));
  // The cli-side literal must track the exporter's schema tag.
  EXPECT_EQ(std::string(telemetry::kTimeSeriesSchema),
            "spacetwist.timeseries.v1");
}

TEST(TimeSeriesDocument, SummarizesTripsAndFlightDump) {
  // Round-trip through the real exporter so the summarizer is tested
  // against the exact layout the CLI will read.
  telemetry::TimeSeries series;
  series.interval_ns = 250000000;
  series.start_ns = 0;
  telemetry::IntervalSample sample;
  sample.index = 0;
  sample.start_ns = 0;
  sample.end_ns = 250000000;
  sample.counter_deltas.emplace_back("eval.arrival.offered", 12);
  series.intervals.push_back(sample);

  telemetry::SloReport slo;
  telemetry::SloObjective objective;
  objective.name = "eval.arrival.queue_delay_ns:p99";
  objective.instrument = "eval.arrival.queue_delay_ns";
  objective.limit = 5e6;
  slo.objectives.push_back(objective);
  telemetry::SloTrip trip;
  trip.objective = objective.name;
  trip.interval_index = 0;
  trip.observed = 8.5e6;
  trip.limit = 5e6;
  telemetry::FlightRecord record;
  record.trace_id = 77;
  record.latency_ns = 9000000;
  record.packets = 4;
  record.tau = 812.5;
  record.gamma = 400.25;
  record.anchor_distance = 212.0;
  trip.flight.push_back(record);
  slo.trips.push_back(trip);

  const JsonValue doc =
      MustParse(telemetry::TimeSeriesToJson(series, &slo));
  ASSERT_TRUE(IsTimeSeriesDocument(doc));
  const std::string text = SummarizeTimeSeriesDocument(doc);
  EXPECT_NE(text.find("1 intervals of 250.000 ms"), std::string::npos);
  EXPECT_NE(text.find("eval.arrival.queue_delay_ns p99 <= 5000000.000"),
            std::string::npos);
  EXPECT_NE(text.find("slo trips: 1"), std::string::npos);
  EXPECT_NE(text.find("trip 1: eval.arrival.queue_delay_ns:p99 at "
                      "interval 0"),
            std::string::npos);
  EXPECT_NE(text.find("flight recorder (1 records"), std::string::npos);
  EXPECT_NE(text.find("77"), std::string::npos);  // the trace id
  // Summaries are deterministic: same document, same text.
  EXPECT_EQ(text, SummarizeTimeSeriesDocument(doc));
}

TEST(TimeSeriesDocument, NoSloSection) {
  telemetry::TimeSeries series;
  series.interval_ns = 1000;
  const JsonValue doc =
      MustParse(telemetry::TimeSeriesToJson(series, nullptr));
  EXPECT_NE(SummarizeTimeSeriesDocument(doc).find("no slo section"),
            std::string::npos);
}

}  // namespace
}  // namespace spacetwist::cli
