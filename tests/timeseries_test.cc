// Windowed time-series layer (docs/OBSERVABILITY.md §7): the
// TimeSeriesCollector's window/delta semantics, the SubtractHistogramSnapshot
// exactness property, the SLO watchdog's burn-rate trips + escalation, the
// flight-recorder ring, StatszTicker/collector deadline agreement, and the
// open-loop runner's byte-identical exports with a knee that trips the
// watchdog.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"
#include "telemetry/slo.h"
#include "telemetry/statsz_ticker.h"
#include "telemetry/timeseries.h"

namespace spacetwist::telemetry {
namespace {

constexpr uint64_t kSecond = 1000000000;

TEST(TimeSeriesCollectorTest, WindowsCarryPerIntervalDeltas) {
  VirtualClock clock(0);
  MetricRegistry registry;
  Counter* requests = registry.GetCounter("t.requests");
  Gauge* depth = registry.GetGauge("t.depth");
  Histogram* latency = registry.GetHistogram("t.latency_ns");

  TimeSeriesCollector::Options options;
  options.interval_ns = kSecond;
  TimeSeriesCollector collector(&clock, &registry, options);
  EXPECT_EQ(collector.Poll(), 0u);  // nothing elapsed

  requests->Add(3);
  depth->Add(5);
  latency->Record(100);
  latency->Record(200);
  clock.Set(kSecond);
  ASSERT_EQ(collector.Poll(), 1u);

  requests->Add(7);
  depth->Add(-2);
  latency->Record(400);
  clock.Set(2 * kSecond);
  ASSERT_EQ(collector.Poll(), 1u);

  const TimeSeries& series = collector.series();
  ASSERT_EQ(series.intervals.size(), 2u);
  const IntervalSample& w0 = series.intervals[0];
  EXPECT_EQ(w0.index, 0u);
  EXPECT_EQ(w0.start_ns, 0u);
  EXPECT_EQ(w0.end_ns, kSecond);
  ASSERT_EQ(w0.counter_deltas.size(), 1u);
  EXPECT_EQ(w0.counter_deltas[0].first, "t.requests");
  EXPECT_EQ(w0.counter_deltas[0].second, 3u);
  ASSERT_EQ(w0.gauge_samples.size(), 1u);
  EXPECT_EQ(w0.gauge_samples[0].second, 5);
  ASSERT_EQ(w0.histogram_windows.size(), 1u);
  EXPECT_EQ(w0.histogram_windows[0].second.count, 2u);
  EXPECT_EQ(w0.histogram_windows[0].second.sum, 300u);

  const IntervalSample& w1 = series.intervals[1];
  EXPECT_EQ(w1.counter_deltas[0].second, 7u);  // delta, not cumulative
  EXPECT_EQ(w1.gauge_samples[0].second, 3);    // gauges sample the level
  EXPECT_EQ(w1.histogram_windows[0].second.count, 1u);
  EXPECT_EQ(w1.histogram_windows[0].second.sum, 400u);
}

TEST(TimeSeriesCollectorTest, CatchUpWindowsAreExplicitZeros) {
  VirtualClock clock(0);
  MetricRegistry registry;
  Counter* requests = registry.GetCounter("t.requests");
  TimeSeriesCollector::Options options;
  options.interval_ns = kSecond;
  TimeSeriesCollector collector(&clock, &registry, options);

  // Poll-before-record discipline: the driver polls at the new timestamp
  // *before* recording, so the pending delta belongs to the first elapsed
  // window and the silent windows after it are explicit zeros.
  requests->Add(4);
  clock.Set(4 * kSecond);
  ASSERT_EQ(collector.Poll(), 4u);
  const TimeSeries& series = collector.series();
  EXPECT_EQ(series.intervals[0].counter_deltas[0].second, 4u);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(series.intervals[i].counter_deltas[0].second, 0u) << i;
    EXPECT_EQ(series.intervals[i].start_ns, i * kSecond);
    EXPECT_EQ(series.intervals[i].end_ns, (i + 1) * kSecond);
  }
}

TEST(TimeSeriesCollectorTest, BoundedRingEvictsOldestAndKeepsIndices) {
  VirtualClock clock(0);
  MetricRegistry registry;
  TimeSeriesCollector::Options options;
  options.interval_ns = kSecond;
  options.capacity = 3;
  TimeSeriesCollector collector(&clock, &registry, options);
  clock.Set(5 * kSecond);
  EXPECT_EQ(collector.Poll(), 5u);
  const TimeSeries& series = collector.series();
  EXPECT_EQ(series.dropped_intervals, 2u);
  ASSERT_EQ(series.intervals.size(), 3u);
  EXPECT_EQ(series.intervals.front().index, 2u);  // global indices survive
  EXPECT_EQ(series.intervals.back().index, 4u);
}

TEST(TimeSeriesCollectorTest, FlushClosesPartialWindowOnNominalGrid) {
  VirtualClock clock(0);
  MetricRegistry registry;
  Counter* requests = registry.GetCounter("t.requests");
  TimeSeriesCollector::Options options;
  options.interval_ns = kSecond;
  TimeSeriesCollector collector(&clock, &registry, options);

  requests->Add(2);
  clock.Set(kSecond / 2);
  EXPECT_EQ(collector.Poll(), 0u);   // mid-window: nothing closes
  EXPECT_TRUE(collector.Flush());    // run over: capture the tail
  const TimeSeries& series = collector.series();
  ASSERT_EQ(series.intervals.size(), 1u);
  EXPECT_EQ(series.intervals[0].end_ns, kSecond);  // nominal deadline kept
  EXPECT_EQ(series.intervals[0].counter_deltas[0].second, 2u);
  EXPECT_FALSE(collector.Flush());   // nothing new since
}

/// Property (per tests/lemma_property_test.cc): for any record sequence
/// split anywhere, subtracting the prefix's cumulative snapshot from the
/// full one reproduces the suffix's distribution exactly — count, sum, and
/// every bucket. This is the claim windowed percentiles stand on.
TEST(SubtractHistogramSnapshotTest, PrefixDifferenceIsExactSuffixHistogram) {
  Rng rng(20080407);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Next() % 200;
    const size_t split = rng.Next() % (n + 1);
    std::vector<uint64_t> values(n);
    for (uint64_t& v : values) {
      // Spread across many octaves to exercise sub-bucket boundaries.
      v = rng.Next() % (uint64_t{1} << (4 + rng.Next() % 40));
    }
    Histogram cumulative;
    Histogram suffix_only;
    HistogramSnapshot prefix_snapshot;
    for (size_t i = 0; i < n; ++i) {
      if (i == split) prefix_snapshot = cumulative.Snapshot();
      cumulative.Record(values[i]);
      if (i >= split) suffix_only.Record(values[i]);
    }
    if (split == n) prefix_snapshot = cumulative.Snapshot();
    const HistogramSnapshot window =
        SubtractHistogramSnapshot(cumulative.Snapshot(), prefix_snapshot);
    const HistogramSnapshot expected = suffix_only.Snapshot();
    EXPECT_EQ(window.count, expected.count) << "trial " << trial;
    EXPECT_EQ(window.sum, expected.sum) << "trial " << trial;
    ASSERT_EQ(window.buckets.size(), expected.buckets.size())
        << "trial " << trial;
    for (size_t b = 0; b < window.buckets.size(); ++b) {
      EXPECT_EQ(window.buckets[b].lo, expected.buckets[b].lo);
      EXPECT_EQ(window.buckets[b].hi, expected.buckets[b].hi);
      EXPECT_EQ(window.buckets[b].count, expected.buckets[b].count);
    }
    if (window.count > 0) {
      // Same buckets -> identical percentile readouts.
      for (const double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(window.Percentile(q), expected.Percentile(q));
      }
    }
  }
}

TEST(FlightRecorderTest, RingKeepsNewestInOrder) {
  FlightRecorder recorder(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    recorder.Record(FlightRecord{i, i * 100, i, 0.0, 0.0, 0.0});
  }
  EXPECT_EQ(recorder.recorded(), 5u);
  const std::vector<FlightRecord> ring = recorder.SnapshotRing();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].trace_id, 3u);  // oldest surviving first
  EXPECT_EQ(ring[1].trace_id, 4u);
  EXPECT_EQ(ring[2].trace_id, 5u);
}

struct MonitorFixture {
  VirtualClock clock{0};
  MetricRegistry registry;
  Histogram* latency = registry.GetHistogram("t.latency_ns");
  std::unique_ptr<TimeSeriesCollector> collector;
  FlightRecorder flight{4};
  std::unique_ptr<SloMonitor> monitor;

  explicit MonitorFixture(const SloObjective& objective,
                          size_t escalate_queries = 3) {
    TimeSeriesCollector::Options options;
    options.interval_ns = kSecond;
    collector = std::make_unique<TimeSeriesCollector>(&clock, &registry,
                                                      options);
    SloMonitor::Options monitor_options;
    monitor_options.escalate_queries = escalate_queries;
    monitor = std::make_unique<SloMonitor>(collector.get(), &flight,
                                           monitor_options);
    monitor->AddObjective(objective);
  }

  /// One closed window whose p99 is `value_ns` (single sample).
  void Window(uint64_t value_ns) {
    latency->Record(value_ns);
    clock.Advance(kSecond);
    ASSERT_EQ(collector->Poll(), 1u);
  }
};

TEST(SloMonitorTest, FastBurnTripsOnConsecutiveBreaches) {
  SloObjective objective;
  objective.name = "latency-p99";
  objective.instrument = "t.latency_ns";
  objective.limit = 1000.0;
  objective.fast_windows = 2;
  objective.slow_windows = 8;
  MonitorFixture fx(objective);

  fx.Window(100);
  EXPECT_EQ(fx.monitor->Evaluate(), 0u);
  fx.Window(5000);  // one breach: not yet
  EXPECT_EQ(fx.monitor->Evaluate(), 0u);
  fx.flight.Record(FlightRecord{42, 5000, 1, 0.0, 0.0, 0.0});
  fx.Window(6000);  // second consecutive breach: fast burn
  EXPECT_EQ(fx.monitor->Evaluate(), 1u);
  ASSERT_EQ(fx.monitor->trips().size(), 1u);
  const SloTrip& trip = fx.monitor->trips()[0];
  EXPECT_EQ(trip.objective, "latency-p99");
  EXPECT_EQ(trip.interval_index, 2u);
  EXPECT_GT(trip.observed, trip.limit);
  // The trip dumped the flight ring as it stood.
  ASSERT_EQ(trip.flight.size(), 1u);
  EXPECT_EQ(trip.flight[0].trace_id, 42u);

  // Tripping armed escalation tokens and re-armed the breach history:
  // the very next breach alone must not re-fire.
  EXPECT_EQ(fx.monitor->escalation_remaining(), 3u);
  EXPECT_TRUE(fx.monitor->ConsumeEscalation());
  EXPECT_TRUE(fx.monitor->ConsumeEscalation());
  EXPECT_TRUE(fx.monitor->ConsumeEscalation());
  EXPECT_FALSE(fx.monitor->ConsumeEscalation());
  fx.Window(7000);
  EXPECT_EQ(fx.monitor->Evaluate(), 0u);
  fx.Window(7000);
  EXPECT_EQ(fx.monitor->Evaluate(), 1u);
}

TEST(SloMonitorTest, SlowBurnTripsOnSustainedFraction) {
  SloObjective objective;
  objective.name = "latency-p99";
  objective.instrument = "t.latency_ns";
  objective.limit = 1000.0;
  objective.fast_windows = 3;  // alternating breaches never fast-trip
  objective.slow_windows = 4;
  objective.slow_burn_fraction = 0.5;
  MonitorFixture fx(objective);

  // breach, ok, breach, ok: 2 of the last 4 -> slow burn at window 4.
  const uint64_t pattern[] = {5000, 100, 5000, 100};
  size_t fired = 0;
  for (const uint64_t v : pattern) {
    fx.Window(v);
    fired += fx.monitor->Evaluate();
  }
  EXPECT_EQ(fired, 1u);
  ASSERT_EQ(fx.monitor->trips().size(), 1u);
  EXPECT_EQ(fx.monitor->trips()[0].interval_index, 3u);
}

TEST(SloMonitorTest, EmptyWindowsDoNotBreach) {
  SloObjective objective;
  objective.name = "latency-p99";
  objective.instrument = "t.latency_ns";
  objective.limit = 0.0;  // any measurement would breach
  objective.fast_windows = 1;
  MonitorFixture fx(objective);
  fx.clock.Advance(kSecond);
  ASSERT_EQ(fx.collector->Poll(), 1u);
  // The histogram exists but saw nothing: no measurement, no breach.
  EXPECT_EQ(fx.monitor->Evaluate(), 0u);
}

TEST(SloMonitorTest, CounterRateObjective) {
  SloObjective objective;
  objective.name = "rejected-rate";
  objective.instrument = "t.rejected";
  objective.signal = SloSignal::kCounterRate;
  objective.limit = 10.0;  // events per second
  objective.fast_windows = 1;
  MonitorFixture fx(objective);
  Counter* rejected = fx.registry.GetCounter("t.rejected");

  rejected->Add(5);  // 5/s <= 10/s
  fx.clock.Advance(kSecond);
  ASSERT_EQ(fx.collector->Poll(), 1u);
  EXPECT_EQ(fx.monitor->Evaluate(), 0u);
  rejected->Add(25);  // 25/s > 10/s
  fx.clock.Advance(kSecond);
  ASSERT_EQ(fx.collector->Poll(), 1u);
  EXPECT_EQ(fx.monitor->Evaluate(), 1u);
}

/// Satellite contract: the collector and StatszTicker share the fixed
/// deadline-grid discipline, so per-shard sections polled by both layers
/// capture on the same instants under a VirtualClock — and rerunning the
/// whole arrangement is byte-identical.
TEST(TimeSeriesCollectorTest, SectionsShareStatszTickerDeadlines) {
  auto run = [](std::string* statsz_text) -> std::string {
    VirtualClock clock(0);
    MetricRegistry main;
    MetricRegistry shard0;
    MetricRegistry shard1;
    Counter* front = main.GetCounter("front.requests");
    Counter* pulls0 = shard0.GetCounter("shard.pulls");
    Counter* pulls1 = shard1.GetCounter("shard.pulls");

    TimeSeriesCollector::Options options;
    options.interval_ns = kSecond;
    TimeSeriesCollector collector(&clock, &main, options);
    collector.AddSection("shard0", &shard0);
    collector.AddSection("shard1", &shard1);
    StatszTicker ticker(&clock, &main, kSecond);
    ticker.AddSection("shard0", &shard0);
    ticker.AddSection("shard1", &shard1);

    for (int step = 1; step <= 3; ++step) {
      front->Add(1);
      pulls0->Add(2 * step);
      pulls1->Add(3);
      clock.Set(static_cast<uint64_t>(step) * kSecond);
      // Same Poll instant for both layers: both capture exactly once.
      EXPECT_EQ(collector.Poll(), 1u);
      EXPECT_TRUE(ticker.Poll());
    }

    const TimeSeries& series = collector.series();
    EXPECT_EQ(series.intervals.size(), 3u);
    for (size_t i = 0; i < series.intervals.size(); ++i) {
      const IntervalSample& w = series.intervals[i];
      // Section instruments appear prefixed, sorted by name, and carry
      // per-window deltas like any native instrument.
      EXPECT_EQ(w.counter_deltas.size(), 3u);
      if (w.counter_deltas.size() != 3u) continue;
      EXPECT_EQ(w.counter_deltas[0].first, "front.requests");
      EXPECT_EQ(w.counter_deltas[1].first, "shard0.shard.pulls");
      EXPECT_EQ(w.counter_deltas[2].first, "shard1.shard.pulls");
      EXPECT_EQ(w.counter_deltas[1].second, 2 * (i + 1));
      EXPECT_EQ(w.counter_deltas[2].second, 3u);
      // The ticker sampled on the same deadline.
      EXPECT_EQ(ticker.samples()[i].at_ns, w.end_ns);
    }
    if (statsz_text != nullptr) {
      statsz_text->clear();
      for (const StatszSample& sample : ticker.samples()) {
        *statsz_text += sample.text;
      }
    }
    return TimeSeriesToJson(series, nullptr);
  };

  std::string statsz_a;
  std::string statsz_b;
  const std::string json_a = run(&statsz_a);
  const std::string json_b = run(&statsz_b);
  EXPECT_EQ(json_a, json_b);      // byte-identical series
  EXPECT_EQ(statsz_a, statsz_b);  // and byte-identical statsz pages
}

// ---------------------------------------------------------------------------
// Open-loop integration: determinism, the knee forming over time, and the
// watchdog trip -> flight dump -> escalated traces pipeline.

struct OpenLoopRun {
  eval::LoadReport report;
  std::string json;
};

eval::Schedule WindowedSchedule(const server::LbsServer& server,
                                const eval::LoadOptions& options,
                                double rate_qps) {
  eval::ArrivalOptions arrival;
  arrival.rate_qps = rate_qps;
  arrival.num_users = 8;
  arrival.total_arrivals = 96;
  arrival.seed = 2026;
  return eval::BuildOpenLoopWorkload(server.domain(), options.params, arrival);
}

eval::LoadOptions ModeledOptions() {
  eval::LoadOptions options;
  options.params.k = 2;
  options.params.epsilon = 150.0;
  options.params.anchor_distance = 250.0;
  options.pacing = eval::Pacing::kModeled;
  options.worker_threads = 2;
  return options;
}

/// Runs `schedule` on a fresh VirtualClock, registry and engine.
eval::LoadReport RunModeled(server::LbsServer* server,
                            const eval::Schedule& schedule,
                            eval::LoadOptions options) {
  VirtualClock clock(0);
  MetricRegistry registry;
  options.clock = &clock;
  options.registry = &registry;
  service::ServiceOptions service_options;
  service_options.clock = &clock;
  service_options.registry = &registry;
  service::ServiceEngine service(server, service_options);
  return eval::RunLoad(&service, schedule, options).MoveValueOrDie();
}

OpenLoopRun RunWindowedOpenLoop(server::LbsServer* server, double rate_qps,
                                double slo_limit_ns) {
  eval::LoadOptions options = ModeledOptions();
  // ~12 windows over the modeled run at the *lowest* rate; higher rates
  // pack the same schedule into less modeled time.
  options.timeseries_interval_ns = static_cast<uint64_t>(
      96.0 / rate_qps * 1e9 / 12.0);
  SloObjective objective;
  objective.name = "queue-delay-p99";
  objective.instrument = "eval.arrival.queue_delay_ns";
  objective.limit = slo_limit_ns;
  objective.fast_windows = 2;
  objective.slow_windows = 8;
  options.slo_objectives.push_back(objective);

  OpenLoopRun run;
  run.report =
      RunModeled(server, WindowedSchedule(*server, options, rate_qps), options);
  run.json = TimeSeriesToJson(run.report.timeseries, &run.report.slo);
  return run;
}

std::unique_ptr<server::LbsServer> BuildServer() {
  const datasets::Dataset dataset = datasets::GenerateUniform(6000, 313);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  return server::LbsServer::Build(dataset, rtree_options).MoveValueOrDie();
}

TEST(OpenLoopTimeSeriesTest, VirtualRunsExportByteIdenticalSeries) {
  auto server = BuildServer();
  // Overloaded on purpose so the nondeterminism-prone paths (trips, flight
  // dumps, escalated traces) are all exercised by the comparison.
  const OpenLoopRun a = RunWindowedOpenLoop(server.get(), 64000.0, 2e6);
  const OpenLoopRun b = RunWindowedOpenLoop(server.get(), 64000.0, 2e6);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.report.escalated, b.report.escalated);
  EXPECT_EQ(a.report.traces.size(), b.report.traces.size());
  EXPECT_FALSE(a.report.timeseries.intervals.empty());
}

TEST(OpenLoopTimeSeriesTest, OverloadTripsWatchdogAndEscalatesTraces) {
  auto server = BuildServer();
  // Far past the two-virtual-server capacity: the backlog grows without
  // bound, queue-delay p99 climbs window over window, the watchdog trips.
  const OpenLoopRun hot = RunWindowedOpenLoop(server.get(), 64000.0, 2e6);
  ASSERT_FALSE(hot.report.slo.trips.empty());
  const SloTrip& trip = hot.report.slo.trips.front();
  EXPECT_GT(trip.observed, trip.limit);
  EXPECT_FALSE(trip.flight.empty());
  for (const FlightRecord& record : trip.flight) {
    EXPECT_NE(record.trace_id, 0u);
    EXPECT_GT(record.packets, 0u);
  }
  // Escalation: queries after the trip ran traced, and their merged
  // client+server traces landed in the report next to sampled ones (none
  // here: trace_every is 0).
  EXPECT_GT(hot.report.escalated, 0u);
  EXPECT_EQ(hot.report.traces.size(), hot.report.escalated);

  // The knee forms over time: the last measured queue-delay window's p99
  // dominates the first's.
  const TimeSeries& series = hot.report.timeseries;
  double first_p99 = -1.0;
  double last_p99 = -1.0;
  for (const IntervalSample& w : series.intervals) {
    for (const auto& [name, window] : w.histogram_windows) {
      if (name != "eval.arrival.queue_delay_ns" || window.count == 0) {
        continue;
      }
      const double p99 = window.Percentile(0.99);
      if (first_p99 < 0.0) first_p99 = p99;
      last_p99 = p99;
    }
  }
  ASSERT_GE(first_p99, 0.0);
  EXPECT_GT(last_p99, first_p99 * 2.0);

  // An unloaded run stays quiet: no trips, no escalation.
  const OpenLoopRun cold = RunWindowedOpenLoop(server.get(), 1000.0, 2e6);
  EXPECT_TRUE(cold.report.slo.trips.empty());
  EXPECT_EQ(cold.report.escalated, 0u);
  EXPECT_TRUE(cold.report.traces.empty());

  // Windowed telemetry never perturbs results: digests match a plain run
  // of the same schedule with the collector off.
  const eval::LoadOptions plain = ModeledOptions();
  const eval::LoadReport plain_report = RunModeled(
      server.get(), WindowedSchedule(*server, plain, 64000.0), plain);
  EXPECT_TRUE(plain_report.digests == hot.report.digests);
}

// Closed pacing: the thread running RunLoad polls the windows while worker
// threads run the queries, so every completed query lands in exactly one
// window, and a breached objective trips with a flight dump.
TEST(ClosedLoopTimeSeriesTest, WindowsCountEveryQueryWhileWorkersRun) {
  auto server = BuildServer();
  VirtualClock clock(0, /*auto_advance_ns=*/1000);
  MetricRegistry registry;
  service::ServiceOptions service_options;
  service_options.clock = &clock;
  service_options.registry = &registry;
  service::ServiceEngine service(server.get(), service_options);

  eval::LoadOptions options;
  options.worker_threads = 2;
  options.clock = &clock;
  options.registry = &registry;
  options.timeseries_interval_ns = 200000;
  SloObjective objective;
  objective.name = "latency-p99";
  objective.instrument = "eval.arrival.latency_ns";
  objective.limit = 0.0;  // any window with a completed query breaches
  objective.fast_windows = 1;
  objective.slow_windows = 1;
  options.slo_objectives.push_back(objective);
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      server->domain(), options.params, 6, 4, /*seed=*/77);

  const eval::LoadReport report =
      eval::RunLoad(&service, schedule, options).MoveValueOrDie();
  ASSERT_EQ(report.completed, schedule.arrivals.size());
  EXPECT_EQ(report.timeseries.dropped_intervals, 0u);
  uint64_t windowed_completions = 0;
  for (const IntervalSample& window : report.timeseries.intervals) {
    for (const auto& [name, delta] : window.counter_deltas) {
      if (name == "eval.arrival.completed") windowed_completions += delta;
    }
  }
  EXPECT_EQ(windowed_completions, report.completed);
  ASSERT_FALSE(report.slo.trips.empty());
  EXPECT_FALSE(report.slo.trips.front().flight.empty());
  // Escalated queries (if a trip came early enough) are traced like
  // sampled ones, and nothing else is: trace_every is 0.
  EXPECT_EQ(report.traces.size(), report.escalated);
  EXPECT_EQ(report.digests,
            eval::RunReference(server.get(), schedule, options.params)
                .MoveValueOrDie());
}

}  // namespace
}  // namespace spacetwist::telemetry
