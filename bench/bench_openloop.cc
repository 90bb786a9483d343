// Open-loop serving knee: Poisson arrivals from distinct simulated users
// (Zipf-skewed activity, per-user anchor policies) drive the event-driven
// engine at a swept offered load. Unlike the closed-loop sweep
// (bench_service_throughput), arrivals do not wait for completions, so
// latency is measured from the *scheduled* arrival — pushing the offered
// rate past capacity exposes the saturation knee: p99 blows up structurally
// (the backlog grows without bound) while goodput flattens at capacity.
// Expected shape: p99 at the highest offered load >= 5x the p99 at the
// lowest (SPACETWIST_CHECK'd), goodput ~= offered below the knee and
// ~= capacity above it, and at low load the per-query digests are
// byte-identical to the single-threaded library reference.
//
// Runs under kModeled pacing (arrival_process_test pins its determinism):
// queries execute for real through the event engine, while latency and
// queueing delay come from the M/D/c model in eval/load_generator.h, so
// the artifact is byte-stable across runs.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/load_generator.h"
#include "eval/table.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/slo.h"

namespace spacetwist::bench {
namespace {

struct Measurement {
  double offered_qps = 0;
  eval::LoadReport report;
};

void Run() {
  PrintHeader("Open-loop load: offered rate vs the latency knee");

  const datasets::Dataset ds = Ui(500000);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto server = server::LbsServer::Build(ds, rtree_options);
  SPACETWIST_CHECK(server.ok()) << server.status().ToString();

  eval::ArrivalOptions arrival;
  arrival.num_users = eval::ScaledCount(64, 8);
  arrival.total_arrivals = eval::ScaledCount(1500, 100);
  arrival.zipf_s = 1.0;
  arrival.seed = kRunSeed;
  eval::LoadOptions base;
  base.params.k = 4;
  base.params.epsilon = 200.0;
  base.params.anchor_distance = 300.0;
  base.pacing = eval::Pacing::kModeled;
  base.worker_threads = 4;
  const auto schedule_at = [&](double rate_qps) {
    eval::ArrivalOptions at = arrival;
    at.rate_qps = rate_qps;
    return eval::BuildOpenLoopWorkload(server->get()->domain(), base.params,
                                       at);
  };

  // Windowed telemetry per point (docs/OBSERVABILITY.md §7): ~16 windows
  // over each point's modeled schedule, an SLO watchdog on windowed
  // queue-delay p99, and the always-on flight recorder its trips dump. The
  // per-interval series is how the knee shows up as a *time* series: below
  // capacity every window's queue delay is flat, past it each window's p99
  // exceeds the last as the backlog compounds.
  constexpr double kQueueDelayP99LimitNs = 2e6;
  const auto windowed_options = [&](double rate_qps) {
    eval::LoadOptions options = base;
    const double duration_ns =
        static_cast<double>(arrival.total_arrivals) / rate_qps * 1e9;
    options.timeseries_interval_ns =
        static_cast<uint64_t>(duration_ns / 16.0) + 1;
    telemetry::SloObjective objective;
    objective.name = "queue-delay-p99";
    objective.instrument = "eval.arrival.queue_delay_ns";
    objective.limit = kQueueDelayP99LimitNs;
    objective.fast_windows = 2;
    objective.slow_windows = 8;
    options.slo_objectives.push_back(objective);
    return options;
  };

  auto run_point = [&](double rate_qps) -> eval::LoadReport {
    eval::LoadOptions options = windowed_options(rate_qps);
    // Fresh clock + registry per point: each knee point's engine.* and
    // eval.arrival.* snapshots describe that point alone.
    telemetry::VirtualClock clock(0);
    telemetry::MetricRegistry registry;
    options.clock = &clock;
    options.registry = &registry;
    service::ServiceOptions service_options;
    service_options.clock = &clock;
    service_options.registry = &registry;
    service::ServiceEngine engine(server->get(), service_options);
    auto report = eval::RunLoad(&engine, schedule_at(rate_qps), options);
    SPACETWIST_CHECK(report.ok()) << report.status().ToString();
    return report.MoveValueOrDie();
  };

  // Calibrate capacity from a probe far below saturation, where measured
  // latency ~= service time: capacity = c / mean_service.
  const eval::LoadReport probe = run_point(500.0);
  SPACETWIST_CHECK(probe.latency.count > 0);
  const double mean_service_ns =
      static_cast<double>(probe.latency.sum) /
      static_cast<double>(probe.latency.count);
  const double capacity_qps =
      static_cast<double>(base.worker_threads) * 1e9 / mean_service_ns;

  // Digest contract at uncontended load: the event-driven path returns the
  // byte-identical per-query results of the single-threaded library path.
  auto reference =
      eval::RunReference(server->get(), schedule_at(500.0), base.params);
  SPACETWIST_CHECK(reference.ok()) << reference.status().ToString();
  SPACETWIST_CHECK(probe.rejected == 0);
  SPACETWIST_CHECK(probe.digests == *reference)
      << "open-loop event path diverged from the library reference";

  const std::vector<double> multipliers = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  std::vector<Measurement> measurements;
  for (const double m : multipliers) {
    const double offered = capacity_qps * m;
    measurements.push_back({offered, run_point(offered)});
  }

  const Measurement& low = measurements.front();
  const Measurement& high = measurements.back();
  const double knee_ratio =
      high.report.p99_latency_ms / low.report.p99_latency_ms;
  SPACETWIST_CHECK(knee_ratio >= 5.0)
      << "no saturation knee: p99 " << high.report.p99_latency_ms
      << " ms at " << high.offered_qps << " qps vs "
      << low.report.p99_latency_ms << " ms at " << low.offered_qps << " qps";

  // The watchdog sees the same knee: quiet at the lowest offered load,
  // tripped (with a flight-recorder dump) past capacity.
  SPACETWIST_CHECK(low.report.slo.trips.empty())
      << "SLO watchdog tripped " << low.report.slo.trips.size()
      << "x at the lowest offered load (" << low.offered_qps << " qps)";
  SPACETWIST_CHECK(!high.report.slo.trips.empty())
      << "SLO watchdog never tripped at " << high.offered_qps
      << " qps despite the knee";
  SPACETWIST_CHECK(!high.report.slo.trips.front().flight.empty())
      << "tripped without a flight-recorder dump";
  SPACETWIST_CHECK(high.report.escalated > 0)
      << "tripped without escalating trace sampling";

  eval::Table table({"offered.qps", "goodput.qps", "completed", "rejected",
                     "p50.ms", "p99.ms", "slo.trips"});
  for (const Measurement& m : measurements) {
    table.AddRow({Fmt1(m.offered_qps), Fmt1(m.report.queries_per_second),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        m.report.completed)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        m.report.rejected)),
                  StrFormat("%.3f", m.report.p50_latency_ms),
                  StrFormat("%.3f", m.report.p99_latency_ms),
                  StrFormat("%zu", m.report.slo.trips.size())});
  }
  table.Print(std::cout);
  std::printf("capacity=%.0f qps (c=%zu, mean service %.0f ns); knee p99 "
              "ratio %.1fx (>= 5x required); low-load digests byte-identical "
              "to the library reference\n",
              capacity_qps, base.worker_threads, mean_service_ns, knee_ratio);

  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("schema", "spacetwist.openloop.v1");
  json.KV("bench", "openloop");
  json.KV("worker_threads", static_cast<uint64_t>(base.worker_threads));
  json.KV("users", static_cast<uint64_t>(arrival.num_users));
  json.KV("arrivals_per_point",
          static_cast<uint64_t>(arrival.total_arrivals));
  json.KV("zipf_s", arrival.zipf_s);
  json.KV("capacity_qps", capacity_qps, 1);
  json.KV("digest_match", static_cast<uint64_t>(1));
  json.Key("results").BeginArray();
  for (const Measurement& m : measurements) {
    json.BeginObject();
    json.KV("offered_qps", m.offered_qps, 1);
    json.KV("goodput_qps", m.report.queries_per_second, 1);
    json.KV("arrivals", m.report.scheduled);
    json.KV("completed", m.report.completed);
    json.KV("rejected", m.report.rejected);
    json.KV("p50_ms", m.report.p50_latency_ms);
    json.KV("p99_ms", m.report.p99_latency_ms);
    json.Key("latency_ns");
    telemetry::WriteHistogram(m.report.latency, &json);
    json.Key("queue_delay_ns");
    telemetry::WriteHistogram(m.report.queue_delay, &json);
    json.KV("slo_trips", static_cast<uint64_t>(m.report.slo.trips.size()));
    json.KV("escalated", m.report.escalated);
    json.Key("timeseries").BeginObject();
    telemetry::WriteTimeSeries(m.report.timeseries, &m.report.slo, &json);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("knee").BeginObject();
  json.KV("offered_low_qps", low.offered_qps, 1);
  json.KV("offered_high_qps", high.offered_qps, 1);
  json.KV("p99_low_ms", low.report.p99_latency_ms);
  json.KV("p99_high_ms", high.report.p99_latency_ms);
  json.KV("goodput_low_qps", low.report.queries_per_second, 1);
  json.KV("goodput_high_qps", high.report.queries_per_second, 1);
  json.KV("ratio", knee_ratio);
  json.EndObject();
  FinishBenchJson("BENCH_openloop.json", &json);
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
