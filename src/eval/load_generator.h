#ifndef SPACETWIST_EVAL_LOAD_GENERATOR_H_
#define SPACETWIST_EVAL_LOAD_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/spacetwist_client.h"
#include "eval/arrival.h"
#include "eval/tradeoff.h"
#include "net/faulty_transport.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/wire_client.h"
#include "telemetry/clock.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace spacetwist::eval {

/// How RunLoad releases a schedule (docs/SERVICE.md §7).
enum class Pacing {
  /// Closed loop: each user issues its queries back to back (the next one
  /// starts when the previous finished) on `worker_threads` threads against
  /// the ServiceEngine directly. Self-limits to one query in flight per
  /// user, so it measures capacity, never overload. `at_ns` is ignored; a
  /// query is timed from when a worker starts it, with no queue delay.
  kClosed,
  /// Open loop in real time: a dispatcher releases each arrival at its
  /// scheduled instant regardless of completions, and up to 64 concurrent
  /// client sessions drive a per-run engine::EventEngine with
  /// `worker_threads` workers. Latency runs from the *scheduled* arrival,
  /// so queueing during overload is charged to the queries, never
  /// coordinated-omission'd away.
  kMeasured,
  /// Open loop, deterministic: arrivals execute sequentially in schedule
  /// order through the per-run EventEngine (results are real), while
  /// latency and queue delay come from an M/D/c model — `worker_threads`
  /// virtual servers, 200 us + 50 us per packet of service time — so two
  /// runs under a VirtualClock are byte-identical.
  kModeled,
};

/// Fingerprint of one query's answer: FNV-1a over its kNN ids, distance
/// bits and packet count, plus the packet and POI counts. Equal digests
/// mean byte-identical results — the bar every serving path is held to
/// against RunReference.
struct QueryDigest {
  uint64_t result_hash = 0;
  uint64_t packets = 0;  ///< downlink packets the query consumed
  uint64_t points = 0;   ///< POIs the query received

  friend bool operator==(const QueryDigest& a, const QueryDigest& b) {
    return a.result_hash == b.result_hash && a.packets == b.packets &&
           a.points == b.points;
  }
};

QueryDigest DigestOf(const core::QueryOutcome& outcome);

/// Shape of one RunLoad run; the schedule says *what* runs, these say how.
struct LoadOptions {
  Pacing pacing = Pacing::kClosed;
  /// Closed: client threads. Measured: event-engine workers. Modeled:
  /// virtual servers of the M/D/c model.
  size_t worker_threads = 4;
  core::QueryParams params;  ///< k / epsilon / packet shape of every query
  /// Run clock (null = the process-wide real clock; inject a
  /// telemetry::VirtualClock for deterministic reports).
  telemetry::Clock* clock = nullptr;
  /// Registry receiving the run's eval.arrival.* instruments, the per-run
  /// EventEngine's engine.* set and the closed and measured pacings'
  /// thread-pool instruments (null = the process-wide default).
  telemetry::MetricRegistry* registry = nullptr;
  /// Every Nth query (by schedule index) runs under a distributed trace —
  /// client spans merged with the server's piggybacked spans — collected
  /// into LoadReport::traces. 0 disables sampling.
  uint64_t trace_every = 0;
  /// Ground truth for TradeoffRecord::achieved_error (the server whose
  /// dataset the engine serves). Null leaves records unevaluated. Scored
  /// sequentially after the run, off the latency path.
  server::LbsServer* truth = nullptr;
  /// Windowed telemetry (docs/OBSERVABILITY.md §7): > 0 samples the run's
  /// registry into windows of this width on the run's timeline — modeled
  /// arrival time under kModeled (byte-identical series), the run clock
  /// otherwise — with a flight recorder and an SLO watchdog over them.
  uint64_t timeseries_interval_ns = 0;
  /// Objectives the watchdog checks each window; a trip dumps the flight
  /// recorder and escalates tracing of the next 16 queries into
  /// LoadReport::traces. Requires `timeseries_interval_ns` > 0.
  std::vector<telemetry::SloObjective> slo_objectives;
  /// Set (kClosed only): every user reaches the engine through its own
  /// net::FaultyTransport, seeded ClientSeed(fault_seed, user) and kept for
  /// the whole run; the retry layer (policy below) does the surviving.
  /// Unset: a perfect in-process link. Either way each query's session
  /// draws jitter and Open nonces from QueryTraceId(retry_seed, user,
  /// index of the query among the user's), so a user's outcomes, retries
  /// and faults depend on its own traffic alone, and no two queries share
  /// a nonce the server could link them by.
  std::optional<net::FaultConfig> fault;
  service::RetryPolicy policy;
  uint64_t fault_seed = 0xFA017;
  uint64_t retry_seed = 0x0E7F1;
};

/// Everything one run produced. Per-query vectors are indexed by schedule
/// position; records and traces follow schedule order, so reruns export
/// byte-identical documents regardless of thread interleaving.
struct LoadReport {
  double wall_seconds = 0.0;  ///< run clock; kModeled: modeled makespan
  double queries_per_second = 0.0;  ///< completed / wall_seconds
  double p50_latency_ms = 0.0;      ///< from `latency` (log-bucket estimate)
  double p99_latency_ms = 0.0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;  ///< shed with kResourceExhausted (backpressure)
  uint64_t failed = 0;    ///< any other error
  /// Status of the earliest-scheduled query that did not complete; OK when
  /// every query completed. A failing query is data: only setup errors
  /// fail RunLoad itself.
  Status first_failure;
  uint64_t packets = 0;  ///< downlink packets across completed queries
  uint64_t points = 0;   ///< POIs across completed queries
  /// Per-query latency (ns) and, except under kClosed, queue delay from the
  /// scheduled arrival to dispatch.
  telemetry::HistogramSnapshot latency;
  telemetry::HistogramSnapshot queue_delay;
  std::vector<QueryDigest> digests;  ///< zero for queries that failed
  std::vector<bool> succeeded;
  std::vector<TradeoffRecord> tradeoffs;  ///< one per completed query
  std::vector<telemetry::TraceRecord> traces;  ///< sampled + escalated
  service::RetryStats retry;  ///< summed over all queries
  /// Faulted runs only: totals over the users' transports, their summed
  /// virtual time, and each user's replayable fault log (index = user).
  net::FaultStats faults;
  uint64_t virtual_ns = 0;
  std::vector<std::vector<net::FaultEvent>> fault_logs;
  /// Windowed telemetry (empty unless `timeseries_interval_ns` > 0): the
  /// series, the watchdog's objectives and trips (each with its flight
  /// dump), and how many queries ran under escalated tracing.
  telemetry::TimeSeries timeseries;
  telemetry::SloReport slo;
  uint64_t escalated = 0;

  /// Share of scheduled queries that completed.
  double goodput() const {
    return scheduled == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(scheduled);
  }
};

/// Runs `schedule` against `engine` under `options.pacing`. Every query
/// runs the same body: Algorithm 1's termination loop over a retrying
/// service::WireSession (service::RemoteQuery) on its user's link, then one
/// recording step (digest, latency, flight record, trade-off record,
/// trace). Completed queries are byte-identical to RunReference whatever
/// the pacing, thread count or link — the identity tests pin it.
/// Registry instruments: eval.arrival.offered / .completed / .rejected
/// counters and eval.arrival.latency_ns / .queue_delay_ns histograms.
Result<LoadReport> RunLoad(service::ServiceEngine* engine,
                           const Schedule& schedule,
                           const LoadOptions& options);

/// The yardstick: every scheduled query through the direct single-threaded
/// library path (core::SpaceTwistClient against `server`), one digest per
/// query in schedule order.
Result<std::vector<QueryDigest>> RunReference(server::LbsServer* server,
                                              const Schedule& schedule,
                                              const core::QueryParams& params);

}  // namespace spacetwist::eval

#endif  // SPACETWIST_EVAL_LOAD_GENERATOR_H_
