#ifndef SPACETWIST_EVAL_TRADEOFF_H_
#define SPACETWIST_EVAL_TRADEOFF_H_

#include <cstdint>
#include <vector>

#include "service/wire_client.h"
#include "telemetry/export.h"

namespace spacetwist::eval {

/// One query's position in the paper's trade-off triangle (Section I):
/// what privacy cost the client paid (the anchor offset it disclosed
/// instead of its location), what performance that bought (packets, points,
/// bytes, latency, retries), and what accuracy it got back (epsilon budget
/// vs the error actually achieved). Emitted at query termination by
/// RunClosedLoopLoad when LoadOptions::record_tradeoffs is set; rendered
/// into the trace document's "tradeoffs" array next to the span events.
struct TradeoffRecord {
  /// Distributed-trace id of the query; 0 when the query was not sampled
  /// for tracing (the record stands alone).
  uint64_t trace_id = 0;
  uint32_t client = 0;
  uint32_t query_index = 0;  ///< 0-based within the client's workload

  // Privacy: what the server learned instead of the true location.
  double anchor_distance = 0.0;  ///< dist(q, q') actually used

  // Algorithm 1 state at termination.
  double tau = 0.0;
  double gamma = 0.0;

  // Accuracy: the budget and what the run achieved against ground truth.
  double epsilon = 0.0;
  /// Reported kth-NN distance minus true kth-NN distance (>= 0 within
  /// epsilon by Lemma 2); meaningful only when `error_evaluated`.
  double achieved_error = 0.0;
  bool error_evaluated = false;  ///< a truth server was available
  double reported_kth_distance = 0.0;
  uint32_t result_count = 0;  ///< neighbors reported (== k when satisfied)

  // Performance: the paper's communication cost model plus wall time.
  uint64_t packets = 0;  ///< downlink packets consumed
  uint64_t points = 0;   ///< POIs received
  /// packets * header + points * point_bytes (PacketConfig cost model).
  uint64_t downlink_bytes = 0;
  /// One header-sized frame per pull plus the open and close requests.
  uint64_t uplink_bytes = 0;
  uint64_t latency_ns = 0;

  // Scale-out: the router's fan-out leg of the trade-off (0/0 when the
  // backend is a single server). Populated via LoadOptions::fanout_probe.
  uint32_t fanout = 0;        ///< shard streams the query opened
  uint64_t shard_pulls = 0;   ///< shard packets the router pulled for it

  // Fault/retry events the client observed while running the query.
  service::RetryStats retry;
};

/// Emits `"tradeoffs": [...]` into an already-open object scope of
/// `writer` — one object per record, in input order, with the trace id
/// rendered as a hex string (matching the span events' args.trace_id).
/// Deterministic: identical records yield identical bytes.
void WriteTradeoffs(const std::vector<TradeoffRecord>& records,
                    telemetry::JsonWriter* writer);

}  // namespace spacetwist::eval

#endif  // SPACETWIST_EVAL_TRADEOFF_H_
