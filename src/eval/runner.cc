#include "eval/runner.h"

#include <algorithm>
#include <cmath>

#include "baselines/clk_baseline.h"
#include "common/env.h"
#include "common/rng.h"
#include "privacy/observation.h"
#include "privacy/region.h"
#include "telemetry/metric.h"

namespace spacetwist::eval {

Result<GstAggregate> RunGst(server::LbsServer* server,
                            const std::vector<geom::Point>& queries,
                            const GstRunOptions& options) {
  Rng rng(options.seed);
  telemetry::Accumulator packets, points, error, privacy, anchor_dist,
      node_reads;

  for (const geom::Point& q : queries) {
    core::SpaceTwistClient client(server);
    Rng query_rng = rng.Fork();

    const uint64_t reads_before = server->io_stats().logical_reads;
    SPACETWIST_ASSIGN_OR_RETURN(
        core::QueryOutcome outcome,
        client.Query(q, options.params, &query_rng));
    node_reads.Add(static_cast<double>(server->io_stats().logical_reads -
                                       reads_before));

    packets.Add(static_cast<double>(outcome.packets));
    points.Add(static_cast<double>(outcome.retrieved.size()));
    anchor_dist.Add(geom::Distance(q, outcome.anchor));

    if (options.measure_error) {
      SPACETWIST_ASSIGN_OR_RETURN(std::vector<rtree::Neighbor> truth,
                                  server->ExactKnn(q, options.params.k));
      if (!truth.empty() && !outcome.neighbors.empty() &&
          truth.size() == outcome.neighbors.size()) {
        error.Add(outcome.neighbors.back().distance -
                  truth.back().distance);
      } else {
        error.Add(0.0);
      }
    }

    if (options.measure_privacy) {
      const privacy::Observation obs =
          privacy::MakeObservation(outcome, server->domain());
      const privacy::PrivacyEstimate estimate =
          privacy::EstimatePrivacy(obs, q, options.mc_samples, &query_rng);
      privacy.Add(estimate.privacy_value);
    }
  }

  GstAggregate agg;
  agg.mean_packets = packets.Mean();
  agg.mean_points = points.Mean();
  agg.mean_error = error.Mean();
  agg.max_error = error.Max();
  agg.mean_privacy = privacy.Mean();
  agg.mean_anchor_distance = anchor_dist.Mean();
  agg.mean_node_reads = node_reads.Mean();
  agg.queries = queries.size();
  return agg;
}

Result<ClkAggregate> RunClk(server::LbsServer* server,
                            const std::vector<geom::Point>& queries,
                            size_t k, double half_extent, uint64_t seed) {
  Rng rng(seed);
  baselines::ClkClient client(server, net::PacketConfig());
  telemetry::Accumulator packets, candidates;
  for (const geom::Point& q : queries) {
    Rng query_rng = rng.Fork();
    SPACETWIST_ASSIGN_OR_RETURN(baselines::ClkQueryResult result,
                                client.Query(q, k, half_extent, &query_rng));
    packets.Add(static_cast<double>(result.packets));
    candidates.Add(static_cast<double>(result.candidates));
  }
  ClkAggregate agg;
  agg.mean_packets = packets.Mean();
  agg.mean_candidates = candidates.Mean();
  agg.queries = queries.size();
  return agg;
}

double BenchScale() {
  const double scale = GetEnvDouble("SPACETWIST_BENCH_SCALE", 1.0);
  return std::clamp(scale, 1e-4, 1.0);
}

size_t ScaledCount(size_t full, size_t min_value) {
  const double scaled = std::round(static_cast<double>(full) * BenchScale());
  return std::max(min_value, static_cast<size_t>(scaled));
}

}  // namespace spacetwist::eval
