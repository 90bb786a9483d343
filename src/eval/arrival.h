#ifndef SPACETWIST_EVAL_ARRIVAL_H_
#define SPACETWIST_EVAL_ARRIVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/spacetwist_client.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace spacetwist::eval {

/// Derives user (client) `user`'s seed from a base seed (golden-ratio
/// stride keeps per-user streams decorrelated).
uint64_t ClientSeed(uint64_t base_seed, size_t user);

/// Deterministic, never-zero trace id for user `user`'s `query`-th query of
/// a schedule built from `base_seed` (0 is reserved for "unsampled").
uint64_t QueryTraceId(uint64_t base_seed, size_t user, size_t query);

/// One scheduled query: user `user`'s query point and anchor, released
/// `at_ns` after the run starts.
struct Arrival {
  uint64_t at_ns = 0;
  uint32_t user = 0;
  geom::Point q;
  geom::Point anchor;
};

/// What eval::RunLoad executes and eval::RunReference answers: every query
/// of a run, in schedule order (ascending `at_ns`). Built by
/// BuildClosedLoopWorkload or BuildOpenLoopWorkload below from `seed`, from
/// which trace ids derive too.
struct Schedule {
  std::vector<Arrival> arrivals;
  uint64_t seed = 0;
};

/// Closed-loop schedule: `num_clients` clients issuing `queries_per_client`
/// queries each, client-major, all at `at_ns` 0 (the closed pacing releases
/// a client's next query when its previous one finished). Client c's query
/// points and anchors come from Rng(ClientSeed(seed, c)), so the schedule
/// is independent of the number of clients drawn after c.
Schedule BuildClosedLoopWorkload(const geom::Rect& domain,
                                 const core::QueryParams& params,
                                 size_t num_clients, size_t queries_per_client,
                                 uint64_t seed);

/// Shape of an open-loop arrival process: `total_arrivals` queries arrive
/// at `rate_qps` with exponential (Poisson-process) gaps, each attributed
/// to one of `num_users` simulated users drawn Zipf(s) by rank — a few hot
/// users issue most queries, a long tail issues few, which is what mobile
/// LBS traffic looks like. Everything derives from `seed`: the same options
/// build the same schedule, byte for byte.
struct ArrivalOptions {
  double rate_qps = 1000.0;     ///< offered load lambda (> 0)
  size_t num_users = 64;        ///< distinct simulated users (>= 1)
  size_t total_arrivals = 256;  ///< schedule length (>= 1)
  double zipf_s = 1.0;          ///< Zipf exponent; 0 = uniform users
  uint64_t seed = 4242;
};

/// Draws one Poisson-process inter-arrival gap (nanoseconds) at `rate_qps`
/// via inverse-CDF of the exponential distribution: -ln(1 - U) / lambda.
/// Mean gap is 1e9 / rate_qps ns (arrival_process_test pins this).
uint64_t PoissonGapNs(double rate_qps, Rng* rng);

/// Zipf(s) sampler over ranks 0..n-1: P(rank r) proportional to
/// 1 / (r + 1)^s. Precomputes the harmonic CDF once; each Sample is one
/// uniform draw plus a binary search. s == 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng* rng) const;

  /// Analytic P(rank r) — the yardstick the property test compares
  /// empirical frequencies against.
  double Probability(size_t rank) const;

 private:
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank <= r), cdf_.back() == 1
};

/// Derives user `user`'s private anchor-distance policy: a per-user factor
/// in [0.5, 1.5) applied to `params.anchor_distance`, drawn from the user's
/// own seed — distinct users disclose distinctly imprecise locations, and
/// the policy is reproducible from (seed, user) alone.
double UserAnchorDistance(const core::QueryParams& params, uint64_t seed,
                          uint32_t user);

/// Open-loop schedule: one arrival-process Rng (seeded `seed`) draws the
/// gaps and the Zipf user ranks; each user's query points and anchors come
/// from that user's own Rng stream (ClientSeed-derived, same stride as
/// BuildClosedLoopWorkload) under its own anchor policy, consumed in that
/// user's arrival order. Deterministic: same (domain, params, options) in,
/// byte-identical schedule out.
Schedule BuildOpenLoopWorkload(const geom::Rect& domain,
                               const core::QueryParams& params,
                               const ArrivalOptions& options);

}  // namespace spacetwist::eval

#endif  // SPACETWIST_EVAL_ARRIVAL_H_
