#ifndef SPACETWIST_CORE_PARAMS_H_
#define SPACETWIST_CORE_PARAMS_H_

#include <cstddef>

#include "common/status.h"
#include "geom/point.h"

namespace spacetwist::core {

/// Smallest positive epsilon a granular query may ask for, in meters. Below
/// about 1.5e-15 m a coordinate of the [0, 10^4]^2 domain has a cell index
/// floor(x / lambda) past int64's range, and cells fold together. The floor
/// sits six orders of magnitude above that and far below any
/// v_max * dt_max a client derives epsilon from.
inline constexpr double kMinPositiveEpsilon = 1e-9;

/// The one parameter check of every entry into granular search (the
/// engine's Open, RemoteQuery and SpaceTwistClient::Query):
/// kInvalidArgument for k < 1, a negative epsilon, an epsilon in
/// (0, kMinPositiveEpsilon), or an anchor coordinate or epsilon that is NaN
/// or beyond float32's range.
Status ValidateQueryParameters(const geom::Point& anchor, double epsilon,
                               size_t k);

/// Parameter-selection guidelines from Section V of the paper.

/// Error bound from mobility: epsilon = v_max * dt_max — the farthest the
/// user can travel within the acceptable staleness window, e.g. walking
/// speed times five minutes.
double ErrorBoundForMobility(double max_speed_m_per_s,
                             double max_delay_seconds);

/// The number of points the granular server can possibly return:
/// N_c = min(N, 2k * (U / epsilon)^2)   (uniform-data cost model).
/// With epsilon == 0 granular search is off and N_c = N.
double EffectivePointCount(size_t n, size_t k, double domain_extent,
                           double epsilon);

/// Equation (5): expected kNN distance under uniform data,
/// R_kNN = U * sqrt(k / (pi * N_c)).
double EstimateKnnDistance(double domain_extent, size_t k,
                           double effective_points);

/// Equation (6): the anchor distance that spends a communication budget of
/// `packets` packets of capacity `beta`:
/// dist(q,q') = U / sqrt(pi * N_c) * (sqrt(m * beta) - sqrt(k)).
/// Returns 0 when the budget cannot even cover k results.
double AnchorDistanceForBudget(size_t packets, size_t beta, size_t k,
                               size_t n, double domain_extent, double epsilon);

/// Inverse of Equation (6): predicted packet count for a given anchor
/// distance (the cost-model benchmark compares this against measurements).
double PredictPackets(double anchor_distance, size_t beta, size_t k, size_t n,
                      double domain_extent, double epsilon);

}  // namespace spacetwist::core

#endif  // SPACETWIST_CORE_PARAMS_H_
