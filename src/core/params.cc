#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace spacetwist::core {

Status ValidateQueryParameters(const geom::Point& anchor, double epsilon,
                               size_t k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  // Written so NaN fails too. Past FLT_MAX the kernel's float32 cell
  // boundaries overflow, and its scan never ends.
  const auto in_float_range = [](double v) {
    return std::fabs(v) <= std::numeric_limits<float>::max();
  };
  if (!in_float_range(anchor.x) || !in_float_range(anchor.y)) {
    return Status::InvalidArgument("anchor must be finite float32");
  }
  if (!in_float_range(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be finite float32 and >= 0");
  }
  if (epsilon > 0.0 && epsilon < kMinPositiveEpsilon) {
    return Status::InvalidArgument("epsilon must be 0 or >= 1e-9");
  }
  return Status::OK();
}

double ErrorBoundForMobility(double max_speed_m_per_s,
                             double max_delay_seconds) {
  return max_speed_m_per_s * max_delay_seconds;
}

double EffectivePointCount(size_t n, size_t k, double domain_extent,
                           double epsilon) {
  if (epsilon <= 0.0) return static_cast<double>(n);
  const double cells = (domain_extent / epsilon) * (domain_extent / epsilon);
  return std::min(static_cast<double>(n),
                  2.0 * static_cast<double>(k) * cells);
}

double EstimateKnnDistance(double domain_extent, size_t k,
                           double effective_points) {
  if (effective_points <= 0.0) return domain_extent;
  return domain_extent *
         std::sqrt(static_cast<double>(k) /
                   (std::numbers::pi * effective_points));
}

double AnchorDistanceForBudget(size_t packets, size_t beta, size_t k,
                               size_t n, double domain_extent,
                               double epsilon) {
  const double nc = EffectivePointCount(n, k, domain_extent, epsilon);
  if (nc <= 0.0) return 0.0;
  const double got = std::sqrt(static_cast<double>(packets) *
                               static_cast<double>(beta)) -
                     std::sqrt(static_cast<double>(k));
  if (got <= 0.0) return 0.0;
  return domain_extent / std::sqrt(std::numbers::pi * nc) * got;
}

double PredictPackets(double anchor_distance, size_t beta, size_t k, size_t n,
                      double domain_extent, double epsilon) {
  const double nc = EffectivePointCount(n, k, domain_extent, epsilon);
  const double root =
      anchor_distance * std::sqrt(std::numbers::pi * nc) / domain_extent +
      std::sqrt(static_cast<double>(k));
  return root * root / static_cast<double>(beta);
}

}  // namespace spacetwist::core
