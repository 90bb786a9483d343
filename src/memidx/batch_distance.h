#ifndef SPACETWIST_MEMIDX_BATCH_DISTANCE_H_
#define SPACETWIST_MEMIDX_BATCH_DISTANCE_H_

#include <cstddef>
#include <cstdint>

#include "geom/point.h"

namespace spacetwist::memidx {

/// Batched squared distances from `q` to `n` float32-quantized points stored
/// as structure-of-arrays (`xs[i]`, `ys[i]`) — one whole leaf per call on
/// the serving hot path. Each element is computed exactly as
/// geom::DistanceSquared(q, {xs[i], ys[i]}): widen to double, dx*dx + dy*dy
/// in that order, no reassociation — so `sqrt(out[i])` is bit-identical to
/// the geom::Distance keys of the paged oracle's heap, which the differential
/// suite relies on. The loop body has no cross-iteration dependency, so the
/// compiler is free to vectorize it over the contiguous coordinate arrays.
void BatchedSquaredDistances(const geom::Point& q, const float* xs,
                             const float* ys, size_t n, double* out);

/// Scalar reference for the kernel's unit test: one element, computed
/// out-of-line so it cannot be fused into a caller's vectorized context.
double ScalarSquaredDistance(const geom::Point& q, float x, float y);

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_BATCH_DISTANCE_H_
