#include "eval/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/anchor.h"

namespace spacetwist::eval {

uint64_t ClientSeed(uint64_t base_seed, size_t user) {
  // Golden-ratio stride keeps per-user streams decorrelated.
  return base_seed + 0x9E3779B97F4A7C15ULL * (user + 1);
}

uint64_t QueryTraceId(uint64_t base_seed, size_t user, size_t query) {
  // splitmix64 finalizer over (user seed, query) — a pure hash, so trace
  // ids are reproducible from the run parameters alone.
  uint64_t z = ClientSeed(base_seed, user) ^
               (0xBF58476D1CE4E5B9ULL * (query + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 is reserved for "unsampled"
}

Schedule BuildClosedLoopWorkload(const geom::Rect& domain,
                                 const core::QueryParams& params,
                                 size_t num_clients, size_t queries_per_client,
                                 uint64_t seed) {
  Schedule schedule;
  schedule.seed = seed;
  schedule.arrivals.reserve(num_clients * queries_per_client);
  for (size_t c = 0; c < num_clients; ++c) {
    Rng rng(ClientSeed(seed, c));
    for (size_t i = 0; i < queries_per_client; ++i) {
      Arrival arrival;
      arrival.user = static_cast<uint32_t>(c);
      arrival.q = geom::Point{rng.Uniform(domain.min.x, domain.max.x),
                              rng.Uniform(domain.min.y, domain.max.y)};
      arrival.anchor = core::GenerateAnchor(
          arrival.q, params.anchor_distance, domain, &rng);
      schedule.arrivals.push_back(arrival);
    }
  }
  return schedule;
}

uint64_t PoissonGapNs(double rate_qps, Rng* rng) {
  SPACETWIST_CHECK(rate_qps > 0.0);
  // Inverse-CDF: U uniform in [0, 1) makes 1 - U in (0, 1], so the log is
  // finite and the gap nonnegative.
  const double u = rng->Uniform(0.0, 1.0);
  const double gap_s = -std::log1p(-u) / rate_qps;
  return static_cast<uint64_t>(gap_s * 1e9);
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  SPACETWIST_CHECK(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Probability(size_t rank) const {
  SPACETWIST_CHECK(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

double UserAnchorDistance(const core::QueryParams& params, uint64_t seed,
                          uint32_t user) {
  // The factor is the user Rng's *first* draw, so workload generation below
  // can reproduce it by drawing it before any query coordinates.
  Rng rng(ClientSeed(seed, user));
  return params.anchor_distance * rng.Uniform(0.5, 1.5);
}

Schedule BuildOpenLoopWorkload(const geom::Rect& domain,
                               const core::QueryParams& params,
                               const ArrivalOptions& options) {
  SPACETWIST_CHECK(options.num_users >= 1);
  SPACETWIST_CHECK(options.total_arrivals >= 1);
  Rng arrival_rng(options.seed);
  const ZipfSampler users(options.num_users, options.zipf_s);

  // Per-user streams are created on a user's first arrival; the first draw
  // is the user's anchor-distance policy (see UserAnchorDistance).
  struct UserState {
    Rng rng{0};
    double anchor_distance = 0.0;
    bool init = false;
  };
  std::vector<UserState> states(options.num_users);

  Schedule schedule;
  schedule.seed = options.seed;
  schedule.arrivals.reserve(options.total_arrivals);
  uint64_t t_ns = 0;
  for (size_t i = 0; i < options.total_arrivals; ++i) {
    t_ns += PoissonGapNs(options.rate_qps, &arrival_rng);
    const auto user = static_cast<uint32_t>(users.Sample(&arrival_rng));
    UserState& state = states[user];
    if (!state.init) {
      state.rng = Rng(ClientSeed(options.seed, user));
      state.anchor_distance =
          params.anchor_distance * state.rng.Uniform(0.5, 1.5);
      state.init = true;
    }
    Arrival arrival;
    arrival.at_ns = t_ns;
    arrival.user = user;
    arrival.q = geom::Point{state.rng.Uniform(domain.min.x, domain.max.x),
                            state.rng.Uniform(domain.min.y, domain.max.y)};
    arrival.anchor = core::GenerateAnchor(arrival.q, state.anchor_distance,
                                          domain, &state.rng);
    schedule.arrivals.push_back(arrival);
  }
  return schedule;
}

}  // namespace spacetwist::eval
