#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "eval/arrival.h"
#include "eval/load_generator.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"

namespace spacetwist::eval {
namespace {

/// Property (per tests/lemma_property_test.cc): the empirical mean of the
/// exponential inter-arrival gaps matches the analytic 1/lambda, and so
/// does the standard deviation (exponential: sigma == mean) — a seeded Rng
/// makes both checks exact reruns.
TEST(PoissonArrivalTest, GapMomentsMatchAnalyticValues) {
  for (const double rate_qps : {100.0, 1000.0, 25000.0}) {
    Rng rng(4242);
    constexpr size_t kSamples = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t i = 0; i < kSamples; ++i) {
      const double gap = static_cast<double>(PoissonGapNs(rate_qps, &rng));
      sum += gap;
      sum_sq += gap * gap;
    }
    const double mean = sum / kSamples;
    const double expected_mean = 1e9 / rate_qps;
    EXPECT_NEAR(mean, expected_mean, expected_mean * 0.02)
        << "rate=" << rate_qps;
    const double variance = sum_sq / kSamples - mean * mean;
    const double stddev = std::sqrt(variance);
    EXPECT_NEAR(stddev, expected_mean, expected_mean * 0.05)
        << "rate=" << rate_qps;
  }
}

/// Zipf rank frequencies match the analytic probabilities, and s == 0
/// degenerates to the uniform distribution.
TEST(ZipfSamplerTest, RankFrequenciesMatchAnalyticProbabilities) {
  for (const double s : {0.0, 0.8, 1.0, 1.4}) {
    constexpr size_t kRanks = 16;
    constexpr size_t kSamples = 200000;
    ZipfSampler sampler(kRanks, s);
    double total_probability = 0.0;
    for (size_t r = 0; r < kRanks; ++r) {
      total_probability += sampler.Probability(r);
    }
    EXPECT_NEAR(total_probability, 1.0, 1e-9) << "s=" << s;

    Rng rng(99);
    std::vector<uint64_t> counts(kRanks, 0);
    for (size_t i = 0; i < kSamples; ++i) ++counts[sampler.Sample(&rng)];
    for (size_t r = 0; r < kRanks; ++r) {
      const double expected = sampler.Probability(r);
      const double observed =
          static_cast<double>(counts[r]) / static_cast<double>(kSamples);
      // Three-ish binomial sigmas plus an absolute floor for tail ranks.
      const double tolerance =
          3.5 * std::sqrt(expected * (1.0 - expected) / kSamples) + 1e-3;
      EXPECT_NEAR(observed, expected, tolerance) << "s=" << s << " r=" << r;
    }
    if (s == 0.0) {
      EXPECT_NEAR(sampler.Probability(0), 1.0 / kRanks, 1e-12);
      EXPECT_NEAR(sampler.Probability(kRanks - 1), 1.0 / kRanks, 1e-12);
    } else {
      EXPECT_GT(sampler.Probability(0), sampler.Probability(kRanks - 1));
    }
  }
}

TEST(ArrivalWorkloadTest, ScheduleIsDeterministicAndUserPoliciesDistinct) {
  const geom::Rect domain{{0, 0}, {10000, 10000}};
  core::QueryParams params;
  params.anchor_distance = 300.0;
  ArrivalOptions options;
  options.rate_qps = 500.0;
  options.num_users = 12;
  options.total_arrivals = 300;
  options.zipf_s = 1.0;
  options.seed = 777;

  const Schedule a = BuildOpenLoopWorkload(domain, params, options);
  const Schedule b = BuildOpenLoopWorkload(domain, params, options);
  ASSERT_EQ(a.arrivals.size(), options.total_arrivals);
  ASSERT_EQ(b.arrivals.size(), a.arrivals.size());
  for (size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at_ns, b.arrivals[i].at_ns) << i;
    EXPECT_EQ(a.arrivals[i].user, b.arrivals[i].user) << i;
    EXPECT_EQ(a.arrivals[i].q, b.arrivals[i].q) << i;
    EXPECT_EQ(a.arrivals[i].anchor, b.arrivals[i].anchor) << i;
    if (i > 0) {
      EXPECT_GE(a.arrivals[i].at_ns, a.arrivals[i - 1].at_ns);
    }
  }

  // Per-user anchor policies: reproducible from (seed, user) alone and not
  // all equal — distinct users disclose distinctly imprecise locations.
  double lo = 1e18;
  double hi = 0.0;
  for (uint32_t user = 0; user < options.num_users; ++user) {
    const double d = UserAnchorDistance(params, options.seed, user);
    EXPECT_EQ(d, UserAnchorDistance(params, options.seed, user));
    EXPECT_GE(d, params.anchor_distance * 0.5);
    EXPECT_LT(d, params.anchor_distance * 1.5);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi - lo, 1e-6);
}

/// Two open-loop runs in kModeled pacing under a VirtualClock are
/// byte-identical: same digests, same latency and queue-delay histograms,
/// same knee-curve numbers. This is the determinism contract bench_openloop
/// and the validator's monotonicity checks stand on.
TEST(OpenLoopVirtualTest, VirtualClockRunsAreByteIdentical) {
  const datasets::Dataset dataset = datasets::GenerateUniform(6000, 313);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto server = server::LbsServer::Build(dataset, rtree_options)
                    .MoveValueOrDie();

  ArrivalOptions arrival;
  arrival.rate_qps = 4000.0;
  arrival.num_users = 8;
  arrival.total_arrivals = 48;
  arrival.seed = 2024;
  LoadOptions options;
  options.params.k = 3;
  options.params.epsilon = 150.0;
  options.params.anchor_distance = 250.0;
  options.pacing = Pacing::kModeled;
  options.worker_threads = 2;
  const Schedule schedule =
      BuildOpenLoopWorkload(dataset.domain, options.params, arrival);

  auto run = [&]() -> LoadReport {
    telemetry::VirtualClock clock(0);
    telemetry::MetricRegistry registry;
    options.clock = &clock;
    options.registry = &registry;
    service::ServiceOptions service_options;
    service_options.clock = &clock;
    service_options.registry = &registry;
    service::ServiceEngine service(server.get(), service_options);
    return RunLoad(&service, schedule, options).MoveValueOrDie();
  };
  const LoadReport a = run();
  const LoadReport b = run();

  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.queries_per_second, b.queries_per_second);
  EXPECT_EQ(a.p50_latency_ms, b.p50_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  auto same_histogram = [](const telemetry::HistogramSnapshot& x,
                           const telemetry::HistogramSnapshot& y) {
    if (x.count != y.count || x.sum != y.sum || x.min != y.min ||
        x.max != y.max || x.buckets.size() != y.buckets.size()) {
      return false;
    }
    for (size_t i = 0; i < x.buckets.size(); ++i) {
      if (x.buckets[i].lo != y.buckets[i].lo ||
          x.buckets[i].count != y.buckets[i].count) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same_histogram(a.latency, b.latency));
  EXPECT_TRUE(same_histogram(a.queue_delay, b.queue_delay));
  EXPECT_GT(a.latency.count, 0u);
  EXPECT_GT(a.queue_delay.count, 0u);
}

}  // namespace
}  // namespace spacetwist::eval
