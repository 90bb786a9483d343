#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/spacetwist_client.h"
#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "net/faulty_transport.h"
#include "privacy/observation.h"
#include "privacy/region.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"

namespace spacetwist {
namespace {

/// Property sweeps over the paper's two central lemmas and the privacy
/// soundness claim, across dataset shapes, k, epsilon, anchor distance, and
/// packet capacity — the full parameter cross the proofs quantify over.

struct SweepCase {
  const char* dataset;
  size_t k;
  double epsilon;
  double anchor_distance;
  size_t beta;
};

class LemmaSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static datasets::Dataset MakeData(const std::string& kind) {
    if (kind == "UI") return datasets::GenerateUniform(20000, 1301);
    datasets::ClusterParams params;
    params.num_clusters = 60;
    params.sigma = 100;
    params.background_fraction = 0.03;
    return datasets::GenerateClustered(20000, params, 1301);
  }
};

TEST_P(LemmaSweepTest, Lemma1ExactnessLemma2BoundAndPsiSoundness) {
  const SweepCase c = GetParam();
  const datasets::Dataset ds = MakeData(c.dataset);
  auto server = server::LbsServer::Build(ds).MoveValueOrDie();
  core::SpaceTwistClient client(server.get());
  Rng rng(77);

  for (int trial = 0; trial < 4; ++trial) {
    const geom::Point q{rng.Uniform(500, 9500), rng.Uniform(500, 9500)};
    core::QueryParams params;
    params.k = c.k;
    params.epsilon = c.epsilon;
    params.anchor_distance = c.anchor_distance;
    params.packet = net::PacketConfig::WithCapacity(c.beta);
    auto outcome = client.Query(q, params, &rng);
    ASSERT_TRUE(outcome.ok());

    // Ground truth from the server's exact kNN.
    auto truth = server->ExactKnn(q, c.k);
    ASSERT_TRUE(truth.ok());
    ASSERT_EQ(outcome->neighbors.size(), truth->size());

    if (c.epsilon == 0.0) {
      // Lemma 1: exact results.
      for (size_t i = 0; i < truth->size(); ++i) {
        EXPECT_NEAR(outcome->neighbors[i].distance, (*truth)[i].distance,
                    1e-9);
      }
    } else {
      // Lemma 2 (kNN extension): kth distance within epsilon of truth.
      EXPECT_LE(outcome->neighbors.back().distance,
                truth->back().distance + c.epsilon + 1e-6);
    }

    // Privacy soundness: the true location is always a possible location.
    const privacy::Observation obs =
        privacy::MakeObservation(*outcome, server->domain());
    EXPECT_TRUE(privacy::InPrivacyRegion(obs, q));

    // Termination soundness: either the cover condition fired or the
    // stream ran dry.
    if (!outcome->stream_exhausted) {
      EXPECT_LE(outcome->gamma + geom::Distance(q, outcome->anchor),
                outcome->tau + 1e-9);
    }
  }
}

TEST(FaultedLemmaPropertyTest, RetrySuccessImpliesFaultFreeDigest) {
  // Lemma 1, end-to-end under an adversarial link: for randomized datasets,
  // workloads, and fault schedules, any query for which the retry layer
  // reports success must produce a digest (kNN ids + distance bits + packet
  // count) byte-identical to the fault-free reference. Faults may cost
  // retries and backoff; they may never change an answer.
  for (const uint64_t seed : {11ull, 3202ull, 909090ull}) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(4000, 12000));
    datasets::Dataset ds;
    if (rng.Bernoulli(0.5)) {
      ds = datasets::GenerateUniform(n, seed);
    } else {
      datasets::ClusterParams cluster;
      cluster.num_clusters = 20;
      cluster.sigma = 150;
      cluster.background_fraction = 0.05;
      ds = datasets::GenerateClustered(n, cluster, seed);
    }
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    auto server = server::LbsServer::Build(ds, rtree_options).MoveValueOrDie();
    service::ServiceEngine engine(server.get());

    eval::LoadOptions options;
    options.worker_threads = 1;
    const uint64_t load_seed = rng.Next();
    options.params.k = static_cast<size_t>(rng.UniformInt(1, 16));
    options.params.epsilon = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(50, 500);
    options.params.anchor_distance = rng.Uniform(100, 800);
    options.fault_seed = rng.Next();
    options.retry_seed = rng.Next();
    net::FaultRates rates;
    rates.drop = rng.Uniform(0, 0.15);
    rates.duplicate = rng.Uniform(0, 0.15);
    rates.reorder = rng.Uniform(0, 0.15);
    rates.corrupt = rng.Uniform(0, 0.15);
    rates.stall = rng.Uniform(0, 0.08);
    rates.disconnect = rng.Uniform(0, 0.03);
    options.fault.emplace();
    options.fault->uplink = rates;
    options.fault->downlink = rates;
    const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
        server->domain(), options.params, 3, 2, load_seed);

    auto run = eval::RunLoad(&engine, schedule, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto reference =
        eval::RunReference(server.get(), schedule, options.params);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    ASSERT_EQ(run->digests.size(), reference->size());
    for (size_t i = 0; i < run->digests.size(); ++i) {
      if (!run->succeeded[i]) continue;
      EXPECT_TRUE(run->digests[i] == (*reference)[i])
          << "seed " << seed << " client " << schedule.arrivals[i].user
          << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LemmaSweepTest,
    ::testing::Values(
        SweepCase{"UI", 1, 0.0, 200, 67}, SweepCase{"UI", 1, 0.0, 200, 1},
        SweepCase{"UI", 4, 0.0, 500, 4}, SweepCase{"UI", 16, 0.0, 50, 67},
        SweepCase{"UI", 1, 200.0, 200, 67},
        SweepCase{"UI", 8, 500.0, 1000, 16},
        SweepCase{"UI", 2, 50.0, 100, 8},
        SweepCase{"CL", 1, 0.0, 200, 67}, SweepCase{"CL", 4, 0.0, 300, 4},
        SweepCase{"CL", 1, 200.0, 200, 67},
        SweepCase{"CL", 16, 1000.0, 500, 67},
        SweepCase{"CL", 2, 100.0, 1000, 1}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const SweepCase& c = info.param;
      return std::string(c.dataset) + "_k" + std::to_string(c.k) + "_eps" +
             std::to_string(static_cast<int>(c.epsilon)) + "_d" +
             std::to_string(static_cast<int>(c.anchor_distance)) + "_b" +
             std::to_string(c.beta);
    });

}  // namespace
}  // namespace spacetwist
