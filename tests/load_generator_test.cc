#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"

namespace spacetwist::eval {
namespace {

class LoadGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(20000, 1901);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ = server::LbsServer::Build(dataset_, rtree_options)
                  .MoveValueOrDie();
  }

  Schedule Closed(size_t clients, size_t queries) {
    return BuildClosedLoopWorkload(server_->domain(), core::QueryParams(),
                                   clients, queries, /*seed=*/4242);
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
};

TEST_F(LoadGeneratorTest, ReportAccountsForEveryQuery) {
  service::ServiceEngine engine(server_.get());
  LoadOptions options;
  options.worker_threads = 2;
  auto report = RunLoad(&engine, Closed(6, 3), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->scheduled, 18u);
  EXPECT_EQ(report->completed, 18u);
  EXPECT_EQ(report->rejected + report->failed, 0u);
  EXPECT_TRUE(report->first_failure.ok());
  EXPECT_EQ(report->digests.size(), 18u);
  EXPECT_EQ(report->tradeoffs.size(), 18u);
  EXPECT_GT(report->packets, 0u);
  EXPECT_GT(report->points, 0u);
  EXPECT_GT(report->queries_per_second, 0.0);
  EXPECT_GE(report->p99_latency_ms, report->p50_latency_ms);
  // The closed pacing records no queue delay.
  EXPECT_EQ(report->latency.count, 18u);
  EXPECT_EQ(report->queue_delay.count, 0u);
  // Closed loop closes every session it opens.
  EXPECT_EQ(engine.open_sessions(), 0u);
  EXPECT_EQ(engine.metrics().sessions_opened, 18u);
}

TEST_F(LoadGeneratorTest, DigestsMatchReferenceAcrossThreadCounts) {
  const Schedule schedule = Closed(8, 2);
  LoadOptions options;
  auto reference = RunReference(server_.get(), schedule, options.params);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->size(), 16u);

  for (size_t threads : {1u, 2u, 4u}) {
    service::ServiceEngine engine(server_.get());
    options.worker_threads = threads;
    auto report = RunLoad(&engine, schedule, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Byte-identical results no matter how the work is threaded: same
    // neighbor ids, same distance bit patterns, same packet counts.
    EXPECT_EQ(report->digests, *reference) << "threads=" << threads;
  }
}

TEST_F(LoadGeneratorTest, DistinctClientsGetDistinctWorkloads) {
  const Schedule schedule = Closed(4, 2);
  auto digests = RunReference(server_.get(), schedule, core::QueryParams());
  ASSERT_TRUE(digests.ok());
  ASSERT_EQ(digests->size(), 8u);
  for (size_t i = 0; i < digests->size(); ++i) {
    for (size_t j = i + 1; j < digests->size(); ++j) {
      if (schedule.arrivals[i].user == schedule.arrivals[j].user) continue;
      EXPECT_NE(schedule.arrivals[i].q, schedule.arrivals[j].q);
      EXPECT_NE((*digests)[i].result_hash, (*digests)[j].result_hash);
    }
  }
}

TEST_F(LoadGeneratorTest, ValidatesOptions) {
  service::ServiceEngine engine(server_.get());
  const Schedule schedule = Closed(1, 1);
  LoadOptions options;
  EXPECT_TRUE(RunLoad(&engine, Closed(0, 4), options)
                  .status()
                  .IsInvalidArgument());
  options.worker_threads = 0;
  EXPECT_TRUE(RunLoad(&engine, schedule, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunLoad(nullptr, schedule, LoadOptions())
                  .status()
                  .IsInvalidArgument());
  // Mismatched packet capacity would silently diverge from the reference.
  options.worker_threads = 1;
  options.params.packet = net::PacketConfig::WithCapacity(10);
  EXPECT_TRUE(RunLoad(&engine, schedule, options)
                  .status()
                  .IsInvalidArgument());
  // An SLO objective needs windows to judge.
  options.params = core::QueryParams();
  options.slo_objectives.emplace_back();
  EXPECT_TRUE(RunLoad(&engine, schedule, options)
                  .status()
                  .IsInvalidArgument());
  // A user's faulty link carries one query at a time: closed pacing only.
  options.slo_objectives.clear();
  options.fault.emplace();
  options.pacing = Pacing::kModeled;
  EXPECT_TRUE(RunLoad(&engine, schedule, options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace spacetwist::eval
