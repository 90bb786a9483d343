#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>

#include "datasets/generator.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "eval/workload.h"
#include "server/lbs_server.h"
#include "telemetry/metric.h"

namespace spacetwist::eval {
namespace {

TEST(AccumulatorTest, Statistics) {
  telemetry::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  acc.Add(2);
  acc.Add(4);
  acc.Add(9);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.Min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
}

TEST(WorkloadTest, DeterministicAndInDomain) {
  const geom::Rect domain{{0, 0}, {10000, 10000}};
  const auto a = GenerateQueryPoints(100, domain, 7);
  const auto b = GenerateQueryPoints(100, domain, 7);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_TRUE(domain.Contains(a[i]));
  }
  const auto c = GenerateQueryPoints(100, domain, 8);
  EXPECT_NE(a[0], c[0]);
}

TEST(TableTest, PrintsAlignedGrid) {
  Table t({"col", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  // Cells are right-aligned to the widest entry per column.
  EXPECT_NE(out.find("|   col | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("|     b | 12345 |"), std::string::npos);
  EXPECT_NE(out.find("+-------+-------+"), std::string::npos);
}

TEST(RunnerTest, GstAggregateIsPlausible) {
  const datasets::Dataset ds = datasets::GenerateUniform(50000, 901);
  auto server = server::LbsServer::Build(ds).MoveValueOrDie();
  const auto queries = GenerateQueryPoints(20, ds.domain, 11);

  GstRunOptions options;
  options.params.epsilon = 200;
  options.params.anchor_distance = 200;
  options.mc_samples = 2000;
  auto agg = RunGst(server.get(), queries, options);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->queries, 20u);
  EXPECT_GE(agg->mean_packets, 1.0);
  EXPECT_LT(agg->mean_packets, 30.0);
  EXPECT_GE(agg->mean_error, 0.0);
  EXPECT_LE(agg->mean_error, 200.0);  // within the bound
  EXPECT_GE(agg->mean_privacy, 100.0);
  EXPECT_NEAR(agg->mean_anchor_distance, 200.0, 1.0);
  EXPECT_GT(agg->mean_node_reads, 0.0);
}

TEST(RunnerTest, ErrorIsZeroWhenEpsilonZero) {
  const datasets::Dataset ds = datasets::GenerateUniform(20000, 907);
  auto server = server::LbsServer::Build(ds).MoveValueOrDie();
  const auto queries = GenerateQueryPoints(10, ds.domain, 13);
  GstRunOptions options;
  options.params.epsilon = 0;
  options.measure_privacy = false;
  auto agg = RunGst(server.get(), queries, options);
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(agg->mean_error, 0.0, 1e-9);
  EXPECT_NEAR(agg->max_error, 0.0, 1e-9);
}

TEST(RunnerTest, DeterministicGivenSeed) {
  const datasets::Dataset ds = datasets::GenerateUniform(20000, 911);
  auto server = server::LbsServer::Build(ds).MoveValueOrDie();
  const auto queries = GenerateQueryPoints(5, ds.domain, 17);
  GstRunOptions options;
  options.mc_samples = 1000;
  auto a = RunGst(server.get(), queries, options);
  auto b = RunGst(server.get(), queries, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->mean_packets, b->mean_packets);
  EXPECT_DOUBLE_EQ(a->mean_error, b->mean_error);
  EXPECT_DOUBLE_EQ(a->mean_privacy, b->mean_privacy);
}

TEST(RunnerTest, ClkAggregate) {
  const datasets::Dataset ds = datasets::GenerateUniform(30000, 913);
  auto server = server::LbsServer::Build(ds).MoveValueOrDie();
  const auto queries = GenerateQueryPoints(10, ds.domain, 19);
  auto small = RunClk(server.get(), queries, 1, 100, 1);
  auto large = RunClk(server.get(), queries, 1, 1000, 1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->mean_candidates, small->mean_candidates);
  EXPECT_GE(small->mean_packets, 1.0);
}

TEST(BenchScaleTest, EnvControlsScale) {
  ::unsetenv("SPACETWIST_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
  EXPECT_EQ(ScaledCount(1000), 1000u);
  ::setenv("SPACETWIST_BENCH_SCALE", "0.1", 1);
  EXPECT_DOUBLE_EQ(BenchScale(), 0.1);
  EXPECT_EQ(ScaledCount(1000), 100u);
  EXPECT_EQ(ScaledCount(3, 1), 1u);
  ::setenv("SPACETWIST_BENCH_SCALE", "7.0", 1);  // clamped to 1
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
  ::unsetenv("SPACETWIST_BENCH_SCALE");
}

}  // namespace
}  // namespace spacetwist::eval
