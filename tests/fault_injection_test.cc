#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datasets/generator.h"
#include "eval/load_generator.h"
#include "net/faulty_transport.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"

namespace spacetwist::eval {
namespace {

/// The fault matrix of ISSUE acceptance: every fault kind crossed with the
/// query shapes {k=1, k=16, granular epsilon>0}, each run end-to-end
/// (RemoteQuery -> WireSession -> FaultyTransport -> ServiceEngine) and
/// checked against the fault-free library path. Two properties per cell:
///
///  1. Correctness: whenever the retry layer reports success, the query's
///     digest (kNN ids + distance bits + packet count) is byte-identical to
///     the fault-free reference — faults may cost retries, never answers.
///  2. Reproducibility: rerunning with the same (seed, FaultConfig) gives
///     the same report, down to the per-client fault logs.

struct MatrixCase {
  const char* name;
  net::FaultKind kind;
  double rate;
  size_t k;
  double epsilon;
};

net::FaultRates RatesWith(net::FaultKind kind, double rate) {
  net::FaultRates rates;
  switch (kind) {
    case net::FaultKind::kDrop:
      rates.drop = rate;
      break;
    case net::FaultKind::kDuplicate:
      rates.duplicate = rate;
      break;
    case net::FaultKind::kReorder:
      rates.reorder = rate;
      break;
    case net::FaultKind::kCorrupt:
      rates.corrupt = rate;
      break;
    case net::FaultKind::kStall:
      rates.stall = rate;
      break;
    case net::FaultKind::kDisconnect:
      rates.disconnect = rate;
      break;
  }
  return rates;
}

uint64_t CountFor(const net::FaultStats& stats, net::FaultKind kind) {
  switch (kind) {
    case net::FaultKind::kDrop:
      return stats.drops;
    case net::FaultKind::kDuplicate:
      return stats.duplicates;
    case net::FaultKind::kReorder:
      return stats.reorders;
    case net::FaultKind::kCorrupt:
      return stats.corruptions;
    case net::FaultKind::kStall:
      return stats.stalls;
    case net::FaultKind::kDisconnect:
      return stats.disconnects;
  }
  return 0;
}

bool SameEvent(const net::FaultEvent& a, const net::FaultEvent& b) {
  return a.op == b.op && a.at_ns == b.at_ns && a.direction == b.direction &&
         a.request_type == b.request_type && a.kind == b.kind;
}

void ExpectIdenticalReports(const LoadReport& a, const LoadReport& b) {
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
  EXPECT_EQ(a.retry.retries, b.retry.retries);
  EXPECT_EQ(a.retry.reopens, b.retry.reopens);
  EXPECT_EQ(a.retry.stale_replies, b.retry.stale_replies);
  EXPECT_EQ(a.retry.backoff_ns, b.retry.backoff_ns);
  EXPECT_EQ(a.faults.round_trips, b.faults.round_trips);
  EXPECT_EQ(a.faults.delivered, b.faults.delivered);
  EXPECT_EQ(a.faults.injected(), b.faults.injected());
  EXPECT_EQ(a.virtual_ns, b.virtual_ns);
  ASSERT_EQ(a.fault_logs.size(), b.fault_logs.size());
  for (size_t c = 0; c < a.fault_logs.size(); ++c) {
    ASSERT_EQ(a.fault_logs[c].size(), b.fault_logs[c].size()) << "client " << c;
    for (size_t i = 0; i < a.fault_logs[c].size(); ++i) {
      EXPECT_TRUE(SameEvent(a.fault_logs[c][i], b.fault_logs[c][i]))
          << "client " << c << ": " << net::ToString(a.fault_logs[c][i])
          << " vs " << net::ToString(b.fault_logs[c][i]);
    }
  }
}

/// A faulted closed-loop run: `clients` clients with `queries` queries
/// each, one FaultyTransport per client, single-threaded unless a test
/// says otherwise.
struct FaultRun {
  Schedule schedule;
  LoadOptions options;
};

FaultRun MakeFaultRun(const server::LbsServer& server, size_t clients,
                      size_t queries, uint64_t seed,
                      const core::QueryParams& params,
                      const net::FaultConfig& fault) {
  FaultRun run;
  run.options.worker_threads = 1;
  run.options.params = params;
  run.options.fault = fault;
  run.schedule = BuildClosedLoopWorkload(server.domain(), params, clients,
                                         queries, seed);
  return run;
}

/// Every query the retry layer completed matches the fault-free reference.
void ExpectSucceededMatchReference(server::LbsServer* server,
                                   const FaultRun& run,
                                   const LoadReport& report) {
  auto reference = RunReference(server, run.schedule, run.options.params);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(report.digests.size(), reference->size());
  for (size_t i = 0; i < report.digests.size(); ++i) {
    if (!report.succeeded[i]) continue;
    EXPECT_TRUE(report.digests[i] == (*reference)[i])
        << "client " << run.schedule.arrivals[i].user << " query " << i
        << ": faulted digest diverged from the fault-free reference";
  }
}

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(20000, 1901);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ =
        server::LbsServer::Build(dataset_, rtree_options).MoveValueOrDie();
  }

  FaultRun Options(const MatrixCase& c) const {
    core::QueryParams params;
    params.k = c.k;
    params.epsilon = c.epsilon;
    params.anchor_distance = 300;
    net::FaultConfig fault;
    fault.uplink = RatesWith(c.kind, c.rate);
    fault.downlink = RatesWith(c.kind, c.rate);
    return MakeFaultRun(*server_, 4, 3, 9001, params, fault);
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
};

TEST_P(FaultMatrixTest, SuccessfulQueriesMatchFaultFreeDigestsExactly) {
  const MatrixCase c = GetParam();
  service::ServiceEngine engine(server_.get());
  const FaultRun run = Options(c);

  auto report = RunLoad(&engine, run.schedule, run.options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The schedule actually exercised this cell's fault.
  EXPECT_GT(CountFor(report->faults, c.kind), 0u) << "fault never fired";
  // With the default retry budget every query survives these rates.
  EXPECT_EQ(report->completed, report->scheduled);
  EXPECT_GT(report->retry.retries + report->retry.reopens +
                report->retry.stale_replies,
            0u);
  ExpectSucceededMatchReference(server_.get(), run, *report);
}

TEST_P(FaultMatrixTest, RerunFromSameSeedAndConfigIsByteIdentical) {
  const MatrixCase c = GetParam();
  const FaultRun run = Options(c);

  service::ServiceEngine engine_a(server_.get());
  auto run_a = RunLoad(&engine_a, run.schedule, run.options);
  ASSERT_TRUE(run_a.ok());

  service::ServiceEngine engine_b(server_.get());
  auto run_b = RunLoad(&engine_b, run.schedule, run.options);
  ASSERT_TRUE(run_b.ok());

  ExpectIdenticalReports(*run_a, *run_b);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest,
    ::testing::Values(
        MatrixCase{"drop_k1", net::FaultKind::kDrop, 0.15, 1, 0.0},
        MatrixCase{"drop_k16", net::FaultKind::kDrop, 0.15, 16, 0.0},
        MatrixCase{"drop_eps", net::FaultKind::kDrop, 0.15, 4, 300.0},
        MatrixCase{"dup_k1", net::FaultKind::kDuplicate, 0.2, 1, 0.0},
        MatrixCase{"dup_k16", net::FaultKind::kDuplicate, 0.2, 16, 0.0},
        MatrixCase{"dup_eps", net::FaultKind::kDuplicate, 0.2, 4, 300.0},
        MatrixCase{"reorder_k1", net::FaultKind::kReorder, 0.2, 1, 0.0},
        MatrixCase{"reorder_k16", net::FaultKind::kReorder, 0.2, 16, 0.0},
        MatrixCase{"reorder_eps", net::FaultKind::kReorder, 0.2, 4, 300.0},
        MatrixCase{"corrupt_k1", net::FaultKind::kCorrupt, 0.15, 1, 0.0},
        MatrixCase{"corrupt_k16", net::FaultKind::kCorrupt, 0.15, 16, 0.0},
        MatrixCase{"corrupt_eps", net::FaultKind::kCorrupt, 0.15, 4, 300.0},
        MatrixCase{"stall_k1", net::FaultKind::kStall, 0.1, 1, 0.0},
        MatrixCase{"stall_k16", net::FaultKind::kStall, 0.1, 16, 0.0},
        MatrixCase{"stall_eps", net::FaultKind::kStall, 0.1, 4, 300.0},
        MatrixCase{"disconnect_k1", net::FaultKind::kDisconnect, 0.04, 1, 0.0},
        MatrixCase{"disconnect_k16", net::FaultKind::kDisconnect, 0.04, 16,
                   0.0},
        MatrixCase{"disconnect_eps", net::FaultKind::kDisconnect, 0.04, 4,
                   300.0}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.name);
    });

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datasets::GenerateUniform(20000, 1901);
    rtree::RTreeOptions rtree_options;
    rtree_options.concurrent_reads = true;
    server_ =
        server::LbsServer::Build(dataset_, rtree_options).MoveValueOrDie();
  }

  datasets::Dataset dataset_;
  std::unique_ptr<server::LbsServer> server_;
};

net::FaultRates KitchenSinkRates() {
  net::FaultRates rates;
  rates.drop = 0.08;
  rates.duplicate = 0.08;
  rates.reorder = 0.08;
  rates.corrupt = 0.08;
  rates.stall = 0.04;
  rates.disconnect = 0.02;
  return rates;
}

TEST_F(FaultInjectionTest, KitchenSinkAllFaultsAtOnce) {
  // Everything misbehaving simultaneously — the realistic regime — must
  // still yield only correct answers.
  service::ServiceEngine engine(server_.get());
  core::QueryParams params;
  params.k = 8;
  params.epsilon = 150.0;
  params.anchor_distance = 400;
  net::FaultConfig fault;
  fault.uplink = KitchenSinkRates();
  fault.downlink = KitchenSinkRates();
  const FaultRun run = MakeFaultRun(*server_, 6, 3, 777, params, fault);

  auto report = RunLoad(&engine, run.schedule, run.options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->completed, 0u);
  ExpectSucceededMatchReference(server_.get(), run, *report);
}

TEST_F(FaultInjectionTest, InterleavedClientsKeepTheirFaultsAndAnswers) {
  // Each client owns its FaultyTransport and its retry seed, so running the
  // clients on four threads against one shared engine — interleaving their
  // frames and session ids arbitrarily — must reproduce the single-threaded
  // run query for query: answers, success flags, retries, fault totals, and
  // every client's fault log.
  core::QueryParams params;
  params.k = 4;
  params.epsilon = 150.0;
  params.anchor_distance = 400;
  net::FaultConfig fault;
  fault.uplink = KitchenSinkRates();
  fault.downlink = KitchenSinkRates();
  FaultRun run = MakeFaultRun(*server_, 12, 4, 4321, params, fault);

  service::ServiceEngine engine_serial(server_.get());
  auto serial = RunLoad(&engine_serial, run.schedule, run.options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->faults.injected(), 0u);

  run.options.worker_threads = 4;
  service::ServiceEngine engine_parallel(server_.get());
  auto parallel = RunLoad(&engine_parallel, run.schedule, run.options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalReports(*serial, *parallel);
}

TEST_F(FaultInjectionTest, PerMessageTypeOverridesScopeTheFaults) {
  // Loss confined to Pull traffic: Open and Close stay clean, so the run
  // must see zero reopens yet plenty of pull retries.
  service::ServiceEngine engine(server_.get());
  core::QueryParams params;
  params.k = 4;
  params.anchor_distance = 300;
  net::FaultConfig fault;
  net::FaultRates lossy;
  lossy.drop = 0.25;
  fault.downlink_overrides.emplace_back(net::MessageType::kPullRequest, lossy);
  const FaultRun run = MakeFaultRun(*server_, 3, 2, 4242, params, fault);

  auto report = RunLoad(&engine, run.schedule, run.options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed, report->scheduled);
  EXPECT_GT(report->faults.drops, 0u);
  EXPECT_EQ(report->retry.reopens, 0u);
  for (const auto& log : report->fault_logs) {
    for (const net::FaultEvent& event : log) {
      EXPECT_EQ(event.request_type, net::MessageType::kPullRequest)
          << net::ToString(event);
    }
  }
}

TEST_F(FaultInjectionTest, FaultLogReplaysTheRun) {
  // The log is not decorative: replaying the transport with the same seed
  // against a fresh engine reproduces the exact same event sequence, which
  // is what makes any failure from a (seed, config) pair debuggable.
  service::ServiceEngine engine(server_.get());
  core::QueryParams params;
  params.anchor_distance = 250;
  net::FaultConfig fault;
  fault.uplink.drop = 0.1;
  fault.downlink.drop = 0.1;
  fault.downlink.corrupt = 0.1;
  const FaultRun run = MakeFaultRun(*server_, 2, 2, 4242, params, fault);

  auto report = RunLoad(&engine, run.schedule, run.options);
  ASSERT_TRUE(report.ok());
  size_t events = 0;
  for (const auto& log : report->fault_logs) events += log.size();
  ASSERT_GT(events, 0u);

  service::ServiceEngine replay_engine(server_.get());
  auto replay = RunLoad(&replay_engine, run.schedule, run.options);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->fault_logs.size(), report->fault_logs.size());
  for (size_t c = 0; c < report->fault_logs.size(); ++c) {
    ASSERT_EQ(replay->fault_logs[c].size(), report->fault_logs[c].size());
    for (size_t i = 0; i < report->fault_logs[c].size(); ++i) {
      EXPECT_TRUE(
          SameEvent(replay->fault_logs[c][i], report->fault_logs[c][i]));
    }
  }
}

}  // namespace
}  // namespace spacetwist::eval
