// Continuous-query extension (Section VIII direction): cache-and-
// revalidate sessions vs issuing a fresh snapshot query at every position
// update. Sweeps the session bound and reports server queries, packets,
// and the worst observed result error along random-walk trajectories.
// Expected: the session answers the same updates with a fraction of the
// server traffic while never exceeding its promised bound.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/continuous.h"
#include "eval/table.h"
#include "telemetry/metric.h"

namespace spacetwist::bench {
namespace {

void Run() {
  PrintHeader("Continuous queries: session cache vs per-update snapshots");
  const datasets::Dataset ds = Ui(500000);
  auto server = BuildServer(ds);
  const size_t trajectories = std::max<size_t>(3, QueryCount() / 10);
  const int steps = 80;
  const double stride = 40.0;  // meters per update

  eval::Table table({"session eps", "updates", "srv queries", "packets",
                     "max err(m)", "naive queries"});
  for (const double session_eps : {300.0, 600.0, 1200.0}) {
    Rng rng(kRunSeed);
    telemetry::Accumulator server_queries, packets, max_err;
    uint64_t updates_total = 0;
    for (size_t t = 0; t < trajectories; ++t) {
      core::ContinuousKnnSession::Options options;
      options.k = 4;
      options.epsilon = session_eps;
      options.query_epsilon = session_eps / 3.0;
      options.anchor_distance = 200;
      Rng session_rng = rng.Fork();
      core::ContinuousKnnSession session(server.get(), options,
                                         &session_rng);
      geom::Point user{rng.Uniform(2000, 8000), rng.Uniform(2000, 8000)};
      double heading = rng.Angle();
      double worst = 0.0;
      for (int step = 0; step < steps; ++step) {
        heading += rng.Uniform(-0.4, 0.4);
        user.x = std::clamp(user.x + stride * std::cos(heading), 1.0,
                            9999.0);
        user.y = std::clamp(user.y + stride * std::sin(heading), 1.0,
                            9999.0);
        auto result = session.Update(user);
        SPACETWIST_CHECK(result.ok());
        auto truth = server->ExactKnn(user, options.k);
        SPACETWIST_CHECK(truth.ok());
        worst = std::max(worst, result->back().distance -
                                    truth->back().distance);
      }
      updates_total += session.updates();
      server_queries.Add(static_cast<double>(session.server_queries()));
      packets.Add(static_cast<double>(session.total_packets()));
      max_err.Add(worst);
    }
    table.AddRow({Fmt1(session_eps),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        updates_total)),
                  Fmt1(server_queries.Mean()), Fmt1(packets.Mean()),
                  Fmt1(max_err.Max()),
                  StrFormat("%d", steps)});
  }
  table.Print(std::cout);
  std::printf("expected: server queries per trajectory << %d updates, "
              "shrinking as the session bound loosens; max error always "
              "below the session epsilon\n",
              steps);
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
