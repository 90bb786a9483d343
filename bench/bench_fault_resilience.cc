// Fault resilience: real SpaceTwist queries (Algorithm 1 over the wire
// codec) through a seeded lossy link, swept across loss / duplication /
// reorder rates. The table reports goodput (fraction of queries the retry
// layer completed), the faults injected, the retry/reopen/stale-frame
// cost, and the virtual time spent — all deterministic from (seed,
// FaultConfig), so rows are byte-identical across runs. Expected shape,
// gated by tools/validate_telemetry_json.py over BENCH_fault.json:
//  * goodput is 1.0 on every row through 20% per-frame fault rates;
//  * duplicates cost no retries and no backoff: the extra copies arrive
//    as stale frames, which the session drains by listening instead of
//    resending;
//  * retries stay within 2x the faults injected (a disconnect fails its
//    own round trip and the re-open's);
//  * every completed query's digest matches the fault-free reference.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/load_generator.h"
#include "eval/table.h"
#include "service/service_engine.h"

namespace spacetwist::bench {
namespace {

struct Measurement {
  const char* fault = "";
  double rate = 0.0;
  eval::LoadReport report;
};

net::FaultRates MixedRates(double rate) {
  net::FaultRates rates;
  rates.drop = rate;
  rates.duplicate = rate / 2;
  rates.reorder = rate / 2;
  rates.corrupt = rate / 2;
  rates.stall = rate / 4;
  rates.disconnect = rate / 8;
  return rates;
}

void Run() {
  PrintHeader("Fault resilience: goodput and retry cost vs fault rate");

  const datasets::Dataset ds = Ui(200000);
  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  auto server = server::LbsServer::Build(ds, rtree_options);
  SPACETWIST_CHECK(server.ok()) << server.status().ToString();

  const size_t num_clients = eval::ScaledCount(64, 8);
  const size_t queries_per_client = eval::ScaledCount(8, 4);
  // RunLoad's own eval.* instruments (a real-clock latency histogram among
  // them) stay out of the artifact's telemetry snapshot.
  telemetry::MetricRegistry load_registry;
  eval::LoadOptions base;
  // One client thread: the clients run round-robin in the same order on
  // every regeneration, so the shared engine's buffer pool and session
  // table, and with them the embedded telemetry, are byte-stable too.
  base.worker_threads = 1;
  base.registry = &load_registry;
  base.params.k = 4;
  base.params.anchor_distance = 500;
  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      server->get()->domain(), base.params, num_clients, queries_per_client,
      kRunSeed);
  auto reference = eval::RunReference(server->get(), schedule, base.params);
  SPACETWIST_CHECK(reference.ok()) << reference.status().ToString();

  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.10, 0.20};
  struct Sweep {
    const char* name;
    net::FaultRates (*rates_for)(double);
  };
  const std::vector<Sweep> sweeps = {
      {"drop", [](double r) { net::FaultRates f; f.drop = r; return f; }},
      {"dup", [](double r) { net::FaultRates f; f.duplicate = r; return f; }},
      {"reorder",
       [](double r) { net::FaultRates f; f.reorder = r; return f; }},
      {"mixed", MixedRates},
  };

  std::vector<Measurement> measurements;
  for (size_t s = 0; s < sweeps.size(); ++s) {
    const Sweep& sweep = sweeps[s];
    for (const double rate : rates) {
      // The fault-free baseline row is identical for every sweep; print once.
      if (rate == 0.0 && s != 0) continue;
      eval::LoadOptions options = base;
      options.fault.emplace();
      options.fault->uplink = sweep.rates_for(rate);
      options.fault->downlink = sweep.rates_for(rate);
      service::ServiceEngine engine(server->get());
      auto report = eval::RunLoad(&engine, schedule, options);
      SPACETWIST_CHECK(report.ok()) << report.status().ToString();
      // Correctness gate: every completed query matches the fault-free
      // digest — the bench never trades answers for goodput.
      for (size_t i = 0; i < report->digests.size(); ++i) {
        if (!report->succeeded[i]) continue;
        SPACETWIST_CHECK(report->digests[i] == (*reference)[i])
            << sweep.name << " rate " << rate << " client "
            << schedule.arrivals[i].user << " query " << i
            << ": digest diverged";
      }
      measurements.push_back({sweep.name, rate, std::move(*report)});
    }
  }

  eval::Table table({"fault", "rate", "goodput", "faults", "round.trips",
                     "attempts", "retries", "reopens", "stale", "backoff.ms",
                     "virtual.ms"});
  for (const Measurement& m : measurements) {
    table.AddRow(
        {m.fault, Fmt2(m.rate), StrFormat("%.3f", m.report.goodput()),
         StrFormat("%llu",
                   static_cast<unsigned long long>(m.report.faults.injected())),
         StrFormat("%llu",
                   static_cast<unsigned long long>(m.report.faults.round_trips)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(m.report.retry.attempts)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(m.report.retry.retries)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(m.report.retry.reopens)),
         StrFormat("%llu", static_cast<unsigned long long>(
                               m.report.retry.stale_replies)),
         Fmt1(static_cast<double>(m.report.retry.backoff_ns) / 1e6),
         Fmt1(static_cast<double>(m.report.virtual_ns) / 1e6)});
  }
  table.Print(std::cout);
  std::printf("clients=%zu queries/client=%zu; every completed query's "
              "digest is byte-identical to the fault-free reference\n",
              num_clients, queries_per_client);

  telemetry::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "fault_resilience");
  json.KV("clients", static_cast<uint64_t>(num_clients));
  json.KV("queries_per_client", static_cast<uint64_t>(queries_per_client));
  json.Key("results").BeginArray();
  for (const Measurement& m : measurements) {
    json.BeginObject();
    json.KV("fault", m.fault);
    json.KV("rate", m.rate, 2);
    json.KV("goodput", m.report.goodput());
    json.KV("faults_injected", m.report.faults.injected());
    json.KV("round_trips", m.report.faults.round_trips);
    json.KV("retries", m.report.retry.retries);
    json.KV("reopens", m.report.retry.reopens);
    json.KV("stale_replies", m.report.retry.stale_replies);
    json.KV("backoff_ms",
            static_cast<double>(m.report.retry.backoff_ns) / 1e6, 1);
    json.EndObject();
  }
  json.EndArray();
  FinishBenchJson("BENCH_fault.json", &json);
}

}  // namespace
}  // namespace spacetwist::bench

int main() {
  spacetwist::bench::Run();
  return 0;
}
