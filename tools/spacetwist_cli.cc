// spacetwist_cli — command-line front end for the SpaceTwist library.
//
//   spacetwist_cli gen     --type ui|sc|tg|cluster --n 100000 --seed 1
//                          --out ds.bin [--clusters 300 --sigma 100
//                          --background 0.05]
//   spacetwist_cli import  --in points.txt --name MyData --out ds.bin
//   spacetwist_cli index   --dataset ds.bin --out index.rt
//   spacetwist_cli info    --index index.rt | --dataset ds.bin
//   spacetwist_cli query   --dataset ds.bin --x 4250 --y 6800
//                          [--k 4 --epsilon 200 --anchor-dist 300 --seed 7]
//   spacetwist_cli privacy --dataset ds.bin --x 4250 --y 6800
//                          [--k 1 --epsilon 200 --anchor-dist 300
//                          --samples 50000 --seed 7]
//   spacetwist_cli sweep   --dataset ds.bin --param epsilon|anchor|k
//                          --values 0,50,100,200 [--queries 50 --seed 7]
//   spacetwist_cli serve-bench --dataset ds.bin [--clients 64 --queries 4
//                          --threads 1,2,4,8 --k 1 --epsilon 200
//                          --anchor-dist 200 --seed 7]
//                          [--shards N]          # Hilbert-sharded fleet
//                                                # behind a ShardRouter
//                          [--backend paged|memidx]
//                                                # serving index; digests
//                                                # must match either way
//                          [--statsz [out.txt]]  # dump the telemetry page
//                          [--statsz-interval 1] # + periodic samples, every
//                                                # N clock seconds
//                          [--trace out.json [--trace-every 1]]
//                                                # distributed traces +
//                                                # per-query trade-offs
//                          [--timeseries ts.json [--timeseries-interval 1]
//                           [--slo instrument:p99:limit[,...]]]
//                                                # windowed time series +
//                                                # SLO watchdog; trips dump
//                                                # the flight recorder and
//                                                # escalate tracing
//                                                # (signal: pNN or rate)
//                          [--open-loop --arrival-rate 2000,4000,8000,16000
//                           --users 64 --arrivals 500 --zipf 1.0
//                           --workers 4]         # open-loop mode: Poisson
//                                                # arrivals at fixed offered
//                                                # rates through the event-
//                                                # driven engine instead of
//                                                # closed-loop clients
//   spacetwist_cli trace-report --in trace.json [--top 5]
//                          # also accepts spacetwist.timeseries.v1
//                          # documents (--timeseries output): reports the
//                          # SLO trips and their flight-recorder dumps
//
// Exit code 0 on success, 1 on any error (message on stderr).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.h"
#include "cli/trace_report.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/params.h"
#include "eval/table.h"
#include "eval/tradeoff.h"
#include "privacy/exact_region.h"
#include "rtree/persistence.h"
#include "rtree/tree_stats.h"
#include "spacetwist/spacetwist.h"
#include "telemetry/clock.h"
#include "telemetry/export.h"
#include "telemetry/registry.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_export.h"

namespace spacetwist::cli {
namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: spacetwist_cli "
      "<gen|import|index|info|query|privacy|sweep|serve-bench|trace-report> "
      "[--flags]\n"
      "run with a command and no flags for that command's defaults; see "
      "the header of tools/spacetwist_cli.cc for the full synopsis\n");
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string out;
  char buffer[65536];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IoError(StrFormat("error reading %s", path.c_str()));
  }
  return out;
}

Status WriteFile(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return Status::OK();
}

Result<datasets::Dataset> LoadDatasetFlag(const Flags& flags) {
  const std::string path = flags.GetString("dataset", "");
  if (path.empty()) {
    return Status::InvalidArgument("--dataset <file> is required");
  }
  return datasets::LoadDataset(path);
}

Status RunGen(const Flags& flags) {
  const std::string type = flags.GetString("type", "ui");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Status::InvalidArgument("--out is required");
  SPACETWIST_ASSIGN_OR_RETURN(int64_t n, flags.GetInt("n", 100000));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 1));

  datasets::Dataset ds;
  if (type == "ui") {
    ds = datasets::GenerateUniform(static_cast<size_t>(n),
                                   static_cast<uint64_t>(seed));
  } else if (type == "sc") {
    ds = datasets::MakeScLike(static_cast<uint64_t>(seed));
  } else if (type == "tg") {
    ds = datasets::MakeTgLike(static_cast<uint64_t>(seed));
  } else if (type == "cluster") {
    datasets::ClusterParams params;
    SPACETWIST_ASSIGN_OR_RETURN(int64_t clusters,
                                flags.GetInt("clusters", 300));
    SPACETWIST_ASSIGN_OR_RETURN(double sigma,
                                flags.GetDouble("sigma", 100.0));
    SPACETWIST_ASSIGN_OR_RETURN(double background,
                                flags.GetDouble("background", 0.05));
    params.num_clusters = static_cast<size_t>(clusters);
    params.sigma = sigma;
    params.background_fraction = background;
    ds = datasets::GenerateClustered(static_cast<size_t>(n), params,
                                     static_cast<uint64_t>(seed));
  } else {
    return Status::InvalidArgument("--type must be ui|sc|tg|cluster");
  }
  SPACETWIST_RETURN_NOT_OK(datasets::SaveDataset(ds, out));
  std::printf("wrote %s: %zu points (%s)\n", out.c_str(), ds.size(),
              ds.name.c_str());
  return Status::OK();
}

Status RunImport(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty()) {
    return Status::InvalidArgument("--in and --out are required");
  }
  SPACETWIST_ASSIGN_OR_RETURN(
      datasets::Dataset ds,
      datasets::LoadTextDataset(in, flags.GetString("name", "imported")));
  SPACETWIST_RETURN_NOT_OK(datasets::SaveDataset(ds, out));
  std::printf("imported %zu points from %s -> %s (normalized to the "
              "10 km square)\n",
              ds.size(), in.c_str(), out.c_str());
  return Status::OK();
}

Status RunIndex(const Flags& flags) {
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Status::InvalidArgument("--out is required");
  storage::Pager pager;
  SPACETWIST_ASSIGN_OR_RETURN(
      std::unique_ptr<rtree::RTree> tree,
      rtree::BulkLoad(&pager, rtree::BulkLoadOptions(), ds.points));
  SPACETWIST_RETURN_NOT_OK(rtree::SaveRTree(*tree, &pager, out));
  std::printf("indexed %zu points into %s (%zu pages, height %d)\n",
              ds.size(), out.c_str(), pager.page_count(), tree->height());
  return Status::OK();
}

Status RunInfo(const Flags& flags) {
  if (flags.Has("index")) {
    SPACETWIST_ASSIGN_OR_RETURN(
        rtree::LoadedRTree loaded,
        rtree::LoadRTree(flags.GetString("index", "")));
    SPACETWIST_ASSIGN_OR_RETURN(rtree::TreeStats stats,
                                rtree::ComputeTreeStats(loaded.tree.get()));
    std::printf("%s", stats.ToString().c_str());
    return Status::OK();
  }
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  geom::Rect box = geom::Rect::Empty();
  for (const rtree::DataPoint& p : ds.points) box.Expand(p.point);
  std::printf("dataset %s: %zu points, bbox (%.1f, %.1f)-(%.1f, %.1f)\n",
              ds.name.c_str(), ds.size(), box.min.x, box.min.y, box.max.x,
              box.max.y);
  return Status::OK();
}

struct QueryFlagValues {
  geom::Point q;
  core::QueryParams params;
  uint64_t seed;
};

Result<QueryFlagValues> ParseQueryFlags(const Flags& flags) {
  QueryFlagValues out;
  SPACETWIST_ASSIGN_OR_RETURN(out.q.x, flags.GetDouble("x", 5000.0));
  SPACETWIST_ASSIGN_OR_RETURN(out.q.y, flags.GetDouble("y", 5000.0));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t k, flags.GetInt("k", 1));
  SPACETWIST_ASSIGN_OR_RETURN(out.params.epsilon,
                              flags.GetDouble("epsilon", 200.0));
  SPACETWIST_ASSIGN_OR_RETURN(out.params.anchor_distance,
                              flags.GetDouble("anchor-dist", 200.0));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 7));
  if (k < 1) return Status::InvalidArgument("--k must be >= 1");
  out.params.k = static_cast<size_t>(k);
  out.seed = static_cast<uint64_t>(seed);
  return out;
}

Status RunQuery(const Flags& flags) {
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  SPACETWIST_ASSIGN_OR_RETURN(QueryFlagValues qf, ParseQueryFlags(flags));
  SPACETWIST_ASSIGN_OR_RETURN(std::unique_ptr<server::LbsServer> server,
                              server::LbsServer::Build(ds));
  core::SpaceTwistClient client(server.get());
  Rng rng(qf.seed);
  SPACETWIST_ASSIGN_OR_RETURN(core::QueryOutcome outcome,
                              client.Query(qf.q, qf.params, &rng));
  std::printf("anchor (%.1f, %.1f), %llu packets, %zu POIs streamed\n",
              outcome.anchor.x, outcome.anchor.y,
              static_cast<unsigned long long>(outcome.packets),
              outcome.retrieved.size());
  for (const rtree::Neighbor& n : outcome.neighbors) {
    std::printf("poi %u  (%.1f, %.1f)  %.1f m\n", n.point.id, n.point.point.x,
                n.point.point.y, n.distance);
  }
  return Status::OK();
}

Status RunPrivacy(const Flags& flags) {
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  SPACETWIST_ASSIGN_OR_RETURN(QueryFlagValues qf, ParseQueryFlags(flags));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t samples,
                              flags.GetInt("samples", 50000));
  SPACETWIST_ASSIGN_OR_RETURN(std::unique_ptr<server::LbsServer> server,
                              server::LbsServer::Build(ds));
  core::SpaceTwistClient client(server.get());
  Rng rng(qf.seed);
  SPACETWIST_ASSIGN_OR_RETURN(core::QueryOutcome outcome,
                              client.Query(qf.q, qf.params, &rng));
  const privacy::Observation obs =
      privacy::MakeObservation(outcome, server->domain());
  const privacy::PrivacyEstimate estimate = privacy::EstimatePrivacy(
      obs, qf.q, static_cast<size_t>(samples), &rng);
  std::printf("packets=%llu retrieved=%zu\n",
              static_cast<unsigned long long>(outcome.packets),
              outcome.retrieved.size());
  std::printf("Monte-Carlo: area %.0f m^2, Gamma %.1f m "
              "(anchor distance %.1f m)\n",
              estimate.area, estimate.privacy_value,
              geom::Distance(qf.q, outcome.anchor));
  if (qf.params.k == 1) {
    auto exact = privacy::ExactPrivacyRegion::Build(obs);
    if (exact.ok()) {
      std::printf("closed form: area %.0f m^2, Gamma %.1f m (%zu pieces)\n",
                  exact->Area(4), exact->PrivacyValue(qf.q, 4),
                  exact->pieces().size());
    }
  }
  return Status::OK();
}

Status RunSweep(const Flags& flags) {
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  const std::string param = flags.GetString("param", "epsilon");
  SPACETWIST_ASSIGN_OR_RETURN(
      std::vector<double> values,
      flags.GetDoubleList("values", {0, 50, 100, 200, 500, 1000}));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t query_count,
                              flags.GetInt("queries", 50));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 7));

  SPACETWIST_ASSIGN_OR_RETURN(std::unique_ptr<server::LbsServer> server,
                              server::LbsServer::Build(ds));
  const auto queries = eval::GenerateQueryPoints(
      static_cast<size_t>(query_count), ds.domain,
      static_cast<uint64_t>(seed));

  eval::Table table({param, "packets", "error(m)", "privacy(m)"});
  for (const double value : values) {
    eval::GstRunOptions options;
    options.seed = static_cast<uint64_t>(seed);
    if (param == "epsilon") {
      options.params.epsilon = value;
    } else if (param == "anchor") {
      options.params.anchor_distance = value;
    } else if (param == "k") {
      if (value < 1) return Status::InvalidArgument("k values must be >= 1");
      options.params.k = static_cast<size_t>(value);
    } else {
      return Status::InvalidArgument("--param must be epsilon|anchor|k");
    }
    SPACETWIST_ASSIGN_OR_RETURN(eval::GstAggregate agg,
                                eval::RunGst(server.get(), queries, options));
    table.AddRow({FormatDouble(value, 0), FormatDouble(agg.mean_packets, 2),
                  FormatDouble(agg.mean_error, 1),
                  FormatDouble(agg.mean_privacy, 1)});
  }
  table.Print(std::cout);
  return Status::OK();
}

/// Numeric member of a JSON object, 0 when absent or not a number — the
/// trade-off writer always emits every field, so 0 only shows up for
/// documents from older schema revisions.
double NumberField(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_number()) ? value->number() : 0.0;
}

std::string StringField(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_string()) ? value->string()
                                                  : std::string();
}

/// Prints the top-`top` trade-off records ranked by `key` (descending,
/// stable — document order breaks ties, so reports are deterministic).
void PrintTopQueries(const std::vector<const JsonValue*>& records,
                     std::string_view key, size_t top, std::string_view title) {
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return NumberField(*records[a], key) > NumberField(*records[b], key);
  });
  if (order.size() > top) order.resize(top);
  std::printf("%.*s\n", static_cast<int>(title.size()), title.data());
  eval::Table table({"trace_id", "client", "query", "latency(ms)", "packets",
                     "down(B)", "error(m)", "retries"});
  for (const size_t i : order) {
    const JsonValue& rec = *records[i];
    table.AddRow(
        {StringField(rec, "trace_id"),
         FormatDouble(NumberField(rec, "client"), 0),
         FormatDouble(NumberField(rec, "query"), 0),
         FormatDouble(NumberField(rec, "latency_ns") / 1e6, 3),
         FormatDouble(NumberField(rec, "packets"), 0),
         FormatDouble(NumberField(rec, "downlink_bytes"), 0),
         FormatDouble(NumberField(rec, "achieved_error"), 1),
         FormatDouble(NumberField(rec, "retries"), 0)});
  }
  table.Print(std::cout);
}

Status RunTraceReport(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) {
    return Status::InvalidArgument("--in <trace.json> is required");
  }
  SPACETWIST_ASSIGN_OR_RETURN(int64_t top, flags.GetInt("top", 5));
  if (top < 1) return Status::InvalidArgument("--top must be >= 1");
  SPACETWIST_ASSIGN_OR_RETURN(std::string text, ReadFile(in));
  SPACETWIST_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
  // Flight-recorder dumps ride in timeseries documents (serve-bench
  // --timeseries, bench_openloop): report the watchdog's trips instead of
  // a span breakdown.
  if (IsTimeSeriesDocument(doc)) {
    std::printf("%s", SummarizeTimeSeriesDocument(doc).c_str());
    return Status::OK();
  }
  if (StringField(doc, "schema") != telemetry::kTraceSchema) {
    return Status::InvalidArgument(StrFormat(
        "%s is not a %.*s or %s document", in.c_str(),
        static_cast<int>(telemetry::kTraceSchema.size()),
        telemetry::kTraceSchema.data(), "spacetwist.timeseries.v1"));
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("document has no traceEvents array");
  }

  // Per-phase latency breakdown: fold every complete (ph:"X") span by name,
  // in first-seen order (the exporter's order, so the report is stable).
  struct PhaseAgg {
    std::string name;
    uint64_t spans = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::vector<PhaseAgg> phases;
  uint64_t instants = 0;
  for (const JsonValue& event : events->array()) {
    const std::string ph = StringField(event, "ph");
    if (ph == "i") ++instants;
    if (ph != "X") continue;
    const std::string name = StringField(event, "name");
    const double dur_us = NumberField(event, "dur");
    PhaseAgg* agg = nullptr;
    for (PhaseAgg& candidate : phases) {
      if (candidate.name == name) {
        agg = &candidate;
        break;
      }
    }
    if (agg == nullptr) {
      phases.push_back(PhaseAgg{name, 0, 0.0, 0.0});
      agg = &phases.back();
    }
    ++agg->spans;
    agg->total_us += dur_us;
    agg->max_us = std::max(agg->max_us, dur_us);
  }
  std::printf("per-phase latency breakdown (%zu phases, %llu instants)\n",
              phases.size(), static_cast<unsigned long long>(instants));
  eval::Table phase_table(
      {"phase", "spans", "total(us)", "mean(us)", "max(us)"});
  for (const PhaseAgg& agg : phases) {
    phase_table.AddRow(
        {agg.name, StrFormat("%llu", static_cast<unsigned long long>(agg.spans)),
         FormatDouble(agg.total_us, 3),
         FormatDouble(agg.spans > 0 ? agg.total_us / agg.spans : 0.0, 3),
         FormatDouble(agg.max_us, 3)});
  }
  phase_table.Print(std::cout);
  // The server-side queueing picture: how long each dispatched request
  // waited between the client issuing it and the server starting work.
  std::printf("\n%s",
              FormatDispatchQueueDelay(SummarizeDispatchQueueDelay(doc))
                  .c_str());

  const JsonValue* tradeoffs = doc.Find("tradeoffs");
  if (tradeoffs == nullptr || !tradeoffs->is_array()) {
    std::printf("\nno trade-off records in this document\n");
    return Status::OK();
  }
  std::vector<const JsonValue*> records;
  records.reserve(tradeoffs->array().size());
  for (const JsonValue& rec : tradeoffs->array()) {
    if (rec.is_object()) records.push_back(&rec);
  }
  double total_latency_ns = 0.0;
  double total_down = 0.0;
  double total_packets = 0.0;
  for (const JsonValue* rec : records) {
    total_latency_ns += NumberField(*rec, "latency_ns");
    total_down += NumberField(*rec, "downlink_bytes");
    total_packets += NumberField(*rec, "packets");
  }
  std::printf("\n%zu trade-off records: mean latency %.3f ms, "
              "mean packets %.2f, mean downlink %.0f B\n\n",
              records.size(),
              records.empty() ? 0.0
                              : total_latency_ns / records.size() / 1e6,
              records.empty() ? 0.0 : total_packets / records.size(),
              records.empty() ? 0.0 : total_down / records.size());
  const size_t n = static_cast<size_t>(top);
  PrintTopQueries(records, "latency_ns", n, "slowest queries");
  std::printf("\n");
  PrintTopQueries(records, "downlink_bytes", n,
                  "most expensive queries (downlink bytes)");
  return Status::OK();
}

// --slo instrument:signal:limit[,...] where signal is pNN (windowed
// percentile of a histogram instrument) or "rate" (counter events/s) and
// limit is in the instrument's unit (ns for *_ns histograms).
Result<std::vector<telemetry::SloObjective>> ParseSloFlag(const Flags& flags) {
  std::vector<telemetry::SloObjective> objectives;
  const std::string specs = flags.GetString("slo", "");
  size_t begin = 0;
  while (begin < specs.size()) {
    size_t end = specs.find(',', begin);
    if (end == std::string::npos) end = specs.size();
    const std::string spec = specs.substr(begin, end - begin);
    begin = end + 1;
    const size_t first = spec.find(':');
    const size_t second =
        first == std::string::npos ? std::string::npos
                                   : spec.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos ||
        first == 0) {
      return Status::InvalidArgument(StrFormat(
          "--slo spec '%s' is not instrument:signal:limit", spec.c_str()));
    }
    telemetry::SloObjective objective;
    objective.instrument = spec.substr(0, first);
    const std::string signal = spec.substr(first + 1, second - first - 1);
    const std::string limit = spec.substr(second + 1);
    char* parse_end = nullptr;
    objective.limit = std::strtod(limit.c_str(), &parse_end);
    if (limit.empty() || parse_end != limit.c_str() + limit.size() ||
        objective.limit < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "--slo spec '%s': limit must be a non-negative number",
          spec.c_str()));
    }
    if (signal == "rate") {
      objective.signal = telemetry::SloSignal::kCounterRate;
    } else if (signal.size() >= 2 && signal[0] == 'p') {
      const double pct = std::strtod(signal.c_str() + 1, &parse_end);
      if (parse_end != signal.c_str() + signal.size() || pct <= 0.0 ||
          pct >= 100.0) {
        return Status::InvalidArgument(StrFormat(
            "--slo spec '%s': signal must be pNN (0 < NN < 100) or rate",
            spec.c_str()));
      }
      objective.signal = telemetry::SloSignal::kHistogramQuantile;
      objective.quantile = pct / 100.0;
    } else {
      return Status::InvalidArgument(StrFormat(
          "--slo spec '%s': signal must be pNN or rate", spec.c_str()));
    }
    objective.name = objective.instrument + ":" + signal;
    objectives.push_back(std::move(objective));
  }
  return objectives;
}

struct TimeSeriesFlagValues {
  std::string out;          ///< empty = windowed telemetry off
  uint64_t interval_ns = 0;
  std::vector<telemetry::SloObjective> objectives;
};

Result<TimeSeriesFlagValues> ParseTimeSeriesFlags(const Flags& flags) {
  TimeSeriesFlagValues out;
  out.out = flags.GetString("timeseries", "");
  SPACETWIST_ASSIGN_OR_RETURN(double interval,
                              flags.GetDouble("timeseries-interval", 1.0));
  if (interval <= 0.0) {
    return Status::InvalidArgument("--timeseries-interval must be > 0 "
                                   "seconds");
  }
  out.interval_ns = static_cast<uint64_t>(interval * 1e9);
  SPACETWIST_ASSIGN_OR_RETURN(out.objectives, ParseSloFlag(flags));
  if (!out.objectives.empty() && out.out.empty()) {
    return Status::InvalidArgument("--slo requires --timeseries <out.json>");
  }
  return out;
}

// serve-bench --open-loop: Poisson arrivals at fixed offered rates instead
// of closed-loop clients. Runs under kModeled pacing with a VirtualClock —
// queries execute for real through the event-driven engine (digests checked
// against the library reference at the lowest rate), latencies come from
// the deterministic queueing model — so repeated invocations print
// identical tables (docs/SERVICE.md §7).
Status RunServeBenchOpenLoop(const Flags& flags, const datasets::Dataset& ds,
                             const QueryFlagValues& qf) {
  SPACETWIST_ASSIGN_OR_RETURN(
      std::vector<double> rates,
      flags.GetDoubleList("arrival-rate", {2000, 4000, 8000, 16000}));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t users, flags.GetInt("users", 64));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t arrivals,
                              flags.GetInt("arrivals", 500));
  SPACETWIST_ASSIGN_OR_RETURN(double zipf, flags.GetDouble("zipf", 1.0));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t workers, flags.GetInt("workers", 4));
  if (users < 1 || arrivals < 1) {
    return Status::InvalidArgument("--users and --arrivals must be >= 1");
  }
  if (workers < 1) return Status::InvalidArgument("--workers must be >= 1");
  if (rates.empty()) {
    return Status::InvalidArgument("--arrival-rate needs at least one rate");
  }
  // Under kModeled the timeline is the modeled arrival schedule, so
  // --timeseries-interval is in *modeled* seconds (a 500-arrival run at
  // 8000 qps spans ~62 modeled ms).
  SPACETWIST_ASSIGN_OR_RETURN(TimeSeriesFlagValues timeseries,
                              ParseTimeSeriesFlags(flags));
  for (size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] <= 0) {
      return Status::InvalidArgument("--arrival-rate values must be > 0");
    }
    if (i > 0 && rates[i] <= rates[i - 1]) {
      return Status::InvalidArgument(
          "--arrival-rate values must be strictly increasing");
    }
  }

  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  SPACETWIST_ASSIGN_OR_RETURN(std::unique_ptr<server::LbsServer> server,
                              server::LbsServer::Build(ds, rtree_options));

  eval::ArrivalOptions arrival;
  arrival.num_users = static_cast<size_t>(users);
  arrival.total_arrivals = static_cast<size_t>(arrivals);
  arrival.zipf_s = zipf;
  arrival.seed = qf.seed;
  const auto schedule_at = [&](double rate_qps) {
    eval::ArrivalOptions at = arrival;
    at.rate_qps = rate_qps;
    return eval::BuildOpenLoopWorkload(server->domain(), qf.params, at);
  };
  eval::LoadOptions base;
  base.params = qf.params;
  base.pacing = eval::Pacing::kModeled;
  base.worker_threads = static_cast<size_t>(workers);
  if (!timeseries.out.empty()) {
    base.timeseries_interval_ns = timeseries.interval_ns;
    base.slo_objectives = timeseries.objectives;
  }

  SPACETWIST_ASSIGN_OR_RETURN(
      std::vector<eval::QueryDigest> reference,
      eval::RunReference(server.get(), schedule_at(rates.front()), qf.params));

  eval::Table table({"offered.qps", "goodput.qps", "completed", "rejected",
                     "p50(ms)", "p99(ms)"});
  telemetry::TimeSeries last_series;
  telemetry::SloReport last_slo;
  for (size_t i = 0; i < rates.size(); ++i) {
    eval::LoadOptions options = base;
    telemetry::VirtualClock clock(0);
    telemetry::MetricRegistry registry;
    options.clock = &clock;
    options.registry = &registry;
    service::ServiceOptions service_options;
    service_options.clock = &clock;
    service_options.registry = &registry;
    service::ServiceEngine engine(server.get(), service_options);
    SPACETWIST_ASSIGN_OR_RETURN(
        eval::LoadReport report,
        eval::RunLoad(&engine, schedule_at(rates[i]), options));
    if (i == 0) {
      if (report.rejected != 0) {
        return Status::Internal(
            "lowest offered rate already sheds load; lower --arrival-rate");
      }
      if (!(report.digests == reference)) {
        return Status::Internal(
            "open-loop results diverge from the library reference");
      }
    }
    table.AddRow({FormatDouble(rates[i], 1),
                  FormatDouble(report.queries_per_second, 1),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        report.completed)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        report.rejected)),
                  FormatDouble(report.p50_latency_ms, 3),
                  FormatDouble(report.p99_latency_ms, 3)});
    // The exported series is the sweep's deepest point — the rate where
    // the knee (if any) is sharpest.
    last_series = std::move(report.timeseries);
    last_slo = std::move(report.slo);
  }
  table.Print(std::cout);
  if (!timeseries.out.empty()) {
    SPACETWIST_RETURN_NOT_OK(WriteFile(
        timeseries.out, telemetry::TimeSeriesToJson(last_series, &last_slo)));
    std::printf("wrote %s (%zu intervals, %zu slo trips, rate %.1f qps)\n",
                timeseries.out.c_str(), last_series.intervals.size(),
                last_slo.trips.size(), rates.back());
  }
  std::printf("open loop: %lld users, %lld arrivals/rate, zipf_s=%.2f, "
              "%lld workers; lowest rate verified byte-identical to the "
              "library reference\n",
              static_cast<long long>(users), static_cast<long long>(arrivals),
              zipf, static_cast<long long>(workers));
  return Status::OK();
}

Status RunServeBench(const Flags& flags) {
  // Each mode reads its own flags; anything else (a typo, or a flag of the
  // other mode such as --shards with --open-loop) is an error, never a
  // silently different run.
  std::vector<std::string> known = {"dataset", "k", "epsilon", "anchor-dist",
                                    "seed", "timeseries",
                                    "timeseries-interval", "slo"};
  const bool open_loop = flags.GetBool("open-loop");
  if (open_loop) {
    known.insert(known.end(), {"open-loop", "arrival-rate", "users",
                               "arrivals", "zipf", "workers"});
  } else {
    known.insert(known.end(),
                 {"clients", "queries", "threads", "trace", "trace-every",
                  "statsz", "statsz-interval", "shards", "backend"});
  }
  SPACETWIST_RETURN_NOT_OK(flags.CheckKnown(known));
  SPACETWIST_ASSIGN_OR_RETURN(datasets::Dataset ds, LoadDatasetFlag(flags));
  if (open_loop) {
    SPACETWIST_ASSIGN_OR_RETURN(QueryFlagValues open_loop_qf,
                                ParseQueryFlags(flags));
    return RunServeBenchOpenLoop(flags, ds, open_loop_qf);
  }
  SPACETWIST_ASSIGN_OR_RETURN(int64_t clients, flags.GetInt("clients", 64));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t queries, flags.GetInt("queries", 4));
  SPACETWIST_ASSIGN_OR_RETURN(std::vector<double> threads,
                              flags.GetDoubleList("threads", {1, 2, 4, 8}));
  SPACETWIST_ASSIGN_OR_RETURN(QueryFlagValues qf, ParseQueryFlags(flags));
  if (clients < 1 || queries < 1) {
    return Status::InvalidArgument("--clients and --queries must be >= 1");
  }
  const std::string trace_out = flags.GetString("trace", "");
  SPACETWIST_ASSIGN_OR_RETURN(int64_t trace_every,
                              flags.GetInt("trace-every", 1));
  if (trace_every < 0) {
    return Status::InvalidArgument("--trace-every must be >= 0");
  }
  SPACETWIST_ASSIGN_OR_RETURN(double statsz_interval,
                              flags.GetDouble("statsz-interval", 0.0));
  if (flags.Has("statsz-interval") && statsz_interval <= 0.0) {
    return Status::InvalidArgument("--statsz-interval must be > 0 seconds");
  }
  SPACETWIST_ASSIGN_OR_RETURN(TimeSeriesFlagValues timeseries,
                              ParseTimeSeriesFlags(flags));
  SPACETWIST_ASSIGN_OR_RETURN(int64_t shards, flags.GetInt("shards", 1));
  if (shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  const std::string backend = flags.GetString("backend", "paged");
  if (backend != "paged" && backend != "memidx") {
    return Status::InvalidArgument("--backend must be paged or memidx");
  }
  const server::ServingIndex serving = backend == "memidx"
                                           ? server::ServingIndex::kMemidx
                                           : server::ServingIndex::kPaged;

  rtree::RTreeOptions rtree_options;
  rtree_options.concurrent_reads = true;
  SPACETWIST_ASSIGN_OR_RETURN(
      std::unique_ptr<server::LbsServer> server,
      server::LbsServer::Build(ds, rtree_options, serving));

  const eval::Schedule schedule = eval::BuildClosedLoopWorkload(
      server->domain(), qf.params, static_cast<size_t>(clients),
      static_cast<size_t>(queries), qf.seed);
  eval::LoadOptions load;
  load.params = qf.params;
  if (!trace_out.empty()) {
    // Distributed traces for every --trace-every'th query, ground truth for
    // the trade-off records' accuracy leg.
    load.trace_every = static_cast<uint64_t>(trace_every);
    load.truth = server.get();
  }
  // --timeseries: RunLoad samples the default registry on the real clock
  // and runs the SLO watchdog over the windows; a tripped objective
  // dumps the flight recorder into its trip record and escalates tracing of
  // the next queries (docs/OBSERVABILITY.md §7).
  if (!timeseries.out.empty()) {
    load.timeseries_interval_ns = timeseries.interval_ns;
    load.slo_objectives = timeseries.objectives;
  }

  SPACETWIST_ASSIGN_OR_RETURN(
      std::vector<eval::QueryDigest> reference,
      eval::RunReference(server.get(), schedule, qf.params));

  // --shards N > 1: serve the load from a Hilbert-sharded fleet behind a
  // ShardRouter instead of one engine. The reference digests (and --trace
  // ground truth) still come from the single server above — the fleet must
  // reproduce them byte-for-byte at every thread count.
  std::unique_ptr<shard::ShardRouter> router;
  if (shards > 1) {
    shard::ShardRouterOptions router_options;
    router_options.num_shards = static_cast<size_t>(shards);
    router_options.serving = serving;
    router_options.front.max_sessions = static_cast<size_t>(clients) * 2;
    SPACETWIST_ASSIGN_OR_RETURN(
        router, shard::ShardRouter::Build(ds, router_options));
  }

  // Periodic /statsz sampling: a poller thread drives a windowed collector
  // on the real clock while the measured runs execute, and every poll that
  // closes a window renders that capture's cumulative snapshot as one page
  // (a burst of missed windows yields one catch-up page). Pages print at
  // the end, before the final cumulative page.
  std::string statsz_pages;
  std::unique_ptr<telemetry::TimeSeriesCollector> statsz_sampler;
  if (flags.Has("statsz-interval")) {
    telemetry::TimeSeriesCollector::Options sampling;
    sampling.interval_ns = static_cast<uint64_t>(statsz_interval * 1e9);
    sampling.capacity = 1;  // pages come from cumulative(), not the windows
    statsz_sampler = std::make_unique<telemetry::TimeSeriesCollector>(
        nullptr, nullptr, sampling);
    if (router != nullptr) {
      // Shard instruments join each page as shard<i>.<name>.
      for (size_t i = 0; i < router->num_shards(); ++i) {
        statsz_sampler->AddSection(StrFormat("shard%zu", i),
                                   router->shard_registry(i));
      }
    }
  }

  std::atomic<bool> stop_poller{false};
  std::thread poller;
  if (statsz_sampler != nullptr) {
    poller = std::thread([&statsz_sampler, &statsz_pages, &stop_poller] {
      telemetry::Clock* clock = telemetry::DefaultClock();
      for (size_t page = 0; !stop_poller.load(std::memory_order_relaxed);) {
        if (statsz_sampler->Poll() > 0) {
          statsz_pages += StrFormat(
              "--- statsz sample %zu at %.3f s ---\n", page++,
              static_cast<double>(clock->NowNs() -
                                  statsz_sampler->start_ns()) /
                  1e9);
          statsz_pages += telemetry::ToStatsz(statsz_sampler->cumulative());
          statsz_pages += "\n";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  eval::Table table({"threads", "qps", "p50(ms)", "p99(ms)", "packets"});
  eval::LoadReport last_report;
  // The measurement loop runs inside a lambda so every early return still
  // joins the poller thread.
  Status run_status = [&]() -> Status {
    for (const double t : threads) {
      if (t < 1) {
        return Status::InvalidArgument("--threads values must be >= 1");
      }
      // Single-server runs get a fresh engine per thread count; a sharded
      // run reuses the router's fronting engine (sessions all close between
      // runs, and the fleet's R-trees are expensive to rebuild).
      std::unique_ptr<service::ServiceEngine> single_engine;
      if (router == nullptr) {
        service::ServiceOptions options;
        options.max_sessions = static_cast<size_t>(clients) * 2;
        single_engine =
            std::make_unique<service::ServiceEngine>(server.get(), options);
      }
      service::ServiceEngine* engine =
          router != nullptr ? router->front() : single_engine.get();
      load.worker_threads = static_cast<size_t>(t);
      SPACETWIST_ASSIGN_OR_RETURN(eval::LoadReport report,
                                  eval::RunLoad(engine, schedule, load));
      SPACETWIST_RETURN_NOT_OK(report.first_failure);
      if (!(report.digests == reference)) {
        return Status::Internal(StrFormat(
            "results at %zu threads diverge from the single-threaded "
            "reference", load.worker_threads));
      }
      table.AddRow({FormatDouble(t, 0),
                    FormatDouble(report.queries_per_second, 1),
                    FormatDouble(report.p50_latency_ms, 3),
                    FormatDouble(report.p99_latency_ms, 3),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          report.packets))});
      // Traces and trade-off records are identical across thread counts
      // (fixed seeds, schedule-order fold); keep the last run's, and its
      // time series.
      last_report = std::move(report);
    }
    return Status::OK();
  }();
  if (poller.joinable()) {
    stop_poller.store(true, std::memory_order_relaxed);
    poller.join();
  }
  SPACETWIST_RETURN_NOT_OK(run_status);
  table.Print(std::cout);
  if (router != nullptr) {
    std::printf("%zu-shard fleet verified byte-identical to the "
                "single-server direct path at every thread count\n",
                router->num_shards());
  } else {
    std::printf("results verified byte-identical to the single-threaded "
                "direct path at every thread count\n");
  }

  if (!timeseries.out.empty()) {
    SPACETWIST_RETURN_NOT_OK(
        WriteFile(timeseries.out,
                  telemetry::TimeSeriesToJson(last_report.timeseries,
                                              &last_report.slo)));
    std::printf("wrote %s (%zu intervals, %zu slo trips, %zu threads)\n",
                timeseries.out.c_str(),
                last_report.timeseries.intervals.size(),
                last_report.slo.trips.size(), load.worker_threads);
  }

  if (!trace_out.empty()) {
    telemetry::JsonWriter writer;
    writer.BeginObject();
    writer.KV("schema", telemetry::kTraceSchema);
    writer.KV("dataset", ds.name);
    writer.KV("clients", static_cast<uint64_t>(clients));
    writer.KV("queries_per_client", static_cast<uint64_t>(queries));
    writer.KV("seed", qf.seed);
    telemetry::WriteTraceEvents(last_report.traces, &writer);
    eval::WriteTradeoffs(last_report.tradeoffs, &writer);
    writer.EndObject();
    SPACETWIST_RETURN_NOT_OK(WriteFile(trace_out, writer.str()));
    std::printf("wrote %s (%zu traces, %zu trade-off records)\n",
                trace_out.c_str(), last_report.traces.size(),
                last_report.tradeoffs.size());
  }

  if (flags.Has("statsz") || statsz_sampler != nullptr) {
    // Every layer registered into the process-default registry during the
    // run; render the cumulative page (engine, wire, storage, granular
    // server, load generator) as human-readable text, preceded by any
    // periodic pages the sampler captured.
    std::string statsz;
    if (statsz_sampler != nullptr) {
      statsz = statsz_pages + "--- statsz final (cumulative) ---\n";
    }
    statsz += telemetry::ToStatsz(
        telemetry::MetricRegistry::Default()->Snapshot());
    if (router != nullptr) {
      // One section per shard registry breaks the fleet down.
      for (size_t i = 0; i < router->num_shards(); ++i) {
        statsz += StrFormat("== shard%zu ==\n", i);
        statsz += telemetry::ToStatsz(router->shard_registry(i)->Snapshot());
      }
    }
    const std::string out = flags.GetString("statsz", "");
    if (out.empty()) {
      std::printf("\n%s", statsz.c_str());
    } else {
      SPACETWIST_RETURN_NOT_OK(WriteFile(out, statsz));
      std::printf("wrote %s\n", out.c_str());
    }
  }
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const std::string& command = flags->command();
  Status status;
  if (command == "gen") {
    status = RunGen(*flags);
  } else if (command == "import") {
    status = RunImport(*flags);
  } else if (command == "index") {
    status = RunIndex(*flags);
  } else if (command == "info") {
    status = RunInfo(*flags);
  } else if (command == "query") {
    status = RunQuery(*flags);
  } else if (command == "privacy") {
    status = RunPrivacy(*flags);
  } else if (command == "sweep") {
    status = RunSweep(*flags);
  } else if (command == "serve-bench") {
    status = RunServeBench(*flags);
  } else if (command == "trace-report") {
    status = RunTraceReport(*flags);
  } else {
    PrintUsage();
    return 1;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace spacetwist::cli

int main(int argc, char** argv) { return spacetwist::cli::Main(argc, argv); }
