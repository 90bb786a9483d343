#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "core/anchor.h"
#include "core/spacetwist_client.h"
#include "datasets/generator.h"
#include "engine/event_engine.h"
#include "net/faulty_transport.h"
#include "privacy/observation.h"
#include "privacy/region.h"
#include "server/lbs_server.h"
#include "service/service_engine.h"
#include "service/wire_client.h"
#include "shard/router.h"
#include "stages.h"
#include "telemetry/registry.h"

namespace perfbench {

namespace {

using st::Result;
using st::Status;
using st::telemetry::HistogramSnapshot;
using st::telemetry::MetricRegistry;
using st::telemetry::RegistrySnapshot;

// Fixed offered rates of tableI_open: about 30% and 70% of the 3.3k qps
// one closed-loop connection sustains through the event engine on the
// 4-vCPU reference host. They never move with the code under test, so two
// commits are compared at the same load. (5k qps, the serve-bench figure,
// sits at the knee once the host's neighbours are busy: its median then
// swings from 0.4 ms to overload between runs.)
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 2300.0;
// The capacity ladder and its latency limit: median latency from the due
// time at most 1 ms, about 3x the uncontended median. The limit sits on
// the median because tail percentiles on the shared 4-vCPU reference host
// move by 2x from run to run with the other tenants' load (one idle-vCPU
// stall of a millisecond or more arrives about every second); the median
// still rises steeply once the connections saturate.
constexpr double kLadder[] = {3000, 4000, 5000, 6000, 6500, 7000,
                              7500, 8000, 8500, 9000, 10000};
constexpr double kCapacityLimitNs = 1e6;
// A rung whose backlog passes this is overloaded and stops early.
constexpr uint64_t kOverloadBacklogNs = 50'000'000;
// A run whose generator wakes this late (p99) is invalid.
constexpr uint64_t kMaxGeneratorLagNs = 2'000'000;
constexpr size_t kEngineWorkers = 2;
constexpr size_t kSetupRepeats = 7;
// Alternating low/high-rate blocks of tableI_open's latency phase.
constexpr size_t kRateBlocks = 12;
// Untimed start of every measured phase (fresh engine and threads).
constexpr double kLeadInSeconds = 0.1;
constexpr uint64_t kPrivacySeed = 0x9A11A5;
constexpr uint64_t kLinkSeed = 0x11AC;
// Spans kept per connection for the trace file.
constexpr size_t kMaxSampledTraces = 400;
constexpr size_t kMaxSpansPerConnection = 12'000;

struct Spec {
  bool shard = false;
  st::server::ServingIndex index = st::server::ServingIndex::kMemidx;
  BackendKind kind = BackendKind::kMemidx;
  size_t points = 500'000;
  size_t k = 1;
  double epsilon = 200.0;
  double anchor_distance = 200.0;
  size_t connections = 1;
  bool open_loop = false;
  bool lossy = false;
  size_t pool = 4096;
  size_t privacy_queries = 64;
  size_t privacy_samples = 2000;
};

Result<Spec> SpecFor(const RunOptions& options) {
  Spec spec;
  if (options.workload == "tableI_open") {
    spec.connections = 3;
    spec.open_loop = true;
  } else if (options.workload == "paged_k16") {
    spec.index = st::server::ServingIndex::kPaged;
    spec.kind = BackendKind::kPaged;
    spec.k = 16;
    spec.anchor_distance = 1000.0;
    spec.pool = 1024;
    spec.privacy_queries = 96;
    spec.privacy_samples = 500;
  } else if (options.workload == "lossy_shard4") {
    spec.shard = true;
    spec.kind = BackendKind::kShard;
    spec.connections = 3;
    spec.lossy = true;
    spec.pool = 3072;
  } else {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  if (options.tiny) {
    // Still larger than the 256-page buffer pool.
    spec.points = 60'000;
    spec.pool = 192;
    spec.privacy_queries = 8;
    spec.privacy_samples = 200;
  }
  return spec;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void SleepNs(uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// ---------------------------------------------------------------------------
// Inputs and the reference answers.

/// One simulated user: location, disclosed anchor, and the answer the
/// direct library path gives for it.
struct PoolQuery {
  st::geom::Point q;
  st::geom::Point anchor;
  uint64_t digest = 0;
  double kth_distance_m = 0.0;  ///< distance to the kth answer
  double error_m = 0.0;         ///< kth_distance_m minus the exact one
};

class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

uint64_t OutcomeDigest(const st::core::QueryOutcome& outcome) {
  Digest d;
  for (const st::rtree::Neighbor& n : outcome.neighbors) {
    d.Add(n.point.id);
    d.Add(n.point.point.x);
    d.Add(n.point.point.y);
    d.Add(n.distance);
  }
  for (const st::rtree::DataPoint& p : outcome.retrieved) {
    d.Add(p.id);
    d.Add(p.point.x);
    d.Add(p.point.y);
  }
  d.Add(outcome.packets);
  d.Add(outcome.tau);
  d.Add(outcome.gamma);
  d.Add(outcome.stream_exhausted);
  return d.value();
}

st::core::QueryParams ParamsFor(const Spec& spec) {
  st::core::QueryParams params;
  params.k = spec.k;
  params.epsilon = spec.epsilon;
  params.anchor_distance = spec.anchor_distance;
  return params;
}

std::vector<PoolQuery> MakePool(const Spec& spec, const st::geom::Rect& domain,
                                uint64_t seed) {
  st::Rng rng(Mix(seed, 0x9001));
  std::vector<PoolQuery> pool(spec.pool);
  for (PoolQuery& pq : pool) {
    pq.q = {rng.Uniform(domain.min.x, domain.max.x),
            rng.Uniform(domain.min.y, domain.max.y)};
    pq.anchor =
        st::core::GenerateAnchor(pq.q, spec.anchor_distance, domain, &rng);
  }
  return pool;
}

/// Reference answers through core::SpaceTwistClient on one LbsServer, plus
/// the accuracy (kth-distance excess over exact kNN) of each. Returns the
/// outcomes of the privacy subsample.
Result<std::vector<st::core::QueryOutcome>> ComputeReference(
    const Spec& spec, st::server::LbsServer* server,
    std::vector<PoolQuery>* pool) {
  st::core::SpaceTwistClient client(server);
  MetricRegistry registry;  // keeps the reference's counters private
  st::core::QueryParams params = ParamsFor(spec);
  params.granular.registry = &registry;
  std::vector<st::core::QueryOutcome> kept;
  for (size_t i = 0; i < pool->size(); ++i) {
    PoolQuery& pq = (*pool)[i];
    SPACETWIST_ASSIGN_OR_RETURN(st::core::QueryOutcome outcome,
                                client.Query(pq.q, pq.anchor, params));
    SPACETWIST_ASSIGN_OR_RETURN(std::vector<st::rtree::Neighbor> exact,
                                server->ExactKnn(pq.q, spec.k));
    pq.digest = OutcomeDigest(outcome);
    pq.kth_distance_m = outcome.gamma;
    pq.error_m = exact.empty() ? 0.0 : outcome.gamma - exact.back().distance;
    if (i < spec.privacy_queries) kept.push_back(std::move(outcome));
  }
  return kept;
}

// ---------------------------------------------------------------------------
// The serving stack.

struct Stack {
  std::unique_ptr<MetricRegistry> router_registry;
  std::unique_ptr<st::server::LbsServer> server;
  std::unique_ptr<st::shard::ShardRouter> router;

  st::server::InnBackend* backend() {
    return router != nullptr
               ? static_cast<st::server::InnBackend*>(router.get())
               : server.get();
  }
  /// Sum of a counter over the shard engines' registries.
  uint64_t ShardCounter(const char* name) const {
    uint64_t total = 0;
    if (router == nullptr) return 0;
    for (size_t i = 0; i < router->num_shards(); ++i) {
      total += router->shard_registry(i)->GetCounter(name)->value();
    }
    return total;
  }
  st::storage::IoStats Io() const {
    st::storage::IoStats io;
    if (server != nullptr) io = server->io_stats();
    if (router != nullptr) {
      for (size_t i = 0; i < router->num_shards(); ++i) {
        const st::storage::IoStats s = router->shard_server(i)->io_stats();
        io.logical_reads += s.logical_reads;
        io.physical_reads += s.physical_reads;
      }
    }
    return io;
  }
};

Result<Stack> BuildStack(const Spec& spec, const st::datasets::Dataset& ds) {
  Stack stack;
  st::rtree::RTreeOptions tree;
  tree.concurrent_reads = true;
  if (spec.shard) {
    stack.router_registry = std::make_unique<MetricRegistry>();
    st::shard::ShardRouterOptions options;
    options.num_shards = 4;
    options.rtree = tree;
    options.serving = spec.index;
    options.registry = stack.router_registry.get();
    options.front.registry = stack.router_registry.get();
    SPACETWIST_ASSIGN_OR_RETURN(stack.router,
                                st::shard::ShardRouter::Build(ds, options));
  } else {
    SPACETWIST_ASSIGN_OR_RETURN(
        stack.server, st::server::LbsServer::Build(ds, tree, spec.index));
  }
  return stack;
}

/// One serving front per phase: private registry, ServiceEngine, event
/// transport and EventEngine (members destroyed bottom-up).
struct Front {
  std::unique_ptr<MetricRegistry> registry;
  std::unique_ptr<TimedBackend> timed_backend;
  std::unique_ptr<st::service::ServiceEngine> service;
  std::unique_ptr<st::engine::InProcessEventTransport> transport;
  TimedEventTransport* timed_transport = nullptr;
  std::unique_ptr<st::engine::EventEngine> engine;
};

std::unique_ptr<Front> MakeFront(const Spec& spec, Stack* stack, bool traced) {
  auto front = std::make_unique<Front>();
  front->registry = std::make_unique<MetricRegistry>();
  st::server::InnBackend* backend = stack->backend();
  if (traced) {
    front->timed_backend = std::make_unique<TimedBackend>(backend);
    backend = front->timed_backend.get();
  }
  st::service::ServiceOptions service;
  service.max_sessions = 4096;
  // Sessions a lossy link abandons are reclaimed instead of piling up.
  service.idle_ttl_ns = spec.lossy ? 5'000'000'000ull : 0;
  service.registry = front->registry.get();
  front->service =
      std::make_unique<st::service::ServiceEngine>(backend, service);
  if (traced) {
    auto timed = std::make_unique<TimedEventTransport>(spec.connections);
    front->timed_transport = timed.get();
    front->transport = std::move(timed);
  } else {
    front->transport = std::make_unique<st::engine::InProcessEventTransport>();
  }
  st::engine::EventEngineOptions engine;
  engine.worker_threads = kEngineWorkers;
  engine.registry = front->registry.get();
  front->engine = std::make_unique<st::engine::EventEngine>(
      front->service.get(), front->transport.get(), engine);
  return front;
}

st::net::FaultConfig LossyLink(MetricRegistry* registry) {
  st::net::FaultRates rates;
  rates.drop = 0.02;
  rates.duplicate = 0.02;
  rates.reorder = 0.02;
  rates.corrupt = 0.02;
  rates.disconnect = 0.005;
  st::net::FaultConfig config;
  config.uplink = rates;
  config.downlink = rates;
  config.registry = registry;
  return config;
}

// ---------------------------------------------------------------------------
// Connections and phases.

/// Stage sums over a phase's completed queries (traced phases only).
struct StageSums {
  uint64_t queries = 0;
  uint64_t latency_ns = 0;
  uint64_t wait_ns = 0;  ///< due time -> Open (backlog and generator lag)
  uint64_t loop_self_ns = 0;
  uint64_t client_self_ns = 0;
  uint64_t link_self_ns = 0;
  uint64_t handoff_in_ns = 0;
  uint64_t handoff_out_ns = 0;
  uint64_t server_ns = 0;
  uint64_t sleep_ns = 0;
  uint64_t frames = 0;

  void operator+=(const StageSums& o) {
    queries += o.queries;
    latency_ns += o.latency_ns;
    wait_ns += o.wait_ns;
    loop_self_ns += o.loop_self_ns;
    client_self_ns += o.client_self_ns;
    link_self_ns += o.link_self_ns;
    handoff_in_ns += o.handoff_in_ns;
    handoff_out_ns += o.handoff_out_ns;
    server_ns += o.server_ns;
    sleep_ns += o.sleep_ns;
    frames += o.frames;
  }
};

struct PhasePlan {
  double seconds = 1.0;
  double rate = 0.0;  ///< arrivals/s; 0 = closed loop
  bool traced = false;
  uint64_t fixed_queries = 0;  ///< closed loop: per connection, 0 = timed
  /// Seeds the arrival schedule (open loop), the fault schedule of each
  /// connection's link, and the sessions' retry jitter.
  uint64_t link_seed = 0;
  bool stop_on_backlog = false;
  /// Connections (one load thread each); 0 = the workload's.
  size_t connections = 0;
  /// Queries started in this first part of the phase run and are checked
  /// but not timed: the fresh engine and threads settle first.
  double lead_in_s = 0.0;
};

struct PhaseOut {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t packets = 0;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  bool overloaded = false;
  std::string mismatch;
  /// (completion time, latency) of every completed query.
  std::vector<std::pair<uint64_t, uint64_t>> samples;
  std::vector<uint64_t> lags;
  uint64_t backlog_ns = 0;
  StageSums stages;
  std::vector<st::telemetry::TraceRecord> traces;
  size_t spans = 0;
  RegistrySnapshot snapshot;
  TimedBackend::Totals backend;
  TimedEventTransport::Totals transport;
};

struct Conn {
  size_t index = 0;
  StageLedger ledger;
  std::optional<st::engine::EventEngine::Port> port;
  std::unique_ptr<TimedPort> timed_port;
  std::unique_ptr<st::net::FrameTransport> link;
  std::unique_ptr<TimedFrameTransport> timed_link;
  st::net::FrameTransport* top = nullptr;
  st::service::RetryConfig retry;
  uint64_t retry_seed = 0;
  uint64_t seq = 0;
  PhaseOut out;  ///< this connection's share of the phase
};

class Runner {
 public:
  Runner(const Spec& spec, Stack* stack, std::vector<PoolQuery>* pool,
         uint64_t seed)
      : spec_(spec),
        stack_(stack),
        pool_(pool),
        seed_(seed),
        params_(ParamsFor(spec)),
        completed_(new std::atomic<bool>[pool->size()]) {
    for (size_t i = 0; i < pool->size(); ++i) completed_[i] = false;
  }

  PhaseOut Run(PhasePlan plan);

  bool completed(size_t i) const { return completed_[i].load(); }

 private:
  void RunQuery(Conn* conn, size_t pool_index, uint64_t due_ns, bool traced,
                bool sample);
  void OpenLoop(Conn* conn, const PhasePlan& plan,
                const std::vector<uint64_t>& due, uint64_t t0);
  void ClosedLoop(Conn* conn, const PhasePlan& plan, uint64_t t0);

  const Spec& spec_;
  Stack* stack_;
  std::vector<PoolQuery>* pool_;
  uint64_t seed_;
  st::core::QueryParams params_;
  std::unique_ptr<std::atomic<bool>[]> completed_;
  std::atomic<size_t> next_arrival_{0};
  std::atomic<bool> abort_{false};
  uint64_t timed_from_ns_ = 0;
};

void Runner::RunQuery(Conn* conn, size_t pool_index, uint64_t due_ns,
                      bool traced, bool sample) {
  const PoolQuery& pq = (*pool_)[pool_index];
  StageLedger& ledger = conn->ledger;
  PhaseOut& out = conn->out;
  ++out.attempted;
  sample = sample && out.traces.size() < kMaxSampledTraces &&
           out.spans < kMaxSpansPerConnection;
  if (traced) ledger.Reset(sample);
  conn->retry.seed = Mix(conn->retry_seed, conn->seq++);

  const uint64_t start = NowNs();
  ledger.depth = 1;
  Result<std::unique_ptr<st::service::WireSession>> session =
      st::service::WireSession::Open(conn->top, pq.anchor, params_.epsilon,
                                     params_.k, conn->retry);
  const uint64_t opened = NowNs();
  ledger.depth = 0;
  ledger.Span("service.client_self_us", start, opened, 0);
  if (!session.ok()) {
    ledger.active = false;
    ++out.failed;
    return;
  }
  st::service::WireSession* wire = session->get();
  const size_t beta = params_.packet.Capacity();
  const uint64_t loop_start = NowNs();
  TimedPacketTransport timed(wire, &ledger);
  ledger.depth = 1;
  Result<st::core::QueryOutcome> outcome = st::core::RunTerminationLoop(
      pq.q, pq.anchor, params_.k, beta,
      traced ? static_cast<st::net::PacketTransport*>(&timed) : wire);
  ledger.depth = 0;
  const uint64_t end = NowNs();
  ledger.Span("core.loop_self_us", loop_start, end, 0);
  const uint64_t open_ns = opened - start;
  const uint64_t loop_ns = end - loop_start;
  ledger.active = false;
  // Close is outside the latency window; on a lossy link it is
  // best-effort, as in service::RemoteQuery.
  const Status closed = wire->Close();
  if (!outcome.ok() || (!spec_.lossy && !closed.ok())) {
    ++out.failed;
    return;
  }
  if (OutcomeDigest(*outcome) != pq.digest) {
    out.mismatch = st::StrFormat(
        "query %zu (q=%.3f,%.3f anchor=%.3f,%.3f) differs from the "
        "SpaceTwistClient reference",
        pool_index, pq.q.x, pq.q.y, pq.anchor.x, pq.anchor.y);
    abort_ = true;
    return;
  }
  completed_[pool_index].store(true, std::memory_order_relaxed);
  ++out.completed;
  out.packets += outcome->packets;
  const uint64_t origin = due_ns != 0 ? due_ns : start;
  if (origin < timed_from_ns_) return;  // lead-in: checked, not timed
  out.samples.emplace_back(end, end - origin);
  if (!traced) return;

  StageSums s;
  s.queries = 1;
  s.latency_ns = end - origin;
  s.wait_ns = start - origin;
  s.loop_self_ns = loop_ns - ledger.next_packet_ns;
  const uint64_t client_calls = open_ns + ledger.next_packet_ns;
  const uint64_t below = ledger.round_trip_ns + ledger.sleep_ns;
  s.client_self_ns = client_calls > below ? client_calls - below : 0;
  s.link_self_ns = ledger.round_trip_ns > ledger.port_ns
                       ? ledger.round_trip_ns - ledger.port_ns
                       : 0;
  s.handoff_in_ns = ledger.handoff_in_ns;
  s.handoff_out_ns = ledger.handoff_out_ns;
  s.server_ns = ledger.server_ns;
  s.sleep_ns = ledger.sleep_ns;
  s.frames = ledger.frames;
  out.stages += s;
  if (sample) {
    st::telemetry::TraceRecord record;
    record.trace_id = Mix(seed_, (conn->index << 40) | conn->seq);
    if (due_ns != 0 && start > due_ns) {
      ledger.Span("bench.backlog_wait_us", due_ns, start, 0);
    }
    record.spans = std::move(ledger.spans);
    std::stable_sort(record.spans.begin(), record.spans.end(),
                     [](const auto& a, const auto& b) {
                       return a.start_ns < b.start_ns;
                     });
    out.spans += record.spans.size();
    out.traces.push_back(std::move(record));
  }
}

void Runner::OpenLoop(Conn* conn, const PhasePlan& plan,
                      const std::vector<uint64_t>& due, uint64_t t0) {
  const size_t sample_every = std::max<size_t>(1, due.size() / 200);
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) return;
    const size_t i = next_arrival_.fetch_add(1);
    if (i >= due.size()) return;
    const uint64_t due_ns = t0 + due[i];
    const uint64_t claim = NowNs();
    if (claim < due_ns) {
      SleepNs(due_ns - claim);
      const uint64_t woke = NowNs();
      if (due_ns >= timed_from_ns_) {
        conn->out.lags.push_back(woke > due_ns ? woke - due_ns : 0);
      }
    } else {
      const uint64_t backlog = claim - due_ns;
      conn->out.backlog_ns += backlog;
      if (plan.stop_on_backlog && backlog > kOverloadBacklogNs) {
        conn->out.overloaded = true;
        abort_ = true;
        return;
      }
    }
    RunQuery(conn, i % pool_->size(), due_ns, plan.traced,
             i % sample_every == 0);
  }
}

void Runner::ClosedLoop(Conn* conn, const PhasePlan& plan, uint64_t t0) {
  const uint64_t deadline =
      t0 + static_cast<uint64_t>((plan.lead_in_s + plan.seconds) * 1e9);
  const size_t n = plan.connections;
  for (uint64_t j = 0;; ++j) {
    if (abort_.load(std::memory_order_relaxed)) return;
    if (plan.fixed_queries != 0 ? j >= plan.fixed_queries
                                : NowNs() >= deadline) {
      return;
    }
    // Static partition: connection c runs pool entries c, c+n, c+2n, ...
    const size_t index = (conn->index + j * n) % pool_->size();
    RunQuery(conn, index, 0, plan.traced, j % 8 == 0);
  }
}

PhaseOut Runner::Run(PhasePlan plan) {
  if (plan.connections == 0) plan.connections = spec_.connections;
  std::unique_ptr<Front> front = MakeFront(spec_, stack_, plan.traced);
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < plan.connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->index = c;
    const uint64_t conn_id = front->transport->Connect();
    conn->port.emplace(front->transport.get(), conn_id);
    st::net::FrameHandler* handler = &*conn->port;
    if (plan.traced) {
      conn->timed_port = std::make_unique<TimedPort>(
          *conn->port, conn_id, front->timed_transport, spec_.kind,
          &conn->ledger);
      handler = conn->timed_port.get();
    }
    if (spec_.lossy) {
      conn->link = std::make_unique<st::net::FaultyTransport>(
          handler, LossyLink(front->registry.get()),
          Mix(plan.link_seed, c));
    } else {
      conn->link = std::make_unique<st::net::DirectTransport>(handler);
    }
    conn->top = conn->link.get();
    if (plan.traced) {
      conn->timed_link =
          std::make_unique<TimedFrameTransport>(conn->top, &conn->ledger);
      conn->top = conn->timed_link.get();
    }
    conn->retry.registry = front->registry.get();
    conn->retry_seed = Mix(plan.link_seed, 0x5EED00 + c);
    StageLedger* ledger = &conn->ledger;
    conn->retry.sleep = [ledger](uint64_t ns) {
      const uint64_t start = NowNs();
      SleepNs(ns);
      if (ledger->active) ledger->sleep_ns += NowNs() - start;
    };
    conns.push_back(std::move(conn));
  }

  std::vector<uint64_t> due;
  if (plan.rate > 0.0) {
    st::Rng rng(Mix(plan.link_seed, 0xA441));
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / plan.rate;
      if (t >= plan.lead_in_s + plan.seconds) break;
      due.push_back(static_cast<uint64_t>(t * 1e9));
    }
  }
  next_arrival_ = 0;
  abort_ = false;
  const uint64_t t0 = NowNs() + 2'000'000;
  timed_from_ns_ = t0 + static_cast<uint64_t>(plan.lead_in_s * 1e9);
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    Conn* c = conn.get();
    threads.emplace_back([this, c, &plan, &due, t0] {
      // Wake from sleeps within microseconds instead of the default 50 us
      // timer slack, so the generator keeps its schedule.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      if (plan.rate > 0.0) {
        OpenLoop(c, plan, due, t0);
      } else {
        ClosedLoop(c, plan, t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t t1 = NowNs();

  PhaseOut out;
  out.start_ns = timed_from_ns_;
  out.wall_ns = t1 > timed_from_ns_ ? t1 - timed_from_ns_ : 1;
  for (auto& conn : conns) {
    PhaseOut& o = conn->out;
    out.attempted += o.attempted;
    out.failed += o.failed;
    out.completed += o.completed;
    out.packets += o.packets;
    out.overloaded = out.overloaded || o.overloaded;
    if (out.mismatch.empty()) out.mismatch = o.mismatch;
    out.samples.insert(out.samples.end(), o.samples.begin(), o.samples.end());
    out.lags.insert(out.lags.end(), o.lags.begin(), o.lags.end());
    out.backlog_ns += o.backlog_ns;
    out.stages += o.stages;
    for (auto& t : o.traces) out.traces.push_back(std::move(t));
  }
  // Stop the engine (joins its loop and workers) before reading totals.
  conns.clear();
  front->engine.reset();
  out.snapshot = front->registry->Snapshot();
  if (front->timed_backend != nullptr) {
    out.backend = front->timed_backend->totals();
  }
  if (front->timed_transport != nullptr) {
    out.transport = front->timed_transport->totals();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Summaries.

uint64_t Counter(const RegistrySnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

HistogramSnapshot Histogram(const RegistrySnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h;
  }
  return {};
}

uint64_t CounterSum(const std::vector<const PhaseOut*>& phases,
                    const std::string& name) {
  uint64_t total = 0;
  for (const PhaseOut* p : phases) total += Counter(p->snapshot, name);
  return total;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Nearest-rank quantile of an unsorted sample (copied).
double Quantile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Completions per second and median latency of each of nine equal-time
/// windows of a closed-loop phase.
struct TimeWindows {
  std::vector<double> qps;
  std::vector<double> p50;
};

TimeWindows SplitByTime(const PhaseOut& phase) {
  constexpr size_t kWindows = 9;
  std::vector<std::vector<uint64_t>> latencies(kWindows);
  const double width = static_cast<double>(phase.wall_ns) / kWindows;
  for (const auto& [end, latency] : phase.samples) {
    const double at = static_cast<double>(end - phase.start_ns) / width;
    latencies[std::min<size_t>(kWindows - 1, static_cast<size_t>(at))]
        .push_back(latency);
  }
  TimeWindows windows;
  for (const std::vector<uint64_t>& w : latencies) {
    windows.qps.push_back(static_cast<double>(w.size()) / (width / 1e9));
    if (!w.empty()) windows.p50.push_back(Quantile(w, 0.50));
  }
  return windows;
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Latency percentiles as the median over equal-count windows of the
/// phase (in completion order), each holding at least 1000 samples so its
/// p99 has ten samples beyond it. One noisy second moves one window.
Percentiles WindowedPercentiles(
    std::vector<std::pair<uint64_t, uint64_t>> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t windows = std::clamp<size_t>(samples.size() / 1000, 1, 9);
  std::vector<double> p50s, p90s, p99s;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = samples.size() * w / windows;
    const size_t hi = samples.size() * (w + 1) / windows;
    std::vector<uint64_t> lat;
    for (size_t i = lo; i < hi; ++i) lat.push_back(samples[i].second);
    p50s.push_back(Quantile(lat, 0.50));
    p90s.push_back(Quantile(lat, 0.90));
    p99s.push_back(Quantile(lat, 0.99));
  }
  return {Median(p50s), Median(p90s), Median(p99s)};
}

std::string JsonList(const std::vector<double>& values, double scale) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += st::StrFormat("%s%.4f", i == 0 ? "" : ",", values[i] * scale);
  }
  return out + "]";
}

double ProcessCpuSeconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

const std::vector<MetricSpec>& MetricCatalog() {
  static const std::vector<MetricSpec> catalog = {
      // End to end.
      {"latency_p50_ms", "ms", "lower", true},
      {"throughput_qps", "1/s", "higher", true},
      {"success_share", "share", "higher", true},
      {"cpu_ms_per_query", "ms", "lower", true},
      {"packets_per_query", "packets", "lower", true},
      {"wire_bytes_per_query", "bytes", "lower", true},
      {"round_trips_per_query", "count", "lower", true},
      {"error_m", "m", "lower", true},
      {"privacy_gamma_m", "m", "higher", true},
      {"setup_s", "s", "lower", true},
      {"peak_rss_mb", "MB", "lower", true},
      // Per layer (traced run).
      {"core.loop_self_us", "us", "lower", false},
      {"service.client_self_us", "us", "lower", false},
      {"net.link_self_us", "us", "lower", false},
      {"engine.handoff_in_us", "us", "lower", false},
      {"engine.handoff_out_us", "us", "lower", false},
      {"engine.queue_delay_us.p50", "us", "lower", false},
      {"engine.queue_delay_us.p99", "us", "lower", false},
      {"engine.loop_idle_share", "share", "higher", false},
      {"engine.poll_batch_mean", "count", "higher", false},
      {"service.dispatch_self_us", "us", "lower", false},
      {"memidx.open_us", "us", "lower", false},
      {"memidx.scan_us_per_pull", "us", "lower", false},
      {"server.open_us", "us", "lower", false},
      {"server.scan_us_per_pull", "us", "lower", false},
      {"server.node_reads_per_query", "count", "lower", false},
      {"server.heap_pops_per_query", "count", "lower", false},
      {"server.cells_visited_per_query", "count", "lower", false},
      {"server.points_per_heap_pop", "ratio", "higher", false},
      {"storage.miss_ratio", "share", "lower", false},
      {"storage.misses_per_query", "count", "lower", false},
      {"shard.open_us", "us", "lower", false},
      {"shard.merge_us_per_pull", "us", "lower", false},
      {"shard.fanout_mean", "count", "lower", false},
      {"shard.pulls_per_query", "count", "lower", false},
      {"shard.merge_pops_per_query", "count", "lower", false},
      {"shard.points_pulled_per_reported", "ratio", "lower", false},
      {"service.retries_per_query", "count", "lower", false},
      {"service.stale_per_query", "count", "lower", false},
      {"service.reopens_per_query", "count", "lower", false},
      {"service.backoff_ms_per_query", "ms", "lower", false},
      {"service.replayed_per_query", "count", "lower", false},
      {"net.faults_per_query", "count", "lower", false},
      {"bench.traced_latency_us", "us", "lower", false},
      {"bench.backlog_wait_us", "us", "lower", false},
      {"bench.generator_lag_us.p99", "us", "lower", false},
      {"bench.stage_residual_share", "share", "lower", false},
      {"bench.trace_overhead_share", "share", "lower", false},
  };
  return catalog;
}

namespace {

class Workload {
 public:
  Workload(const RunOptions& options, Spec spec)
      : options_(options), spec_(std::move(spec)) {}

  Result<RunResult> Run();

 private:
  void Put(const char* name, double value) {
    result_.metrics.push_back({name, value});
  }
  void Note(const std::string& key, const std::string& json) {
    result_.provenance.emplace_back(key, json);
  }
  /// Runs one phase, folding its attempts into the result; a wrong answer
  /// aborts the whole run.
  Result<PhaseOut> Phase(Runner* runner, const PhasePlan& plan);
  /// Closed loops replay one fixed fault schedule per connection whatever
  /// the seed: the lossy link is part of the workload's definition, and
  /// --seed varies the dataset and the users. Open loops draw their arrival
  /// schedules from the seed.
  uint64_t LinkSeed() const {
    return spec_.open_loop ? options_.seed : kLinkSeed;
  }
  /// Fixed-count runs time every query.
  double LeadIn() const {
    return options_.fixed_queries != 0 ? 0.0 : kLeadInSeconds;
  }
  double Secs(double share) const {
    return std::max(0.05, options_.seconds * share);
  }
  Status EndToEnd(Runner* runner);
  Status PerLayer(Runner* runner);
  void Accuracy(Runner* runner);

  const RunOptions& options_;
  Spec spec_;
  Stack stack_;
  std::unique_ptr<st::server::LbsServer> reference_server_;
  std::vector<PoolQuery> pool_;
  std::vector<st::core::QueryOutcome> privacy_outcomes_;
  st::geom::Rect domain_;
  RunResult result_;
};

Result<PhaseOut> Workload::Phase(Runner* runner, const PhasePlan& plan) {
  PhaseOut out = runner->Run(plan);
  if (!out.mismatch.empty()) {
    return Status::Internal("answer mismatch: " + out.mismatch);
  }
  result_.attempted += out.attempted;
  result_.failed += out.failed;
  return out;
}

Result<RunResult> Workload::Run() {
  // Set-up: dataset plus index (or fleet) build, repeated; the median is
  // reported and the last stack serves the run.
  std::vector<double> setups;
  st::datasets::Dataset dataset;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    stack_ = Stack();
    const uint64_t t0 = NowNs();
    dataset = st::datasets::GenerateUniform(spec_.points,
                                            Mix(options_.seed, 0xDA7A));
    SPACETWIST_ASSIGN_OR_RETURN(stack_, BuildStack(spec_, dataset));
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  domain_ = dataset.domain;

  // Off the clock: users, and their reference answers on one LbsServer.
  pool_ = MakePool(spec_, domain_, options_.seed);
  st::server::LbsServer* reference = stack_.server.get();
  if (reference == nullptr) {
    st::rtree::RTreeOptions tree;
    tree.concurrent_reads = true;
    SPACETWIST_ASSIGN_OR_RETURN(reference_server_,
                                st::server::LbsServer::Build(dataset, tree));
    reference = reference_server_.get();
  }
  SPACETWIST_ASSIGN_OR_RETURN(privacy_outcomes_,
                              ComputeReference(spec_, reference, &pool_));
  dataset = st::datasets::Dataset();

  Runner runner(spec_, &stack_, &pool_, options_.seed);
  if (options_.trace) {
    SPACETWIST_RETURN_NOT_OK(PerLayer(&runner));
  } else {
    SPACETWIST_RETURN_NOT_OK(EndToEnd(&runner));
    Accuracy(&runner);
    Put("setup_s", Median(setups));
    Put("peak_rss_mb", PeakRssMb());
  }

  Note("dataset", st::StrFormat("\"UI n=%zu\"", spec_.points));
  Note("k", st::StrFormat("%zu", spec_.k));
  Note("epsilon_m", st::StrFormat("%.1f", spec_.epsilon));
  Note("anchor_distance_m", st::StrFormat("%.1f", spec_.anchor_distance));
  Note("connections", st::StrFormat("%zu", spec_.connections));
  Note("engine_workers", st::StrFormat("%zu", kEngineWorkers));
  Note("user_pool", st::StrFormat("%zu", spec_.pool));
  if (spec_.open_loop) {
    Note("low_rate_qps", st::StrFormat("%.0f", kLowRate));
    Note("high_rate_qps", st::StrFormat("%.0f", kHighRate));
    Note("capacity_limit_p50_ms", st::StrFormat("%.3f", kCapacityLimitNs / 1e6));
  }
  Note("setup_runs_s", JsonList(setups, 1.0));
  return std::move(result_);
}

Status Workload::EndToEnd(Runner* runner) {
  const bool fixed = options_.fixed_queries != 0;
  PhasePlan warm;
  warm.seconds = Secs(0.05);
  warm.rate = spec_.open_loop ? kLowRate : 0.0;
  warm.fixed_queries = options_.fixed_queries;
  warm.link_seed = Mix(LinkSeed(), 0x3A53);
  SPACETWIST_ASSIGN_OR_RETURN(PhaseOut warm_out, Phase(runner, warm));
  (void)warm_out;

  // Timings are medians over a run's short blocks (open loop) or nine time
  // windows (closed loops), so a burst of the host's noise moves one block
  // or window, not the figure. p90/p99 go to the provenance line.
  std::vector<PhaseOut> measured;
  std::vector<double> p50s, p90s, p99s, qps_windows;
  const double cpu0 = ProcessCpuSeconds();
  if (spec_.open_loop) {
    // The two rates alternate in short blocks, so a burst of noise lands
    // in one block of each rate.
    std::vector<double> high_p50, high_p90, high_p99;
    const size_t blocks = fixed ? 1 : kRateBlocks;
    for (size_t b = 0; b < blocks; ++b) {
      for (const double rate : {kLowRate, kHighRate}) {
        PhasePlan plan;
        plan.seconds = Secs(0.40 / static_cast<double>(2 * blocks));
        plan.lead_in_s = LeadIn();
        plan.rate = rate;
        plan.link_seed =
            Mix(options_.seed, b * 100'000 + static_cast<uint64_t>(rate));
        SPACETWIST_ASSIGN_OR_RETURN(PhaseOut out, Phase(runner, plan));
        const Percentiles block = WindowedPercentiles(out.samples);
        const bool low = rate == kLowRate;
        (low ? p50s : high_p50).push_back(block.p50);
        (low ? p90s : high_p90).push_back(block.p90);
        (low ? p99s : high_p99).push_back(block.p99);
        measured.push_back(std::move(out));
      }
    }
    Note("latency_p50_ms_high_rate",
         st::StrFormat("%.4f", Median(high_p50) / 1e6));
    Note("latency_p90_ms_high_rate",
         st::StrFormat("%.4f", Median(high_p90) / 1e6));
    Note("latency_p99_ms_high_rate",
         st::StrFormat("%.4f", Median(high_p99) / 1e6));
    Note("block_p50_ms", JsonList(p50s, 1e-6));
    Note("block_p99_ms", JsonList(p99s, 1e-6));
    Note("block_p99_ms_high_rate", JsonList(high_p99, 1e-6));

    // The offered rates fix the open loop's completion rate, so the
    // throughput is measured with the same three connections in closed
    // loops: each sends its next query as soon as its last one is done.
    PhasePlan plan;
    plan.seconds = Secs(0.15);
    plan.lead_in_s = LeadIn();
    plan.fixed_queries = options_.fixed_queries;
    plan.link_seed = Mix(options_.seed, 0xC105ED);
    SPACETWIST_ASSIGN_OR_RETURN(PhaseOut out, Phase(runner, plan));
    qps_windows = SplitByTime(out).qps;
    measured.push_back(std::move(out));
  } else {
    PhasePlan plan;
    plan.seconds = Secs(0.9);
    plan.lead_in_s = LeadIn();
    plan.fixed_queries = options_.fixed_queries;
    plan.link_seed = LinkSeed();
    SPACETWIST_ASSIGN_OR_RETURN(PhaseOut out, Phase(runner, plan));
    const Percentiles all = WindowedPercentiles(out.samples);
    const TimeWindows windows = SplitByTime(out);
    p50s = windows.p50;
    qps_windows = windows.qps;
    p90s.push_back(all.p90);
    p99s.push_back(all.p99);
    measured.push_back(std::move(out));
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  Note("latency_p90_ms", st::StrFormat("%.4f", Median(p90s) / 1e6));
  Note("latency_p99_ms", st::StrFormat("%.4f", Median(p99s) / 1e6));
  Put("latency_p50_ms", Median(p50s) / 1e6);
  Put("throughput_qps", Median(qps_windows));

  if (spec_.open_loop) {
    double capacity = 0.0;
    // Ladder of fixed offered rates, climbed to the top (noise only makes a
    // rung fail, so the highest passing rung is the robust one; rungs past
    // the knee abort within a fraction of a second). Capacity interpolates
    // between the highest passing rung and the rung above it; with no rung
    // passing it is the best completion rate any rung sustained.
    std::vector<double> lat;
    std::vector<double> done_qps;
    std::string rungs = "[";
    for (const double rate : kLadder) {
      PhasePlan plan;
      plan.seconds = Secs(0.025);
      plan.lead_in_s = LeadIn();
      plan.rate = rate;
      plan.stop_on_backlog = true;
      plan.link_seed = Mix(options_.seed, 0x1ADD + static_cast<uint64_t>(rate));
      SPACETWIST_ASSIGN_OR_RETURN(PhaseOut out, Phase(runner, plan));
      const bool ok = !out.overloaded && out.failed == 0;
      lat.push_back(ok ? WindowedPercentiles(out.samples).p50
                       : std::numeric_limits<double>::infinity());
      done_qps.push_back(Ratio(out.samples.size(), out.wall_ns / 1e9));
      rungs += st::StrFormat("%s[%.0f,%.4f]", rungs.size() > 1 ? "," : "",
                             rate, ok ? lat.back() / 1e6 : -1.0);
    }
    Note("capacity_rungs_rate_p50ms", rungs + "]");
    const size_t n = lat.size();
    size_t top = n;  // highest passing rung
    for (size_t i = 0; i < n; ++i) {
      if (lat[i] <= kCapacityLimitNs) top = i;
    }
    if (top == n) {
      capacity = Max(done_qps);
    } else if (top + 1 == n || std::isinf(lat[top + 1])) {
      capacity = kLadder[top];
    } else {
      capacity = kLadder[top] + (kLadder[top + 1] - kLadder[top]) *
                                    (kCapacityLimitNs - lat[top]) /
                                    (lat[top + 1] - lat[top]);
    }
    Note("capacity_qps", st::StrFormat("%.1f", capacity));
  }

  std::vector<const PhaseOut*> phases;
  uint64_t attempted = 0, completed = 0, packets = 0;
  std::vector<uint64_t> lags;
  for (const PhaseOut& p : measured) {
    phases.push_back(&p);
    attempted += p.attempted;
    completed += p.completed;
    packets += p.packets;
    lags.insert(lags.end(), p.lags.begin(), p.lags.end());
  }
  Put("success_share", Ratio(completed, attempted));
  // Client, engine and backend threads together: unlike the wall-clock
  // metrics it does not grow when the host steals the vCPUs.
  Put("cpu_ms_per_query", 1e3 * Ratio(cpu_s, completed));
  Put("packets_per_query", Ratio(packets, completed));
  Put("wire_bytes_per_query",
      Ratio(CounterSum(phases, "client.wire.bytes_sent") +
                CounterSum(phases, "client.wire.bytes_received"),
            completed));
  Put("round_trips_per_query",
      Ratio(CounterSum(phases, "client.wire.round_trips"), completed));
  if (spec_.open_loop) {
    const double lag_p99 = Quantile(lags, 0.99);
    Note("generator_lag_p99_us", st::StrFormat("%.1f", lag_p99 / 1e3));
    if (lag_p99 > kMaxGeneratorLagNs) {
      result_.invalid_reason = st::StrFormat(
          "generator lag p99 %.0f us exceeds %.0f us", lag_p99 / 1e3,
          kMaxGeneratorLagNs / 1e3);
    }
  }
  return Status::OK();
}

void Workload::Accuracy(Runner* runner) {
  // error_m, the kth answer's excess distance over exact kNN, is what the
  // client's ε buys in performance; the kth distance itself is reported.
  double kth = 0.0, error = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < pool_.size(); ++i) {
    if (!runner->completed(i)) continue;
    kth += pool_[i].kth_distance_m;
    error += pool_[i].error_m;
    ++n;
  }
  Put("error_m", Ratio(error, n));
  Note("kth_distance_m", st::StrFormat("%.6f", Ratio(kth, n)));
  double gamma = 0.0;
  size_t m = 0;
  for (size_t i = 0; i < privacy_outcomes_.size(); ++i) {
    if (!runner->completed(i)) continue;
    st::Rng rng(Mix(kPrivacySeed, i));
    const st::privacy::Observation obs =
        st::privacy::MakeObservation(privacy_outcomes_[i], domain_);
    gamma += st::privacy::EstimatePrivacy(obs, pool_[i].q,
                                          spec_.privacy_samples, &rng)
                 .privacy_value;
    ++m;
  }
  Put("privacy_gamma_m", Ratio(gamma, m));
}

Status Workload::PerLayer(Runner* runner) {
  // Warm-up, then the same phase untraced and traced: the difference is
  // the tracing overhead, the traced phase gives the per-layer numbers.
  PhasePlan plan;
  plan.seconds = Secs(0.05);
  plan.rate = spec_.open_loop ? kLowRate : 0.0;
  plan.fixed_queries = options_.fixed_queries;
  plan.link_seed = Mix(LinkSeed(), 0x3A53);
  SPACETWIST_ASSIGN_OR_RETURN(PhaseOut warm, Phase(runner, plan));
  (void)warm;

  plan.seconds = Secs(0.45);
  plan.lead_in_s = LeadIn();
  plan.rate = spec_.open_loop ? kHighRate : 0.0;
  plan.link_seed = LinkSeed();
  SPACETWIST_ASSIGN_OR_RETURN(PhaseOut plain, Phase(runner, plan));

  const uint64_t shard_points0 =
      stack_.ShardCounter("server.granular.points_reported");
  const uint64_t shard_reads0 = stack_.ShardCounter("server.granular.node_reads");
  const uint64_t shard_pops0 = stack_.ShardCounter("server.granular.heap_pops");
  const uint64_t shard_cells0 =
      stack_.ShardCounter("server.granular.cells_visited");
  const HistogramSnapshot fanout0 =
      stack_.router_registry != nullptr
          ? Histogram(stack_.router_registry->Snapshot(), "shard.router.fanout")
          : HistogramSnapshot();
  const st::storage::IoStats io0 = stack_.Io();

  plan.traced = true;
  SPACETWIST_ASSIGN_OR_RETURN(PhaseOut traced, Phase(runner, plan));

  const st::storage::IoStats io = stack_.Io() - io0;
  const RegistrySnapshot& snap = traced.snapshot;
  const double queries = static_cast<double>(traced.completed);
  const StageSums& s = traced.stages;
  const double frames = static_cast<double>(s.frames);
  auto per_query = [&](double v) { return Ratio(v, queries); };
  auto us = [](double ns) { return ns / 1e3; };

  Put("core.loop_self_us", us(Ratio(s.loop_self_ns, s.queries)));
  Put("service.client_self_us", us(Ratio(s.client_self_ns, s.queries)));
  Put("net.link_self_us", us(Ratio(s.link_self_ns, s.queries)));
  Put("engine.handoff_in_us", us(Ratio(s.handoff_in_ns, frames)));
  Put("engine.handoff_out_us", us(Ratio(s.handoff_out_ns, frames)));
  const HistogramSnapshot queue = Histogram(snap, "engine.queue_delay_ns");
  Put("engine.queue_delay_us.p50", us(queue.Percentile(0.50)));
  Put("engine.queue_delay_us.p99", us(queue.Percentile(0.99)));
  Put("engine.loop_idle_share",
      Ratio(Counter(snap, "engine.loop_idle_ns"), traced.wall_ns));
  Put("engine.poll_batch_mean", Histogram(snap, "engine.poll_batch").Mean());
  // Server-side time per frame that is neither queueing nor the backend:
  // decode, stripe lock (and its wait), packetize, replay copy, encode.
  const double dispatch_ns =
      static_cast<double>(traced.transport.server_ns) -
      static_cast<double>(queue.sum) -
      static_cast<double>(traced.transport.backend_ns);
  Put("service.dispatch_self_us",
      us(Ratio(std::max(0.0, dispatch_ns), traced.transport.frames)));

  const TimedBackend::Totals& b = traced.backend;
  const double open_us = us(Ratio(b.open_ns, b.opens));
  const double pull_us = us(Ratio(b.pull_ns, b.pulls));
  Put("memidx.open_us", spec_.kind == BackendKind::kMemidx ? open_us : 0.0);
  Put("memidx.scan_us_per_pull",
      spec_.kind == BackendKind::kMemidx ? pull_us : 0.0);
  Put("server.open_us", spec_.kind == BackendKind::kPaged ? open_us : 0.0);
  Put("server.scan_us_per_pull",
      spec_.kind == BackendKind::kPaged ? pull_us : 0.0);

  double reads = Counter(snap, "server.granular.node_reads");
  double pops = Counter(snap, "server.granular.heap_pops");
  double cells = Counter(snap, "server.granular.cells_visited");
  double points = Counter(snap, "server.granular.points_reported");
  if (spec_.shard) {
    reads = stack_.ShardCounter("server.granular.node_reads") - shard_reads0;
    pops = stack_.ShardCounter("server.granular.heap_pops") - shard_pops0;
    cells = stack_.ShardCounter("server.granular.cells_visited") - shard_cells0;
    points = stack_.ShardCounter("server.granular.points_reported") -
             shard_points0;
  }
  Put("server.node_reads_per_query", per_query(reads));
  Put("server.heap_pops_per_query", per_query(pops));
  Put("server.cells_visited_per_query", per_query(cells));
  Put("server.points_per_heap_pop", Ratio(points, pops));
  Put("storage.miss_ratio", Ratio(io.physical_reads, io.logical_reads));
  Put("storage.misses_per_query", per_query(io.physical_reads));

  double fanout_mean = 0.0;
  if (stack_.router_registry != nullptr) {
    const HistogramSnapshot fanout = Histogram(
        stack_.router_registry->Snapshot(), "shard.router.fanout");
    fanout_mean = Ratio(fanout.sum - fanout0.sum, fanout.count - fanout0.count);
  }
  Put("shard.open_us", spec_.shard ? open_us : 0.0);
  Put("shard.merge_us_per_pull", spec_.shard ? pull_us : 0.0);
  Put("shard.fanout_mean", fanout_mean);
  Put("shard.pulls_per_query",
      per_query(Counter(snap, "shard.router.shard_pulls")));
  Put("shard.merge_pops_per_query",
      per_query(Counter(snap, "shard.router.merge_pops")));
  Put("shard.points_pulled_per_reported",
      spec_.shard
          ? Ratio(points, Counter(snap, "shard.router.points_reported"))
          : 0.0);

  Put("service.retries_per_query", per_query(Counter(snap, "client.wire.retries")));
  Put("service.stale_per_query",
      per_query(Counter(snap, "client.wire.stale_replies")));
  Put("service.reopens_per_query", per_query(Counter(snap, "client.wire.reopens")));
  Put("service.backoff_ms_per_query",
      per_query(Counter(snap, "client.wire.backoff_ns")) / 1e6);
  Put("service.replayed_per_query",
      per_query(Counter(snap, "service.engine.pulls_replayed")));
  uint64_t faults = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("net.faults.", 0) == 0) faults += value;
  }
  Put("net.faults_per_query", per_query(faults));

  // Stage sum. Each *_self stage is a layer's time minus the time of the
  // layer below it, and the three engine stages split the port's time at
  // PollReady and SendReply, so the stages partition the query's timeline
  // by construction: the residual holds only the gap between Open and the
  // termination loop and differences clamped at 0. It catches a decorator
  // left out of (or counted twice in) the chain; it is not evidence that
  // the decorators cover the latency.
  const double stage_ns =
      static_cast<double>(s.wait_ns + s.loop_self_ns +
                          s.client_self_ns + s.link_self_ns +
                          s.handoff_in_ns + s.server_ns + s.handoff_out_ns +
                          s.sleep_ns);
  Put("bench.traced_latency_us", us(Ratio(s.latency_ns, s.queries)));
  Put("bench.backlog_wait_us", us(Ratio(traced.backlog_ns, traced.attempted)));
  Put("bench.generator_lag_us.p99", us(Quantile(traced.lags, 0.99)));
  Put("bench.stage_residual_share",
      Ratio(static_cast<double>(s.latency_ns) - stage_ns, s.latency_ns));
  double overhead = 0.0;
  if (spec_.open_loop) {
    overhead = WindowedPercentiles(traced.samples).p50 /
                   WindowedPercentiles(plain.samples).p50 -
               1.0;
  } else {
    const double plain_qps = Ratio(plain.completed, plain.wall_ns);
    const double traced_qps = Ratio(traced.completed, traced.wall_ns);
    overhead = plain_qps > 0.0 ? 1.0 - traced_qps / plain_qps : 0.0;
  }
  Put("bench.trace_overhead_share", overhead);
  result_.traces = std::move(traced.traces);
  return Status::OK();
}

}  // namespace

Result<RunResult> RunWorkload(const RunOptions& options) {
  SPACETWIST_ASSIGN_OR_RETURN(Spec spec, SpecFor(options));
  Workload workload(options, std::move(spec));
  return workload.Run();
}

}  // namespace perfbench
