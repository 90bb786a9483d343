#include "eval/load_generator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>

#include "engine/event_engine.h"
#include "engine/event_transport.h"
#include "geom/point.h"
#include "net/packet.h"
#include "net/wire.h"
#include "service/thread_pool.h"
#include "telemetry/flight_recorder.h"

namespace spacetwist::eval {

namespace {

/// kMeasured: concurrent client sessions; later arrivals wait client-side,
/// which is exactly the open-loop backlog being measured.
constexpr size_t kMeasuredSessions = 64;
/// kModeled: one query's service time is 200 us + 50 us per packet.
constexpr uint64_t kModeledBaseNs = 200000;
constexpr uint64_t kModeledPerPacketNs = 50000;

void HashU64(uint64_t v, uint64_t* h) {
  for (int shift = 0; shift < 64; shift += 8) {
    *h = (*h ^ ((v >> shift) & 0xFF)) * 1099511628211ULL;  // FNV-1a
  }
}

Status Validate(service::ServiceEngine* engine, const Schedule& schedule,
                const LoadOptions& options) {
  if (engine == nullptr) return Status::InvalidArgument("engine is null");
  if (schedule.arrivals.empty()) {
    return Status::InvalidArgument("schedule is empty");
  }
  if (options.worker_threads < 1) {
    return Status::InvalidArgument("worker_threads must be >= 1");
  }
  if (!options.slo_objectives.empty() && options.timeseries_interval_ns == 0) {
    return Status::InvalidArgument(
        "slo_objectives require timeseries_interval_ns > 0");
  }
  // A user's link is stateful, so it must carry one query at a time; only
  // the closed pacing guarantees that (open-loop queries of one user may
  // overlap).
  if (options.fault.has_value() && options.pacing != Pacing::kClosed) {
    return Status::InvalidArgument("fault injection needs kClosed pacing");
  }
  if (options.params.packet.Capacity() != net::kDefaultPacketCapacity) {
    return Status::InvalidArgument(
        "client packet capacity differs from the engine's (beta = 67); "
        "outcomes would not match the reference path");
  }
  return Status::OK();
}

/// One query's result, written only by the task that ran it and read after
/// the run, so no lock is needed.
struct Slot {
  bool completed = false;
  Status status;  ///< why it did not complete
  QueryDigest digest;
  TradeoffRecord record;
  std::optional<telemetry::TraceRecord> trace;
  service::RetryStats retry;
};

/// One RunLoad invocation. Construction order matters for the modeled
/// pacing's byte identity: instruments, then the event engine, then the
/// windowed collector (which snapshots the registry as its baseline).
class LoadRun {
 public:
  LoadRun(service::ServiceEngine* engine, const Schedule& schedule,
          const LoadOptions& options);
  // Worker tasks hold `this`.
  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  Result<LoadReport> Run();

 private:
  const Arrival& arrival(size_t i) const { return schedule_.arrivals[i]; }

  void RunClosed();
  void RunMeasured();
  void RunModeled();

  /// The one query body: Algorithm 1 over a retrying wire session on the
  /// user's link; sampled or escalated queries carry a distributed trace.
  Result<core::QueryOutcome> Query(size_t i);
  /// The one recording step. `queue_delay_ns` is null under kClosed.
  void Record(size_t i, const Result<core::QueryOutcome>& outcome,
              uint64_t latency_ns, const uint64_t* queue_delay_ns);

  /// Closes every elapsed window and lets the watchdog judge it; only ever
  /// called from the thread running RunLoad.
  void PollWindows();
  /// Waits for `pool` to drain, polling the windows meanwhile.
  void Drain(service::ThreadPool* pool);

  service::ServiceEngine* engine_;
  const Schedule& schedule_;
  const LoadOptions& options_;
  telemetry::Clock* clock_;
  telemetry::MetricRegistry* registry_;
  telemetry::Counter* offered_metric_;
  telemetry::Counter* completed_metric_;
  telemetry::Counter* rejected_metric_;
  telemetry::Histogram* latency_metric_;
  telemetry::Histogram* queue_delay_metric_;
  telemetry::Histogram latency_;  ///< this run only
  telemetry::Histogram queue_delay_;

  std::unique_ptr<engine::InProcessEventTransport> event_transport_;
  std::unique_ptr<engine::EventEngine> event_engine_;

  /// kModeled windows sample the modeled timeline, never wall time.
  telemetry::VirtualClock model_clock_{0};
  std::unique_ptr<telemetry::TimeSeriesCollector> collector_;
  std::unique_ptr<telemetry::FlightRecorder> flight_;
  std::unique_ptr<telemetry::SloMonitor> monitor_;

  size_t num_users_ = 0;
  /// Faulted runs: each user's FaultyTransport, kept for the whole run.
  std::vector<std::unique_ptr<net::FaultyTransport>> links_;
  std::vector<uint32_t> user_index_;  ///< query's index among its user's
  std::vector<Slot> slots_;
  std::atomic<size_t> finished_{0};
  std::atomic<uint64_t> escalated_{0};
  uint64_t wall_ns_ = 0;
};

LoadRun::LoadRun(service::ServiceEngine* engine, const Schedule& schedule,
                 const LoadOptions& options)
    : engine_(engine),
      schedule_(schedule),
      options_(options),
      clock_(telemetry::OrDefault(options.clock)),
      registry_(telemetry::MetricRegistry::OrDefault(options.registry)),
      offered_metric_(registry_->GetCounter("eval.arrival.offered")),
      completed_metric_(registry_->GetCounter("eval.arrival.completed")),
      rejected_metric_(registry_->GetCounter("eval.arrival.rejected")),
      latency_metric_(registry_->GetHistogram("eval.arrival.latency_ns")),
      queue_delay_metric_(
          registry_->GetHistogram("eval.arrival.queue_delay_ns")),
      slots_(schedule.arrivals.size()) {
  if (options_.pacing != Pacing::kClosed) {
    engine::EventEngineOptions engine_options;
    engine_options.worker_threads = options_.worker_threads;
    engine_options.clock = options_.clock;
    engine_options.registry = options_.registry;
    event_transport_ = std::make_unique<engine::InProcessEventTransport>();
    event_engine_ = std::make_unique<engine::EventEngine>(
        engine_, event_transport_.get(), engine_options);
  }
  if (options_.timeseries_interval_ns > 0) {
    telemetry::TimeSeriesCollector::Options collector_options;
    collector_options.interval_ns = options_.timeseries_interval_ns;
    collector_ = std::make_unique<telemetry::TimeSeriesCollector>(
        options_.pacing == Pacing::kModeled ? &model_clock_ : clock_,
        registry_, collector_options);
    flight_ = std::make_unique<telemetry::FlightRecorder>();
    monitor_ =
        std::make_unique<telemetry::SloMonitor>(collector_.get(), flight_.get());
    for (const telemetry::SloObjective& objective : options_.slo_objectives) {
      monitor_->AddObjective(objective);
    }
  }

  std::vector<uint32_t> per_user;
  user_index_.reserve(schedule_.arrivals.size());
  for (const Arrival& a : schedule_.arrivals) {
    if (a.user >= per_user.size()) per_user.resize(a.user + 1, 0);
    user_index_.push_back(per_user[a.user]++);
  }
  num_users_ = per_user.size();
  if (options_.fault.has_value()) {
    // One lossy link per user, like one radio per handset: its fault stream
    // derives from the user alone, so adding users perturbs none.
    for (size_t u = 0; u < num_users_; ++u) {
      links_.push_back(std::make_unique<net::FaultyTransport>(
          engine_, *options_.fault, ClientSeed(options_.fault_seed, u)));
    }
  }
}

Result<core::QueryOutcome> LoadRun::Query(size_t i) {
  const Arrival& a = arrival(i);
  Slot& slot = slots_[i];
  const bool sampled =
      options_.trace_every != 0 && i % options_.trace_every == 0;
  // Watchdog escalation traces ride the exact path sampled ones do.
  const bool escalated = monitor_ != nullptr && monitor_->ConsumeEscalation();
  if (escalated) escalated_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t trace_id =
      QueryTraceId(schedule_.seed, a.user, user_index_[i]);
  telemetry::Trace trace(clock_);
  service::RetryConfig retry;
  retry.policy = options_.policy;
  // Per query, not per user: a user's queries must not share a first Open
  // nonce, or the server could link them.
  retry.seed = QueryTraceId(options_.retry_seed, a.user, user_index_[i]);
  if (sampled || escalated) {
    retry.trace = &trace;
    retry.trace_id = trace_id;
  }
  Result<core::QueryOutcome> outcome = [&]() -> Result<core::QueryOutcome> {
    if (!links_.empty()) {
      return service::RemoteQuery(links_[a.user].get(), a.q, a.anchor,
                                  options_.params, retry, &slot.retry);
    }
    // A perfect link holds no state, so each query gets a fresh transport
    // (and under the event engine a fresh connection: a user's overlapping
    // open-loop queries never share one).
    if (event_engine_ == nullptr) {
      net::DirectTransport direct(engine_);
      return service::RemoteQuery(&direct, a.q, a.anchor, options_.params,
                                  retry, &slot.retry);
    }
    const uint64_t conn_id = event_transport_->Connect();
    engine::EventEngine::Port port(event_transport_.get(), conn_id);
    net::DirectTransport direct(&port);
    Result<core::QueryOutcome> result = service::RemoteQuery(
        &direct, a.q, a.anchor, options_.params, retry, &slot.retry);
    // Every frame has had its reply: the connection holds nothing more.
    event_transport_->Disconnect(conn_id);
    return result;
  }();
  if (outcome.ok() && retry.trace != nullptr) {
    slot.trace = telemetry::TraceRecord{trace_id, trace.records()};
  }
  return outcome;
}

void LoadRun::Record(size_t i, const Result<core::QueryOutcome>& outcome,
                     uint64_t latency_ns, const uint64_t* queue_delay_ns) {
  Slot& slot = slots_[i];
  if (queue_delay_ns != nullptr) {
    queue_delay_.Record(*queue_delay_ns);
    queue_delay_metric_->Record(*queue_delay_ns);
  }
  if (!outcome.ok()) {
    slot.status = outcome.status();
    // Backpressure (engine run queue or session cap) sheds the query:
    // goodput lost, counted apart from failures.
    if (slot.status.code() == StatusCode::kResourceExhausted) {
      rejected_metric_->Add();
    }
    finished_.fetch_add(1, std::memory_order_release);
    return;
  }
  latency_.Record(latency_ns);
  latency_metric_->Record(latency_ns);
  completed_metric_->Add();
  slot.completed = true;
  slot.digest = DigestOf(*outcome);

  const Arrival& a = arrival(i);
  const double anchor_distance = geom::Distance(a.q, a.anchor);
  if (flight_ != nullptr) {
    // What the SLO watchdog dumps when it trips.
    telemetry::FlightRecord flight;
    flight.trace_id = QueryTraceId(schedule_.seed, a.user, user_index_[i]);
    flight.latency_ns = latency_ns;
    flight.packets = outcome->packets;
    flight.tau = outcome->tau;
    flight.gamma = outcome->gamma;
    flight.anchor_distance = anchor_distance;
    flight_->Record(flight);
  }
  TradeoffRecord& rec = slot.record;
  rec.trace_id = slot.trace.has_value() ? slot.trace->trace_id : 0;
  rec.client = a.user;
  rec.query_index = user_index_[i];
  rec.anchor_distance = anchor_distance;
  rec.tau = outcome->tau;
  rec.gamma = outcome->gamma;
  rec.epsilon = options_.params.epsilon;
  rec.reported_kth_distance =
      outcome->neighbors.empty() ? 0.0 : outcome->neighbors.back().distance;
  rec.result_count = static_cast<uint32_t>(outcome->neighbors.size());
  rec.packets = outcome->packets;
  rec.points = outcome->retrieved.size();
  const net::PacketConfig& pc = options_.params.packet;
  rec.downlink_bytes =
      outcome->packets * pc.header_bytes + rec.points * pc.point_bytes;
  // Uplink: one header-sized pull frame per packet plus open + close.
  rec.uplink_bytes = (outcome->packets + 2) * pc.header_bytes;
  rec.latency_ns = latency_ns;
  rec.retry = slot.retry;
  // The query's session is closed by now (RemoteQuery returned), so a
  // sharded backend has already retired the stream the probe reads.
  if (options_.fanout_probe != nullptr) options_.fanout_probe(a.anchor, &rec);
  finished_.fetch_add(1, std::memory_order_release);
}

void LoadRun::PollWindows() {
  if (collector_ != nullptr && collector_->Poll() > 0) monitor_->Evaluate();
}

void LoadRun::Drain(service::ThreadPool* pool) {
  while (collector_ != nullptr &&
         finished_.load(std::memory_order_acquire) < slots_.size()) {
    PollWindows();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool->Wait();
}

void LoadRun::RunClosed() {
  std::vector<std::vector<size_t>> chains(num_users_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    chains[arrival(i).user].push_back(i);
  }
  service::ThreadPool pool(options_.worker_threads,
                           service::ThreadPoolOptions{options_.registry});
  // One task per user step, re-submitting the user's next query from inside
  // itself: a user's queries run in order, one at a time, and the pool's
  // queue hand-off orders them (and the user's link) across threads.
  std::function<void(size_t, size_t)> step = [&](size_t user, size_t k) {
    const size_t i = chains[user][k];
    offered_metric_->Add();
    const uint64_t start_ns = clock_->NowNs();
    const Result<core::QueryOutcome> outcome = Query(i);
    const uint64_t end_ns = clock_->NowNs();
    Record(i, outcome, end_ns - start_ns, nullptr);
    if (k + 1 < chains[user].size()) {
      pool.Submit([&step, user, k] { step(user, k + 1); });
    }
  };
  const uint64_t start_ns = clock_->NowNs();
  // The first steps are queued from inside the pool: with one worker they
  // all precede any re-submitted step, however slowly this thread runs.
  // Queued by this thread, a preempted caller could let user 0's second
  // query overtake user 3's first and change a VirtualClock run's bytes.
  pool.Submit([&] {
    for (size_t u = 0; u < num_users_; ++u) {
      if (!chains[u].empty()) pool.Submit([&step, u] { step(u, 0); });
    }
  });
  Drain(&pool);
  wall_ns_ = clock_->NowNs() - start_ns;
}

void LoadRun::RunMeasured() {
  service::ThreadPool clients(kMeasuredSessions,
                              service::ThreadPoolOptions{options_.registry});
  const uint64_t start_ns = clock_->NowNs();
  for (size_t i = 0; i < slots_.size(); ++i) {
    // Open loop: release at the scheduled instant no matter how far behind
    // the servers are. Spin-yield on the run clock (a VirtualClock makes
    // this a no-op).
    const uint64_t release_ns = start_ns + arrival(i).at_ns;
    while (clock_->NowNs() < release_ns) {
      PollWindows();
      std::this_thread::yield();
    }
    PollWindows();
    offered_metric_->Add();
    clients.Submit([this, i, release_ns] {
      const uint64_t queue_delay_ns = clock_->NowNs() - release_ns;
      const Result<core::QueryOutcome> outcome = Query(i);
      Record(i, outcome, clock_->NowNs() - release_ns, &queue_delay_ns);
    });
  }
  Drain(&clients);
  wall_ns_ = clock_->NowNs() - start_ns;
}

void LoadRun::RunModeled() {
  // M/D/c: each arrival seizes the earliest-free of `worker_threads`
  // virtual servers. Min-heap of free times. Each window closes before the
  // first query scheduled past its end runs, so a window's deltas are
  // exactly the queries scheduled inside it; modeled queue delay is charged
  // to the arrival's window, so a growing backlog shows as later windows
  // with larger queue-delay percentiles — the knee forming over time.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> free_at;
  for (size_t i = 0; i < options_.worker_threads; ++i) free_at.push(0);
  for (size_t i = 0; i < slots_.size(); ++i) {
    const uint64_t at_ns = arrival(i).at_ns;
    if (collector_ != nullptr) {
      model_clock_.Set(at_ns);
      PollWindows();
    }
    offered_metric_->Add();
    // Real results through the real event-driven path; only time is
    // modeled. A query that did not complete occupies no server.
    const Result<core::QueryOutcome> outcome = Query(i);
    if (!outcome.ok()) {
      Record(i, outcome, 0, nullptr);
      continue;
    }
    const uint64_t start = std::max(at_ns, free_at.top());
    free_at.pop();
    const uint64_t finish =
        start + kModeledBaseNs + kModeledPerPacketNs * outcome->packets;
    free_at.push(finish);
    wall_ns_ = std::max(wall_ns_, finish);
    const uint64_t queue_delay_ns = start - at_ns;
    Record(i, outcome, finish - at_ns, &queue_delay_ns);
  }
}

Result<LoadReport> LoadRun::Run() {
  switch (options_.pacing) {
    case Pacing::kClosed:
      RunClosed();
      break;
    case Pacing::kMeasured:
      RunMeasured();
      break;
    case Pacing::kModeled:
      RunModeled();
      break;
  }

  LoadReport report;
  if (collector_ != nullptr) {
    collector_->Flush();
    monitor_->Evaluate();
    report.timeseries = collector_->series();
    report.slo = monitor_->Report();
  }
  report.escalated = escalated_.load();
  report.wall_seconds = static_cast<double>(wall_ns_) / 1e9;
  report.scheduled = slots_.size();
  report.digests.resize(slots_.size());
  report.succeeded.resize(slots_.size(), false);
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    report.retry += slot.retry;
    if (!slot.completed) {
      if (slot.status.code() == StatusCode::kResourceExhausted) {
        ++report.rejected;
      } else {
        ++report.failed;
      }
      if (report.first_failure.ok()) report.first_failure = slot.status;
      continue;
    }
    ++report.completed;
    report.digests[i] = slot.digest;
    report.succeeded[i] = true;
    report.packets += slot.digest.packets;
    report.points += slot.digest.points;
    // Accuracy leg of the triangle, scored off the latency path. Error
    // semantics match eval/runner.cc: reported kth-NN distance minus true
    // kth-NN distance, 0 when either side is incomplete.
    if (options_.truth != nullptr) {
      SPACETWIST_ASSIGN_OR_RETURN(
          std::vector<rtree::Neighbor> truth,
          options_.truth->ExactKnn(arrival(i).q, options_.params.k));
      if (!truth.empty() && slot.record.result_count == truth.size()) {
        slot.record.achieved_error =
            slot.record.reported_kth_distance - truth.back().distance;
      }
      slot.record.error_evaluated = true;
    }
    report.tradeoffs.push_back(std::move(slot.record));
    if (slot.trace.has_value()) report.traces.push_back(std::move(*slot.trace));
  }
  for (const std::unique_ptr<net::FaultyTransport>& link : links_) {
    const net::FaultStats stats = link->stats();
    report.faults.round_trips += stats.round_trips;
    report.faults.delivered += stats.delivered;
    report.faults.drops += stats.drops;
    report.faults.duplicates += stats.duplicates;
    report.faults.reorders += stats.reorders;
    report.faults.corruptions += stats.corruptions;
    report.faults.stalls += stats.stalls;
    report.faults.disconnects += stats.disconnects;
    report.virtual_ns += link->now_ns();
    report.fault_logs.push_back(link->log());
  }
  report.latency = latency_.Snapshot();
  report.queue_delay = queue_delay_.Snapshot();
  report.p50_latency_ms = report.latency.Percentile(0.50) / 1e6;
  report.p99_latency_ms = report.latency.Percentile(0.99) / 1e6;
  report.queries_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace

QueryDigest DigestOf(const core::QueryOutcome& outcome) {
  QueryDigest digest;
  for (const rtree::Neighbor& n : outcome.neighbors) {
    HashU64(n.point.id, &digest.result_hash);
    HashU64(std::bit_cast<uint64_t>(n.distance), &digest.result_hash);
  }
  HashU64(outcome.packets, &digest.result_hash);
  digest.packets = outcome.packets;
  digest.points = outcome.retrieved.size();
  return digest;
}

Result<LoadReport> RunLoad(service::ServiceEngine* engine,
                           const Schedule& schedule,
                           const LoadOptions& options) {
  SPACETWIST_RETURN_NOT_OK(Validate(engine, schedule, options));
  LoadRun run(engine, schedule, options);
  return run.Run();
}

Result<std::vector<QueryDigest>> RunReference(server::LbsServer* server,
                                              const Schedule& schedule,
                                              const core::QueryParams& params) {
  if (server == nullptr) return Status::InvalidArgument("server is null");
  core::SpaceTwistClient client(server);
  std::vector<QueryDigest> digests;
  digests.reserve(schedule.arrivals.size());
  for (const Arrival& a : schedule.arrivals) {
    SPACETWIST_ASSIGN_OR_RETURN(core::QueryOutcome outcome,
                                client.Query(a.q, a.anchor, params));
    digests.push_back(DigestOf(outcome));
  }
  return digests;
}

}  // namespace spacetwist::eval
