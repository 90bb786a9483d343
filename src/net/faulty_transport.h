#ifndef SPACETWIST_NET_FAULTY_TRANSPORT_H_
#define SPACETWIST_NET_FAULTY_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "net/wire.h"
#include "telemetry/registry.h"

namespace spacetwist::net {

/// Deterministic fault-injection decorator for the wire protocol (see
/// docs/SERVICE.md §5). Wraps a FrameHandler (e.g. service::ServiceEngine)
/// behind the FrameTransport interface and subjects every round trip to a
/// seeded schedule of the failures a mobile link actually exhibits: frame
/// loss, duplication, reordering, byte corruption, stalls past the
/// deadline, and connection drops. Every fault is drawn from one
/// spacetwist::Rng and appended to a replayable log, so any failure is
/// exactly reproducible from (seed, FaultConfig) — the property the fault
/// matrix and the Lemma 1 end-to-end tests are built on.
///
/// Time is virtual: the transport advances an internal nanosecond clock
/// (base latency per round trip, deadline on losses, stall duration on
/// stalls) and never touches the wall clock, so tests and benches are
/// deterministic and fast.

/// What went wrong with one frame.
enum class FaultKind : uint8_t {
  kDrop,        ///< frame lost; the round trip times out
  kDuplicate,   ///< frame delivered twice (extra reply becomes a late frame)
  kReorder,     ///< reply overtaken: arrives after older stragglers
  kCorrupt,     ///< one byte of the frame flipped in flight
  kStall,       ///< reply delayed past the deadline (arrives late)
  kDisconnect,  ///< connection reset; in-flight frames discarded
};

enum class Direction : uint8_t { kUplink, kDownlink };

const char* FaultKindName(FaultKind kind);

/// Independent per-frame probabilities of each fault, in [0, 1].
/// `reorder` and `stall` act on the reply and are ignored for the uplink
/// direction (a synchronous request cannot overtake itself).
struct FaultRates {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  double stall = 0.0;
  double disconnect = 0.0;
};

/// Full fault schedule: base rates per direction, optional overrides keyed
/// by the *request* MessageType of the round trip (so e.g. only Pull
/// traffic can be lossy while Open/Close stay clean), and the virtual-time
/// constants.
struct FaultConfig {
  FaultRates uplink;
  FaultRates downlink;
  std::vector<std::pair<MessageType, FaultRates>> uplink_overrides;
  std::vector<std::pair<MessageType, FaultRates>> downlink_overrides;

  /// Virtual time: each round trip costs `latency_ns`; a lost frame costs
  /// the full `deadline_ns`; a stalled reply costs `stall_ns` (which must
  /// exceed the deadline for the stall to be observable as a timeout).
  uint64_t latency_ns = 1'000'000;      ///< 1 ms per round trip
  uint64_t deadline_ns = 50'000'000;    ///< 50 ms client deadline
  uint64_t stall_ns = 200'000'000;      ///< 200 ms stall
  /// After a disconnect fault, this many subsequent round trips also fail
  /// with kIoError before the link heals (models reconnect latency).
  size_t disconnect_ops = 1;
  /// Held-back (reordered/duplicated/stalled) frames kept for later
  /// delivery; the oldest is dropped beyond this.
  size_t max_holdback = 4;
  /// Metric registry receiving the net.faults.* / net.faulty.* counters
  /// (null = the process-wide default). Aggregates across transports.
  telemetry::MetricRegistry* registry = nullptr;

  /// Effective rates for one round trip in one direction.
  const FaultRates& RatesFor(Direction direction, MessageType request) const;
};

/// One entry of the replayable fault log.
struct FaultEvent {
  uint64_t op = 0;        ///< round-trip index (0-based)
  uint64_t at_ns = 0;     ///< virtual time when the fault fired
  Direction direction = Direction::kUplink;
  MessageType request_type = MessageType::kOpenRequest;
  FaultKind kind = FaultKind::kDrop;
};

std::string ToString(const FaultEvent& event);

/// Counters summarizing a transport's life (mirrors the log).
struct FaultStats {
  uint64_t round_trips = 0;
  uint64_t delivered = 0;  ///< round trips that returned a reply frame
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t corruptions = 0;
  uint64_t stalls = 0;
  uint64_t disconnects = 0;

  /// Faults of every kind (the log's length).
  uint64_t injected() const {
    return drops + duplicates + reorders + corruptions + stalls + disconnects;
  }
};

/// The lossy link. Typical use is one FaultyTransport per client, like one
/// socket per client; an internal annotated mutex nevertheless serializes
/// the fault schedule, so accidental sharing degrades to interleaving
/// instead of a data race. The wrapped handler may be shared across
/// threads.
class FaultyTransport : public FrameTransport {
 public:
  /// Borrows `inner`, which must outlive the transport.
  FaultyTransport(FrameHandler* inner, const FaultConfig& config,
                  uint64_t seed);

  /// Ships one request frame through the fault schedule. Server side
  /// effects happen whenever the request survives the uplink — even if the
  /// reply is then lost, which is exactly the ambiguity retry layers must
  /// handle. Returns kDeadlineExceeded for lost/stalled frames and
  /// kIoError while disconnected; corrupted replies are returned as-is
  /// (the codec checksum turns them into kCorruption at decode time).
  /// An empty frame is a listen (see FrameTransport): it pops the oldest
  /// held-back frame, or returns kDeadlineExceeded when none is held; it
  /// draws no fault, counts no round trip, and writes no log entry.
  /// Takes mu_ internally (no annotation: attribute placement on virtual
  /// overrides is compiler-picky; the guarded helpers below carry REQUIRES).
  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) override;

  const FaultConfig& config() const { return config_; }
  /// Snapshots of the mutable state, taken under the lock so they are
  /// consistent even if the transport is (atypically) shared.
  std::vector<FaultEvent> log() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return log_;
  }
  FaultStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  uint64_t now_ns() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return now_ns_;
  }

 private:
  MessageType PeekType(const std::vector<uint8_t>& frame) const;
  bool Fire(double rate) REQUIRES(mu_) {
    return rate > 0.0 && rng_.Bernoulli(rate);
  }
  void Record(Direction direction, MessageType request, FaultKind kind)
      REQUIRES(mu_);
  void FlipByte(std::vector<uint8_t>* frame) REQUIRES(mu_);
  void HoldBack(std::vector<uint8_t> frame) REQUIRES(mu_);
  void BeginDisconnect(Direction direction, MessageType request)
      REQUIRES(mu_);

  FrameHandler* inner_;
  FaultConfig config_;
  /// Registry mirrors of FaultStats, keyed by kind name.
  telemetry::Counter* round_trips_metric_;
  telemetry::Counter* delivered_metric_;
  telemetry::Counter* fault_metrics_[6];  ///< indexed by FaultKind
  // Rank: outermost — RoundTrip holds the schedule lock across
  // inner_->HandleFrame, i.e. across the entire serving stack.
  mutable Mutex mu_ ACQUIRED_AFTER(lock_order::kFaultyTransport)
      ACQUIRED_BEFORE(lock_order::kThreadPool){LockRank::kFaultyTransport,
                                               "net.faulty_transport"};
  Rng rng_ GUARDED_BY(mu_);
  uint64_t now_ns_ GUARDED_BY(mu_) = 0;
  uint64_t ops_ GUARDED_BY(mu_) = 0;
  size_t down_ops_left_ GUARDED_BY(mu_) = 0;
  std::deque<std::vector<uint8_t>> holdback_ GUARDED_BY(mu_);
  std::vector<FaultEvent> log_ GUARDED_BY(mu_);
  FaultStats stats_ GUARDED_BY(mu_);
};

}  // namespace spacetwist::net

#endif  // SPACETWIST_NET_FAULTY_TRANSPORT_H_
