#ifndef SPACETWIST_SERVING_INN_BACKEND_H_
#define SPACETWIST_SERVING_INN_BACKEND_H_

#include <cstdint>
#include <memory>

#include "geom/point.h"
#include "net/channel.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

/// The serving-backend contract, and nothing else. This interface layer
/// exists to keep the dependency graph a DAG (tools/layering.dag): both
/// src/server (the paged oracle and the LbsServer backend) and src/memidx
/// (the serving kernel) implement these interfaces, and src/server
/// additionally *owns* memidx streams for dispatch — so the interfaces
/// cannot live in either without an include cycle between them. src/server
/// re-exports everything here under spacetwist::server for its callers.
namespace spacetwist::serving {

/// Coverage tests (Algorithm 2, Line 9) for an entry spanning more than this
/// many grid cells conservatively report "not covered" (correct, possibly
/// more work). One constant because the paged oracle's server::CellFilter
/// and the kernel's memidx::MemCellFilter must apply the same cap, or their
/// node reads diverge.
inline constexpr int64_t kMaxCoverageCells = 4096;

/// Tuning knobs shared by every granular INN stream implementation
/// (ablation benchmarks flip them; defaults reproduce the paper).
struct GranularOptions {
  /// Enables the paper's lazy cell-eviction memory optimization
  /// (Algorithm 2, Line 8). Disabling it never changes the output, only the
  /// size of the tracked cell set V.
  bool lazy_eviction = true;
  /// Metric registry the stream publishes its server.granular.* counters to
  /// (null = the process-wide default).
  telemetry::MetricRegistry* registry = nullptr;
};

/// A server-side incremental NN point stream as the serving layer sees it:
/// the distance-ordered point source plus the trace/introspection hooks the
/// engine's sampled-pull path needs. memidx::FrontierInnStream is the
/// single-server implementation (over buffer-pool pages or the in-memory
/// arena), shard::ScatterGatherStream the fleet one, and
/// server::GranularInnStream the paged oracle both are checked against —
/// the engine cannot tell them apart, which is what keeps clients
/// bit-for-bit unaware of the deployment shape behind the wire protocol.
class InnSource : public net::PointSource {
 public:
  /// Attaches a distributed trace for the duration of the next Next() calls
  /// (null detaches). The trace is borrowed per request — callers must
  /// detach before the trace dies.
  virtual void set_trace(telemetry::Trace* trace) = 0;

  /// Work counters for the engine's "server.granular.scan" span notes:
  /// best-first heap pops (merge steps for a scatter-gather stream) and
  /// R-tree node reads (per-shard packet pulls for a scatter-gather
  /// stream).
  virtual uint64_t heap_pops() const = 0;
  virtual uint64_t node_reads() const = 0;
};

/// Factory for InnSource streams — the only thing service::ServiceEngine
/// requires of whatever is behind it. server::LbsServer implements it
/// directly (dispatching to paged or memidx); shard::ShardRouter implements
/// it by fanning out to a fleet of shard servers and merging their streams.
class InnBackend {
 public:
  virtual ~InnBackend() = default;

  /// Opens a granular INN stream around `anchor` (epsilon == 0 gives exact
  /// INN). Never fails: streams surface their errors lazily from Next().
  virtual std::unique_ptr<InnSource> OpenInnSource(
      const geom::Point& anchor, double epsilon, size_t k,
      const GranularOptions& options) = 0;
};

}  // namespace spacetwist::serving

#endif  // SPACETWIST_SERVING_INN_BACKEND_H_
