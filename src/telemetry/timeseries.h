#ifndef SPACETWIST_TELEMETRY_TIMESERIES_H_
#define SPACETWIST_TELEMETRY_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/clock.h"
#include "telemetry/export.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

namespace spacetwist::telemetry {

/// One captured window [start_ns, end_ns): per-instrument deltas since the
/// previous window. Counters carry the in-window increment (the exporter
/// derives a per-second rate from it), gauges the value sampled at capture
/// time, histograms the in-window distribution (bucket-wise difference of
/// cumulative snapshots — windowed percentiles come from the delta
/// buckets, and min/max are bucket-resolution approximations: the first
/// and last non-empty delta bucket's bounds).
struct IntervalSample {
  uint64_t index = 0;  ///< global interval number; survives ring eviction
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  std::vector<std::pair<std::string, int64_t>> gauge_samples;
  std::vector<std::pair<std::string, HistogramSnapshot>> histogram_windows;
};

/// A collector's output: the surviving window ring plus enough metadata to
/// interpret it (fixed interval, series origin, evicted-window count).
struct TimeSeries {
  uint64_t interval_ns = 0;
  uint64_t start_ns = 0;
  uint64_t dropped_intervals = 0;  ///< evicted from the bounded ring
  std::vector<IntervalSample> intervals;
};

/// In-window distribution between two cumulative snapshots of the same
/// histogram: bucket-wise `now - prev` (monotone per bucket, so the
/// difference is exact), with min/max approximated from the first/last
/// non-empty delta bucket. Exposed for the property test.
HistogramSnapshot SubtractHistogramSnapshot(const HistogramSnapshot& now,
                                            const HistogramSnapshot& prev);

/// Windowed time-series capture over an injected Clock — the temporal
/// counterpart of the cumulative snapshot exporter (docs/OBSERVABILITY.md
/// §7). The collector owns no thread: a caller polls it, and every elapsed
/// fixed-interval deadline since construction closes one window holding
/// the per-instrument deltas accumulated meanwhile. It is also the
/// periodic statsz sampler: `ToStatsz(cumulative())` after a Poll() that
/// closed windows is the page for that capture (serve-bench
/// --statsz-interval). Windows
/// land in a bounded ring (oldest evicted, counted) with a global monotone
/// index, and the whole series renders as the byte-stable
/// `spacetwist.timeseries.v1` JSON document.
///
/// When several deadlines elapse between polls the registry is snapshotted
/// once and the pending delta is attributed to the *first* elapsed window
/// — under the poll-before-record discipline the deterministic drivers use
/// (the open-loop runner polls at every arrival before recording it), all
/// pending updates were in fact recorded inside that window, so windows
/// are exact, not approximate. Free-running drivers (the CLI's poller
/// thread) poll far more often than the interval, where the same rule is
/// an at-most-one-poll-period skew.
///
/// Deadlines are fixed multiples of the interval from construction time,
/// so under a VirtualClock the window timeline — and therefore the
/// exported JSON — is byte-identical across runs.
///
/// Not thread-safe: Poll()/Flush()/series() must come from one thread
/// (instruments themselves are atomics, so other threads may keep
/// recording concurrently).
class TimeSeriesCollector {
 public:
  struct Options {
    uint64_t interval_ns = 1000000000;  ///< window width (0 coerced to 1)
    size_t capacity = 512;              ///< ring bound (0 coerced to 1)
  };

  /// Null `clock` / `registry` resolve to the process-wide defaults. The
  /// baseline for the first window's deltas is the registry's state here.
  TimeSeriesCollector(Clock* clock, MetricRegistry* registry,
                      const Options& options);

  /// Adds a named auxiliary registry sampled on the same deadlines, its
  /// instruments prefixed `label.` — how a sharded deployment's per-shard
  /// registries join the main series. Call before the first Poll();
  /// `registry` must outlive the collector.
  void AddSection(std::string label, MetricRegistry* registry);

  /// Closes every window whose deadline has passed; returns how many.
  size_t Poll();

  /// Closes the in-progress window early (nominal deadline kept as its
  /// end) so the tail of a run is captured — call once when the run ends.
  /// Returns false when there was nothing to capture (no time elapsed and
  /// no pending updates since the last capture).
  bool Flush();

  const TimeSeries& series() const { return series_; }
  /// The combined snapshot (main registry plus sections) taken by the last
  /// capture; before any, the baseline.
  const RegistrySnapshot& cumulative() const { return previous_; }
  uint64_t interval_ns() const { return options_.interval_ns; }
  uint64_t start_ns() const { return series_.start_ns; }
  /// Index the next closed window will get.
  uint64_t next_index() const { return next_index_; }

 private:
  /// Snapshot of the main registry merged with every section (instrument
  /// names prefixed `label.`), sorted by name within each kind.
  RegistrySnapshot Combined() const;

  /// Closes windows up to `now`; `include_partial` also closes the
  /// in-progress one (Flush).
  size_t CaptureUpTo(uint64_t now, bool include_partial);

  /// Appends one window ending at `end_ns`. `cumulative` is the snapshot
  /// taken for this poll; only the first window of a poll (`carry_delta`)
  /// receives the pending deltas, later catch-up windows are zero.
  void Emit(uint64_t end_ns, const RegistrySnapshot& cumulative,
            bool carry_delta);

  Clock* clock_;
  MetricRegistry* registry_;
  Options options_;
  std::vector<std::pair<std::string, MetricRegistry*>> sections_;
  uint64_t window_start_ns_;
  uint64_t next_index_ = 0;
  RegistrySnapshot previous_;  ///< cumulative state at the last capture
  TimeSeries series_;
};

/// Identifier of the windowed-series JSON layout; checked by
/// tools/validate_telemetry_json.py and documented in
/// docs/OBSERVABILITY.md §7.
inline constexpr std::string_view kTimeSeriesSchema =
    "spacetwist.timeseries.v1";

}  // namespace spacetwist::telemetry

#endif  // SPACETWIST_TELEMETRY_TIMESERIES_H_
