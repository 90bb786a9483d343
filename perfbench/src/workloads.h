#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "telemetry/trace.h"

namespace perfbench {

/// One metric the benchmark can emit. `end_to_end` metrics are printed by
/// untraced runs, the others (per-layer) by traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  bool end_to_end;
};

/// Every metric, in print order; BENCHMARK.json lists the same names,
/// units and directions (the self-check compares them).
const std::vector<MetricSpec>& MetricCatalog();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small dataset and short phases, for the self-check.
  bool tiny = false;
  /// With `tiny`: run exactly this many queries per connection in the
  /// measured phase instead of a timed phase (closed loops only), so
  /// deterministic counts can be compared across runs.
  uint64_t fixed_queries = 0;
};

struct MetricValue {
  std::string name;
  double value = 0.0;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<MetricValue> metrics;
  /// Sampled per-query span lists of the traced phase.
  std::vector<spacetwist::telemetry::TraceRecord> traces;
  /// Workload parameters that fix the run (rates, sizes, seeds), as
  /// preformatted JSON members.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Empty when the run is valid; otherwise why its numbers must not be
  /// used (the generator fell behind its schedule).
  std::string invalid_reason;
};

/// Builds the workload's serving stack from `options.seed`, drives it, and
/// checks every completed answer against the direct-library reference.
/// A wrong answer is an error (the run is aborted), not a failed query.
spacetwist::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
