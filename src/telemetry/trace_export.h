#ifndef SPACETWIST_TELEMETRY_TRACE_EXPORT_H_
#define SPACETWIST_TELEMETRY_TRACE_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/trace.h"

namespace spacetwist::telemetry {

/// Identifier of the trace exporter's JSON layout; bumped on incompatible
/// changes. tools/validate_telemetry_json.py checks trace documents against
/// this schema (documented in docs/OBSERVABILITY.md).
inline constexpr std::string_view kTraceSchema = "spacetwist.trace.v2";

/// Emits `"displayTimeUnit"` and the Chrome-`trace_event` `"traceEvents"`
/// array for `traces` into an already-open object scope of `writer` — how
/// larger documents (BENCH_trace.json) embed the trace alongside their own
/// keys. Layout per docs/OBSERVABILITY.md:
///
///  * two `ph:"M"` process_name metadata events name pid 1 (client spans)
///    and pid 2 (server spans, names starting "server.");
///  * every span is a `ph:"X"` complete event (ts/dur in microseconds with
///    nanosecond precision, i.e. 3 decimals) on tid = its trace's 1-based
///    lane; instantaneous trace events are `ph:"i"` scope-"t" instants;
///  * `args` carries the span's notes plus the 64-bit trace id rendered as
///    a hex string (JSON doubles cannot hold it).
///
/// The rendering is deterministic: identical inputs yield identical bytes,
/// so VirtualClock reruns diff clean. The output loads in Perfetto and
/// chrome://tracing.
void WriteTraceEvents(const std::vector<TraceRecord>& traces,
                      JsonWriter* writer);

/// Renders `traces` as a complete schema-stamped trace document.
std::string TracesToJson(const std::vector<TraceRecord>& traces);

/// Formats a 64-bit trace id the way the exporter does ("0x" + 16 hex
/// digits) — shared with the trade-off record writer.
std::string FormatTraceId(uint64_t trace_id);

}  // namespace spacetwist::telemetry

#endif  // SPACETWIST_TELEMETRY_TRACE_EXPORT_H_
