#!/usr/bin/env python3
"""Validator for the telemetry exporters' JSON layouts.

Checks every document passed on the command line:

* spacetwist.telemetry.v1 — a telemetry section (the document itself when
  it carries the schema marker, or the object under a top-level "telemetry"
  key, how the BENCH_*.json artifacts embed their end-of-run registry
  snapshot) must have string->int counter and gauge maps and well-formed
  histograms; every histogram-shaped object anywhere in the document
  (including the standalone distributions in BENCH_latency.json) must carry
  the required keys, [lo, hi, count) bucket triples in ascending order,
  bucket counts summing to `count`, and monotone p50 <= p95 <= p99;
* spacetwist.trace.v1 — a distributed-trace document (BENCH_trace.json,
  `spacetwist_cli serve-bench --trace`) must be a well-formed
  Chrome-trace_event export: a traceEvents array of ph:"X"/"M"/"i" events
  with name/ts/pid/tid, non-negative dur on complete events, process_name
  metadata, hex trace ids, plus an optional "tradeoffs" array carrying one
  fully-populated per-query trade-off record each (docs/OBSERVABILITY.md);
* spacetwist.shard.v1 — a shard scale-out artifact (BENCH_shard.json) must
  carry per-fleet-size results with digest_match == 1, mean fan-out within
  (and beyond one shard strictly below) the fleet size, and per-shard
  arrays sized to the declared shard count, alongside the usual embedded
  telemetry section; summed over fleet sizes, per_shard_pulls[i] must
  equal the embedded shard.<i>.pulls counter, and the grand total
  shard.router.shard_pulls;
* spacetwist.memidx.v1 — a serving-backend comparison (bench_memidx's
  BENCH_latency.json) must carry one result per backend including both
  "paged" and "memidx", each with a positive ns_per_query, digest_match
  == 1 (the differential contract), a latency histogram, and an embedded
  telemetry section; the reported point counts must agree across backends
  and the headline speedup must match the measured ns_per_query ratio;
  the build it was measured in must be recorded (a non-empty build_type
  and ndebug 0 or 1), since the ratio moves with the optimization level;
* spacetwist.openloop.v1 — an open-loop knee sweep (bench_openloop's
  BENCH_openloop.json) must carry knee points strictly monotone in offered
  load, each with a goodput, a latency histogram, a queue-delay histogram,
  SLO trip/escalation counts, and an embedded per-interval timeseries; a
  knee block whose p99 ratio matches the recorded endpoints and clears the
  5x saturation bar with positive goodput on both sides of the knee;
  digest_match == 1 (the event-driven serving path matched the library
  reference at low load); a quiet watchdog below the knee, at least one
  trip at the overload point, and a queue-delay p99 that rises across the
  overload point's own windows (the knee forming over time);
* fault_resilience — the fault bench (bench_fault_resilience's
  BENCH_fault.json, marked by "bench": "fault_resilience") must hold the
  expected shape its header states: goodput 1.0 on every row through a
  20% fault rate, duplicate rows free of retries and backoff (stale frames
  are drained, not resent), retries within 2x the faults injected, and no
  server session left open on a drop, dup or reorder row (mixed rows only
  need a count);
* spacetwist.timeseries.v1 — a windowed time-series export
  (TimeSeriesCollector via `serve-bench --timeseries`, or embedded in
  BENCH_openloop.json results) must carry contiguous per-interval windows
  on a fixed deadline grid — monotone global indices whose front equals
  dropped_intervals, abutting [start_ns, end_ns) spans, counter deltas
  whose rate_per_s matches the window width, integer gauges, and bucketless
  window histograms with monotone percentiles — plus an optional slo block
  whose trips reference declared objectives and exported windows and whose
  flight-recorder dumps are fully populated (docs/OBSERVABILITY.md §7).

Exit status 0 when every file validates, 1 otherwise (messages on stderr).
Runs under ctest (`validate_telemetry_json`) over the committed bench
artifacts and in the CI bench-smoke job over freshly generated ones;
tools/validate_telemetry_json_test.py exercises both branches against
negative fixtures.
"""

import json
import re
import sys

SCHEMA = "spacetwist.telemetry.v1"
TRACE_SCHEMA = "spacetwist.trace.v1"
SHARD_SCHEMA = "spacetwist.shard.v1"
MEMIDX_SCHEMA = "spacetwist.memidx.v1"
OPENLOOP_SCHEMA = "spacetwist.openloop.v1"
TIMESERIES_SCHEMA = "spacetwist.timeseries.v1"
HISTOGRAM_KEYS = {
    "count", "sum", "min", "max", "mean", "p50", "p95", "p99", "buckets",
}
# Windowed per-interval histogram deltas carry no buckets (the collector
# exports summary statistics of each window only).
WINDOW_HISTOGRAM_KEYS = HISTOGRAM_KEYS - {"buckets"}
SLO_SIGNAL_RE = re.compile(r"^(rate|p[1-9][0-9]?)$")
TRACE_ID_RE = re.compile(r"^0x[0-9a-f]{16}$")
# Every field eval::WriteTradeoffs emits, with the checker applied to it.
TRADEOFF_FIELDS = {
    "trace_id": "trace_id",
    "client": "uint",
    "query": "uint",
    "anchor_distance": "number",
    "tau": "number",
    "gamma": "number",
    "epsilon": "number",
    "achieved_error": "number",
    "error_evaluated": "flag",
    "reported_kth_distance": "number",
    "result_count": "uint",
    "packets": "uint",
    "points": "uint",
    "downlink_bytes": "uint",
    "uplink_bytes": "uint",
    "latency_ns": "uint",
    "fanout": "uint",
    "shard_pulls": "uint",
    "attempts": "uint",
    "retries": "uint",
    "reopens": "uint",
    "stale_replies": "uint",
    "backoff_ns": "uint",
}

_errors = []


def error(path, message):
    _errors.append(f"{path}: {message}")


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value):
    return is_int(value) or isinstance(value, float)


def validate_histogram(histogram, path):
    missing = HISTOGRAM_KEYS - histogram.keys()
    if missing:
        error(path, f"histogram missing keys {sorted(missing)}")
        return
    for key in ("count", "sum", "min", "max"):
        if not is_int(histogram[key]) or histogram[key] < 0:
            error(path, f"{key} must be a non-negative integer")
            return
    for key in ("mean", "p50", "p95", "p99"):
        if not is_number(histogram[key]):
            error(path, f"{key} must be a number")
            return
    if not histogram["p50"] <= histogram["p95"] <= histogram["p99"]:
        error(path, "percentiles not monotone: p50 <= p95 <= p99 required")
    buckets = histogram["buckets"]
    if not isinstance(buckets, list):
        error(path, "buckets must be a list")
        return
    total = 0
    previous_lo = -1
    for i, bucket in enumerate(buckets):
        if (not isinstance(bucket, list) or len(bucket) != 3
                or not all(is_int(v) and v >= 0 for v in bucket)):
            error(path, f"buckets[{i}] must be a [lo, hi, count] int triple")
            return
        lo, hi, count = bucket
        if lo >= hi:
            error(path, f"buckets[{i}]: lo {lo} >= hi {hi}")
        if lo <= previous_lo:
            error(path, f"buckets[{i}]: lower bounds not ascending")
        previous_lo = lo
        total += count
    if total != histogram["count"]:
        error(path,
              f"bucket counts sum to {total}, count says {histogram['count']}")
    if histogram["count"] > 0 and histogram["min"] > histogram["max"]:
        error(path, "min > max on a non-empty histogram")


def validate_section(section, path):
    """A full exporter snapshot: schema marker + three instrument maps."""
    if section.get("schema") != SCHEMA:
        error(path, f"schema is {section.get('schema')!r}, expected {SCHEMA!r}")
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(section.get(kind), dict):
            error(path, f"missing {kind} object")
            return
    for name, value in section["counters"].items():
        if not is_int(value) or value < 0:
            error(f"{path}.counters.{name}", "must be a non-negative integer")
    for name, value in section["gauges"].items():
        if not is_int(value):
            error(f"{path}.gauges.{name}", "must be an integer")
    for name, histogram in section["histograms"].items():
        if not isinstance(histogram, dict):
            error(f"{path}.histograms.{name}", "must be an object")
        else:
            validate_histogram(histogram, f"{path}.histograms.{name}")


def validate_trace_event(event, path):
    if not isinstance(event, dict):
        error(path, "trace event must be an object")
        return
    for key, checker in (("name", str), ("ph", str)):
        if not isinstance(event.get(key), checker):
            error(path, f"trace event needs a string {key}")
            return
    ph = event["ph"]
    if ph not in ("X", "M", "i"):
        error(path, f"unknown event phase {ph!r} (expected X, M, or i)")
        return
    if not is_number(event.get("ts")) or event["ts"] < 0:
        error(path, "ts must be a non-negative number")
    for key in ("pid", "tid"):
        if not is_int(event.get(key)) or event[key] < 0:
            error(path, f"{key} must be a non-negative integer")
    args = event.get("args")
    if args is not None and not isinstance(args, dict):
        error(path, "args must be an object")
        args = None
    if ph == "X":
        if not is_number(event.get("dur")) or event["dur"] < 0:
            error(path, "complete event needs a non-negative dur")
    elif ph == "i":
        if event.get("s") not in ("t", "p", "g"):
            error(path, "instant event needs scope s in {t, p, g}")
    elif ph == "M":
        if event["name"] != "process_name":
            error(path, f"unexpected metadata event {event['name']!r}")
        elif not args or not isinstance(args.get("name"), str):
            error(path, "process_name metadata needs args.name")
    if args and "trace_id" in args:
        trace_id = args["trace_id"]
        if not isinstance(trace_id, str) or not TRACE_ID_RE.match(trace_id):
            error(path, f"malformed trace_id {trace_id!r}")


def validate_tradeoff(record, path):
    if not isinstance(record, dict):
        error(path, "trade-off record must be an object")
        return
    for key, kind in TRADEOFF_FIELDS.items():
        if key not in record:
            error(path, f"trade-off record missing {key}")
            continue
        value = record[key]
        if kind == "trace_id":
            if not isinstance(value, str) or not TRACE_ID_RE.match(value):
                error(path, f"malformed trace_id {value!r}")
        elif kind == "uint":
            if not is_int(value) or value < 0:
                error(path, f"{key} must be a non-negative integer")
        elif kind == "flag":
            if value not in (0, 1):
                error(path, f"{key} must be 0 or 1")
        elif not is_number(value):
            error(path, f"{key} must be a number")


def validate_trace_document(document, path):
    """A spacetwist.trace.v1 export (docs/OBSERVABILITY.md trace schema)."""
    if document.get("displayTimeUnit") != "ns":
        error(path, "trace document needs displayTimeUnit \"ns\"")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        error(path, "trace document needs a traceEvents array")
        return
    for i, event in enumerate(events):
        validate_trace_event(event, f"{path}.traceEvents[{i}]")
    complete = sum(1 for e in events
                   if isinstance(e, dict) and e.get("ph") == "X")
    if events and complete == 0:
        error(path, "traceEvents has entries but no complete (ph:X) spans")
    tradeoffs = document.get("tradeoffs")
    if tradeoffs is not None:
        if not isinstance(tradeoffs, list):
            error(path, "tradeoffs must be an array")
            return
        for i, record in enumerate(tradeoffs):
            validate_tradeoff(record, f"{path}.tradeoffs[{i}]")


def validate_shard_document(document, path):
    """A spacetwist.shard.v1 export (bench_shard_scaling's BENCH_shard.json).

    Checks the scale-out claims the artifact exists to record: per-fleet-size
    results whose digests matched the single server, whose fan-out stays
    within (and, beyond one shard, strictly below) the fleet size, and whose
    per-shard arrays match the declared shard count. Every fleet of a run
    counts into the same router counters, so per_shard_pulls — each fleet's
    delta of shard.<i>.pulls — must sum over the fleets to the embedded
    counters. The embedded telemetry section itself is validated by the
    caller's walk.
    """
    results = document.get("results")
    if not isinstance(results, list) or not results:
        error(path, "shard document needs a non-empty results array")
        return
    for i, entry in enumerate(results):
        entry_path = f"{path}.results[{i}]"
        if not isinstance(entry, dict):
            error(entry_path, "result entry must be an object")
            continue
        shards = entry.get("shards")
        if not is_int(shards) or shards < 1:
            error(entry_path, "shards must be a positive integer")
            continue
        if not is_number(entry.get("qps")) or entry["qps"] < 0:
            error(entry_path, "qps must be a non-negative number")
        if entry.get("digest_match") != 1:
            error(entry_path, "digest_match must be 1 (byte-identity is the "
                  "router's contract)")
        mean_fanout = entry.get("mean_fanout")
        if not is_number(mean_fanout) or mean_fanout < 0:
            error(entry_path, "mean_fanout must be a non-negative number")
        elif mean_fanout > shards:
            error(entry_path,
                  f"mean_fanout {mean_fanout} exceeds fleet size {shards}")
        elif shards > 1 and mean_fanout >= shards:
            error(entry_path,
                  f"mean_fanout {mean_fanout} not strictly below fleet size "
                  f"{shards}: Hilbert pruning is not pruning")
        max_fanout = entry.get("max_fanout")
        if not is_int(max_fanout) or max_fanout < 0 or max_fanout > shards:
            error(entry_path, f"max_fanout must be an integer in [0, {shards}]")
        for key in ("per_shard_pulls", "shard_points"):
            values = entry.get(key)
            if (not isinstance(values, list)
                    or len(values) != shards
                    or not all(is_int(v) and v >= 0 for v in values)):
                error(entry_path,
                      f"{key} must be a list of {shards} non-negative ints")
    validate_shard_pull_totals(document, results, path)


def validate_shard_pull_totals(document, results, path):
    """per_shard_pulls summed over fleet sizes against the router counters
    the run embedded (skipped when an array or the snapshot is malformed:
    those are reported elsewhere)."""
    sums = []
    for entry in results:
        pulls = (entry.get("per_shard_pulls") if isinstance(entry, dict)
                 else None)
        if not isinstance(pulls, list) or not all(is_int(v) for v in pulls):
            return
        for i, value in enumerate(pulls):
            if i == len(sums):
                sums.append(0)
            sums[i] += value
    telemetry = document.get("telemetry")
    counters = (telemetry.get("counters") if isinstance(telemetry, dict)
                else None)
    if not isinstance(counters, dict):
        return
    for i, total in enumerate(sums):
        name = f"shard.{i}.pulls"
        if counters.get(name) != total:
            error(path, f"per_shard_pulls[{i}] sums to {total} over the "
                  f"fleets, but the embedded {name} counter is "
                  f"{counters.get(name)}")
    total = sum(sums)
    if counters.get("shard.router.shard_pulls") != total:
        error(path, f"per_shard_pulls total {total} differs from the "
              f"embedded shard.router.shard_pulls counter "
              f"{counters.get('shard.router.shard_pulls')}")


def validate_memidx_document(document, path):
    """A spacetwist.memidx.v1 export (bench_memidx's BENCH_latency.json).

    Checks the serving-backend comparison claims: both backends present,
    byte-identical streams (digest_match, equal point counts), positive
    per-query costs, a headline speedup that matches the measured ratio,
    and the build the ratio was measured in. Latency histograms and the
    embedded telemetry sections are validated by the caller's walk.
    """
    build_type = document.get("build_type")
    if not isinstance(build_type, str) or not build_type:
        error(path, "build_type must be a non-empty string (the CMake build "
              "the speedup was measured in)")
    if document.get("ndebug") not in (0, 1) or isinstance(
            document.get("ndebug"), bool):
        error(path, "ndebug must be 0 or 1")
    results = document.get("results")
    if not isinstance(results, list) or not results:
        error(path, "memidx document needs a non-empty results array")
        return
    by_backend = {}
    points_seen = set()
    for i, entry in enumerate(results):
        entry_path = f"{path}.results[{i}]"
        if not isinstance(entry, dict):
            error(entry_path, "result entry must be an object")
            continue
        backend = entry.get("backend")
        if not isinstance(backend, str) or not backend:
            error(entry_path, "backend must be a non-empty string")
            continue
        by_backend[backend] = entry
        if not is_number(entry.get("ns_per_query")) \
                or entry["ns_per_query"] <= 0:
            error(entry_path, "ns_per_query must be a positive number")
        if entry.get("digest_match") != 1:
            error(entry_path, "digest_match must be 1 (byte-identity is the "
                  "differential contract)")
        if not is_int(entry.get("points")) or entry["points"] < 0:
            error(entry_path, "points must be a non-negative integer")
        else:
            points_seen.add(entry["points"])
        for key in ("latency_ns", "telemetry"):
            if not isinstance(entry.get(key), dict):
                error(entry_path, f"missing {key} object")
    for backend in ("paged", "memidx"):
        if backend not in by_backend:
            error(path, f"results must include the {backend!r} backend")
    if len(points_seen) > 1:
        error(path, f"point counts differ across backends {sorted(points_seen)}"
              ": byte-identical streams must report the same points")
    speedup = document.get("speedup")
    if not is_number(speedup) or speedup <= 0:
        error(path, "speedup must be a positive number")
    elif {"paged", "memidx"} <= by_backend.keys():
        paged = by_backend["paged"].get("ns_per_query")
        mem = by_backend["memidx"].get("ns_per_query")
        if is_number(paged) and is_number(mem) and mem > 0:
            ratio = paged / mem
            # The artifact rounds the headline to one decimal place.
            if abs(speedup - ratio) > 0.05 + 1e-9:
                error(path, f"speedup {speedup} does not match measured "
                      f"ns_per_query ratio {ratio:.3f}")


FAULT_BENCH = "fault_resilience"
# Rates up to this must keep every query: the retry budget absorbs them.
FAULT_FULL_GOODPUT_RATE = 0.20
# A disconnect fails its own round trip and the re-open's; every other
# fault costs at most one charged retry.
FAULT_RETRIES_PER_FAULT = 2
# Rows whose faults never need a mid-stream re-open: a retried or
# duplicated Open gets the session it already opened, so every session is
# closed by its query. Mixed rows add disconnects, and the close of a
# session a disconnect abandoned is best effort.
FAULT_NO_STRANDED_ROWS = ("drop", "dup", "reorder")


def validate_fault_document(document, path):
    """A fault_resilience export (bench_fault_resilience's BENCH_fault.json).

    Gates the claims of the bench header on every row: full goodput through
    a 20% fault rate, no retries or backoff for duplicates, a retry cost
    bounded by the faults actually injected, and no session left open on a
    drop, dup or reorder row. The embedded telemetry section is validated
    by the caller's walk.
    """
    results = document.get("results")
    if not isinstance(results, list) or not results:
        error(path, "fault document needs a non-empty results array")
        return
    for i, entry in enumerate(results):
        entry_path = f"{path}.results[{i}]"
        if not isinstance(entry, dict):
            error(entry_path, "result entry must be an object")
            continue
        if not isinstance(entry.get("fault"), str) or not entry["fault"]:
            error(entry_path, "fault must be a non-empty string")
            continue
        rate = entry.get("rate")
        if not is_number(rate) or not 0.0 <= rate <= 1.0:
            error(entry_path, "rate must be a number in [0, 1]")
            continue
        for key in ("faults_injected", "round_trips", "retries", "reopens",
                    "stale_replies", "sessions_left_open"):
            if not is_int(entry.get(key)) or entry[key] < 0:
                error(entry_path, f"{key} must be a non-negative integer")
        for key in ("goodput", "backoff_ms"):
            if not is_number(entry.get(key)) or entry[key] < 0:
                error(entry_path, f"{key} must be a non-negative number")
        fault = entry["fault"]
        goodput = entry.get("goodput")
        if (rate <= FAULT_FULL_GOODPUT_RATE + 1e-9 and is_number(goodput)
                and goodput != 1.0):
            error(entry_path, f"{fault} at rate {rate}: goodput {goodput} "
                  "below 1.0 (every query must survive rates up to "
                  f"{FAULT_FULL_GOODPUT_RATE})")
        retries = entry.get("retries")
        if fault == "dup":
            if is_int(retries) and retries != 0:
                error(entry_path, f"dup at rate {rate}: {retries} retries "
                      "(duplicates must be drained as stale frames, not "
                      "resent)")
            if is_number(entry.get("backoff_ms")) and entry["backoff_ms"] != 0:
                error(entry_path, f"dup at rate {rate}: backoff_ms "
                      f"{entry['backoff_ms']} (duplicates must cost no "
                      "backoff)")
        injected = entry.get("faults_injected")
        if (is_int(retries) and is_int(injected)
                and retries > FAULT_RETRIES_PER_FAULT * injected):
            error(entry_path, f"{fault} at rate {rate}: {retries} retries "
                  f"exceed {FAULT_RETRIES_PER_FAULT}x the {injected} faults "
                  "injected")
        left_open = entry.get("sessions_left_open")
        if fault in FAULT_NO_STRANDED_ROWS and is_int(left_open) and left_open:
            error(entry_path, f"{fault} at rate {rate}: {left_open} server "
                  "sessions left open (a retried or duplicated Open must get "
                  "the session it already opened)")


def validate_window_histogram(window, path):
    """A per-interval histogram delta: summary stats only, no buckets."""
    missing = WINDOW_HISTOGRAM_KEYS - window.keys()
    if missing:
        error(path, f"window histogram missing keys {sorted(missing)}")
        return
    if "buckets" in window:
        error(path, "window histograms carry deltas only, not buckets")
    for key in ("count", "sum", "min", "max"):
        if not is_int(window[key]) or window[key] < 0:
            error(path, f"{key} must be a non-negative integer")
            return
    for key in ("mean", "p50", "p95", "p99"):
        if not is_number(window[key]):
            error(path, f"{key} must be a number")
            return
    if not window["p50"] <= window["p95"] <= window["p99"]:
        error(path, "percentiles not monotone: p50 <= p95 <= p99 required")
    # Percentiles are bucket-interpolated and may exceed max; the mean is
    # exact and must not.
    if window["count"] > 0 and not window["min"] <= window["mean"] <= window["max"]:
        error(path, "mean outside [min, max] on a non-empty window")


def validate_interval(sample, path, previous):
    """One timeseries window; returns (index, end_ns) for contiguity."""
    for key in ("index", "start_ns", "end_ns"):
        if not is_int(sample.get(key)) or sample[key] < 0:
            error(path, f"{key} must be a non-negative integer")
            return None
    if sample["start_ns"] >= sample["end_ns"]:
        error(path, f"window start {sample['start_ns']} not before end "
              f"{sample['end_ns']}")
    if previous is not None:
        previous_index, previous_end = previous
        if sample["index"] != previous_index + 1:
            error(path, f"index {sample['index']} not contiguous after "
                  f"{previous_index}")
        if sample["start_ns"] != previous_end:
            error(path, f"window start {sample['start_ns']} does not abut "
                  f"the previous window's end {previous_end}: intervals "
                  "must be contiguous on the deadline grid")
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(sample.get(kind), dict):
            error(path, f"missing {kind} object")
            return (sample["index"], sample["end_ns"])
    seconds = (sample["end_ns"] - sample["start_ns"]) / 1e9
    for name, entry in sample["counters"].items():
        entry_path = f"{path}.counters.{name}"
        if (not isinstance(entry, dict)
                or not is_int(entry.get("delta")) or entry["delta"] < 0
                or not is_number(entry.get("rate_per_s"))):
            error(entry_path, "must be an object with a non-negative int "
                  "delta and a numeric rate_per_s")
            continue
        expected = entry["delta"] / seconds if seconds > 0 else 0.0
        # The exporter rounds rates to three decimal places.
        if abs(entry["rate_per_s"] - expected) > 0.002 + 1e-9 * expected:
            error(entry_path, f"rate_per_s {entry['rate_per_s']} does not "
                  f"match delta {entry['delta']} over a {seconds:.6f} s "
                  f"window (expected {expected:.3f})")
    for name, value in sample["gauges"].items():
        if not is_int(value):
            error(f"{path}.gauges.{name}", "must be an integer")
    for name, window in sample["histograms"].items():
        if not isinstance(window, dict):
            error(f"{path}.histograms.{name}", "must be an object")
        else:
            validate_window_histogram(window, f"{path}.histograms.{name}")
    return (sample["index"], sample["end_ns"])


def validate_timeseries_document(document, path):
    """A spacetwist.timeseries.v1 export (docs/OBSERVABILITY.md §7).

    Standalone (`serve-bench --timeseries`) or embedded per knee point in
    BENCH_openloop.json. Checks the windowed-collector contract: contiguous
    deadline-grid windows with a monotone global index surviving ring
    eviction, counter deltas consistent with their rates, bucketless window
    histograms, and an slo block whose trips reference declared objectives
    and exported windows.
    """
    if not is_int(document.get("interval_ns")) or document["interval_ns"] <= 0:
        error(path, "interval_ns must be a positive integer")
    if not is_int(document.get("start_ns")) or document["start_ns"] < 0:
        error(path, "start_ns must be a non-negative integer")
    dropped = document.get("dropped_intervals")
    if not is_int(dropped) or dropped < 0:
        error(path, "dropped_intervals must be a non-negative integer")
        dropped = None
    intervals = document.get("intervals")
    if not isinstance(intervals, list) or not intervals:
        error(path, "timeseries document needs a non-empty intervals array")
        return
    previous = None
    for i, sample in enumerate(intervals):
        sample_path = f"{path}.intervals[{i}]"
        if not isinstance(sample, dict):
            error(sample_path, "interval must be an object")
            continue
        previous = validate_interval(sample, sample_path, previous) or previous
    front = intervals[0]
    if (dropped is not None and isinstance(front, dict)
            and is_int(front.get("index")) and front["index"] != dropped):
        error(path, f"front index {front['index']} does not equal "
              f"dropped_intervals {dropped}: the global window index must "
              "survive ring eviction")
    slo = document.get("slo")
    if slo is None:
        return
    if not isinstance(slo, dict):
        error(path, "slo must be an object")
        return
    objective_names = set()
    objectives = slo.get("objectives")
    if not isinstance(objectives, list):
        error(f"{path}.slo", "objectives must be an array")
    else:
        for i, objective in enumerate(objectives):
            objective_path = f"{path}.slo.objectives[{i}]"
            if not isinstance(objective, dict):
                error(objective_path, "objective must be an object")
                continue
            name = objective.get("name")
            if not isinstance(name, str) or not name:
                error(objective_path, "objective needs a non-empty name")
            else:
                objective_names.add(name)
            instrument = objective.get("instrument")
            if not isinstance(instrument, str) or not instrument:
                error(objective_path, "objective needs an instrument name")
            signal = objective.get("signal")
            if not isinstance(signal, str) or not SLO_SIGNAL_RE.match(signal):
                error(objective_path,
                      f"signal {signal!r} must be pNN (0 < NN < 100) or rate")
            if not is_number(objective.get("limit")) or objective["limit"] < 0:
                error(objective_path, "limit must be a non-negative number")
            fast = objective.get("fast_windows")
            slow = objective.get("slow_windows")
            if not is_int(fast) or fast < 1:
                error(objective_path, "fast_windows must be a positive "
                      "integer")
            if not is_int(slow) or (is_int(fast) and slow < fast):
                error(objective_path, "slow_windows must be an integer >= "
                      "fast_windows")
            fraction = objective.get("slow_burn_fraction")
            if not is_number(fraction) or not 0.0 < fraction <= 1.0:
                error(objective_path, "slow_burn_fraction must be in (0, 1]")
    trips = slo.get("trips")
    if not isinstance(trips, list):
        error(f"{path}.slo", "trips must be an array")
        return
    last_index = None
    if isinstance(intervals[-1], dict) and is_int(intervals[-1].get("index")):
        last_index = intervals[-1]["index"]
    for i, trip in enumerate(trips):
        trip_path = f"{path}.slo.trips[{i}]"
        if not isinstance(trip, dict):
            error(trip_path, "trip must be an object")
            continue
        objective = trip.get("objective")
        if not isinstance(objective, str) or objective not in objective_names:
            error(trip_path, f"trip references unknown objective "
                  f"{objective!r}")
        index = trip.get("interval_index")
        if not is_int(index) or index < 0:
            error(trip_path, "interval_index must be a non-negative integer")
        elif last_index is not None and index > last_index:
            error(trip_path, f"interval_index {index} is beyond the last "
                  f"exported window {last_index}")
        if not is_number(trip.get("observed")) or trip["observed"] < 0:
            error(trip_path, "observed must be a non-negative number")
        if not is_number(trip.get("limit")):
            error(trip_path, "limit must be a number")
        flight = trip.get("flight")
        if not isinstance(flight, list):
            error(trip_path, "flight must be an array")
            continue
        for j, record in enumerate(flight):
            record_path = f"{trip_path}.flight[{j}]"
            if not isinstance(record, dict):
                error(record_path, "flight record must be an object")
                continue
            for key in ("trace_id", "latency_ns", "packets"):
                if not is_int(record.get(key)) or record[key] < 0:
                    error(record_path,
                          f"{key} must be a non-negative integer")
            for key in ("tau", "gamma", "anchor_distance"):
                if not is_number(record.get(key)):
                    error(record_path, f"{key} must be a number")


def validate_openloop_document(document, path):
    """A spacetwist.openloop.v1 export (bench_openloop's BENCH_openloop.json).

    Checks the saturation-knee claims the artifact exists to record: results
    strictly monotone in offered load with per-point goodput, latency, and
    queue-delay distributions, a knee whose p99 blow-up clears the 5x bar
    and matches the recorded endpoints, goodput on both sides of the knee,
    and the low-load digest match against the library reference. Histogram
    shapes and the embedded telemetry section are validated by the caller's
    walk.
    """
    if document.get("digest_match") != 1:
        error(path, "digest_match must be 1 (the event-driven path must "
              "match the library reference at low load)")
    results = document.get("results")
    if not isinstance(results, list) or not results:
        error(path, "openloop document needs a non-empty results array")
        return
    previous_offered = None
    for i, entry in enumerate(results):
        entry_path = f"{path}.results[{i}]"
        if not isinstance(entry, dict):
            error(entry_path, "result entry must be an object")
            continue
        offered = entry.get("offered_qps")
        if not is_number(offered) or offered <= 0:
            error(entry_path, "offered_qps must be a positive number")
            continue
        if previous_offered is not None and offered <= previous_offered:
            error(entry_path,
                  f"offered_qps {offered} not strictly above the previous "
                  f"point's {previous_offered}: knee points must be "
                  "monotone in offered load")
        previous_offered = offered
        goodput = entry.get("goodput_qps")
        if not is_number(goodput) or goodput <= 0:
            error(entry_path, "goodput_qps must be a positive number")
        for key in ("arrivals", "completed", "rejected"):
            if not is_int(entry.get(key)) or entry[key] < 0:
                error(entry_path, f"{key} must be a non-negative integer")
        p50 = entry.get("p50_ms")
        p99 = entry.get("p99_ms")
        if not is_number(p50) or not is_number(p99):
            error(entry_path, "p50_ms and p99_ms must be numbers")
        elif p50 > p99:
            error(entry_path, f"p50_ms {p50} > p99_ms {p99}")
        for key in ("latency_ns", "queue_delay_ns"):
            if not isinstance(entry.get(key), dict):
                error(entry_path, f"missing {key} histogram")
        for key in ("slo_trips", "escalated"):
            if not is_int(entry.get(key)) or entry[key] < 0:
                error(entry_path, f"{key} must be a non-negative integer")
        series = entry.get("timeseries")
        if (not isinstance(series, dict)
                or series.get("schema") != TIMESERIES_SCHEMA):
            error(entry_path, "missing embedded spacetwist.timeseries.v1 "
                  "series (each knee point carries its per-interval windows)")
        elif is_int(entry.get("slo_trips")):
            slo = series.get("slo")
            trips = slo.get("trips") if isinstance(slo, dict) else None
            if isinstance(trips, list) and len(trips) != entry["slo_trips"]:
                error(entry_path, f"slo_trips {entry['slo_trips']} does not "
                      f"match the {len(trips)} trips in the embedded series")

    # The watchdog must separate the knee: quiet on the lowest offered
    # load, tripping (with the knee visible inside the point's own
    # windows) at the highest.
    first, last = results[0], results[-1]
    if (isinstance(first, dict) and is_int(first.get("slo_trips"))
            and first["slo_trips"] != 0):
        error(f"{path}.results[0]", "the below-knee point tripped the SLO "
              "watchdog: the objective's limit does not separate the knee")
    if isinstance(last, dict):
        last_path = f"{path}.results[{len(results) - 1}]"
        if is_int(last.get("slo_trips")) and last["slo_trips"] < 1:
            error(last_path, "the overload point recorded no SLO trips: "
                  "the watchdog never fired across the knee")
        series = last.get("timeseries")
        if isinstance(series, dict) and isinstance(series.get("intervals"),
                                                   list):
            p99s = []
            for window in series["intervals"]:
                if not isinstance(window, dict):
                    continue
                histograms = window.get("histograms")
                if not isinstance(histograms, dict):
                    continue
                delay = histograms.get("eval.arrival.queue_delay_ns")
                if (isinstance(delay, dict) and is_int(delay.get("count"))
                        and delay["count"] > 0
                        and is_number(delay.get("p99"))):
                    p99s.append(delay["p99"])
            if len(p99s) < 2:
                error(last_path, "overload series needs at least two "
                      "measured eval.arrival.queue_delay_ns windows")
            elif p99s[-1] <= p99s[0]:
                error(last_path, "queue-delay p99 did not rise across the "
                      f"overload point's series ({p99s[0]} -> {p99s[-1]}): "
                      "the knee never formed inside the point's windows")
    knee = document.get("knee")
    if not isinstance(knee, dict):
        error(path, "openloop document needs a knee object")
        return
    for key in ("offered_low_qps", "offered_high_qps", "p99_low_ms",
                "p99_high_ms", "goodput_low_qps", "goodput_high_qps",
                "ratio"):
        if not is_number(knee.get(key)) or knee[key] <= 0:
            error(f"{path}.knee", f"{key} must be a positive number")
            return
    if knee["offered_low_qps"] >= knee["offered_high_qps"]:
        error(f"{path}.knee", "offered_low_qps must be below "
              "offered_high_qps")
    ratio = knee["p99_high_ms"] / knee["p99_low_ms"]
    if abs(knee["ratio"] - ratio) > max(0.05 * ratio, 1e-6):
        error(f"{path}.knee", f"ratio {knee['ratio']} does not match the "
              f"recorded p99 endpoints ({ratio:.3f})")
    if knee["ratio"] < 5.0:
        error(f"{path}.knee", f"p99 ratio {knee['ratio']} below the 5x "
              "saturation bar: the sweep never crossed the knee")


def looks_like_section(node):
    return isinstance(node, dict) and {"schema", "counters", "gauges",
                                       "histograms"} <= node.keys()


def looks_like_histogram(node):
    return isinstance(node, dict) and HISTOGRAM_KEYS <= node.keys()


def walk(node, path, found):
    """Finds and validates every telemetry section and histogram."""
    if (isinstance(node, dict)
            and node.get("schema") == TIMESERIES_SCHEMA):
        # Standalone `serve-bench --timeseries` export or a series embedded
        # in a knee point. Window histograms carry no buckets, so the
        # generic histogram walk would skip them silently.
        validate_timeseries_document(node, path)
        found.append(path)
        return
    if looks_like_section(node):
        validate_section(node, path)
        found.append(path)
        return  # histograms inside were validated by the section
    if looks_like_histogram(node):
        validate_histogram(node, path)
        found.append(path)
        return
    if isinstance(node, dict):
        for key, value in node.items():
            walk(value, f"{path}.{key}", found)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk(value, f"{path}[{i}]", found)


def validate_file(filename):
    try:
        with open(filename, encoding="utf-8") as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        error(filename, f"unreadable: {exc}")
        return
    if (isinstance(document, dict)
            and document.get("schema") == TRACE_SCHEMA):
        validate_trace_document(document, filename)
        return
    if (isinstance(document, dict)
            and document.get("schema") == SHARD_SCHEMA):
        # Shard documents also embed an end-of-run telemetry snapshot, so
        # fall through to the generic walk after the schema checks.
        validate_shard_document(document, filename)
    if (isinstance(document, dict)
            and document.get("schema") == MEMIDX_SCHEMA):
        # Likewise: per-backend latency histograms and telemetry snapshots
        # are picked up by the walk below.
        validate_memidx_document(document, filename)
    if (isinstance(document, dict)
            and document.get("schema") == OPENLOOP_SCHEMA):
        # Likewise: per-point latency / queue-delay histograms and the
        # embedded telemetry snapshot are picked up by the walk below.
        validate_openloop_document(document, filename)
    if isinstance(document, dict) and document.get("bench") == FAULT_BENCH:
        # Likewise: the embedded telemetry snapshot is picked up below.
        validate_fault_document(document, filename)
    found = []
    walk(document, filename, found)
    # A telemetry artifact with nothing telemetry-shaped in it is a schema
    # drift, not a pass.
    if not found:
        error(filename, "no telemetry section or histogram found")
    # Documents that declare the schema at top level must validate as (or
    # contain) telemetry content — already covered by `found`.


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} <file.json>...", file=sys.stderr)
        return 2
    for filename in argv[1:]:
        before = len(_errors)
        validate_file(filename)
        if len(_errors) == before:
            print(f"ok: {filename}")
    if _errors:
        for message in _errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
