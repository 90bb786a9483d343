#!/usr/bin/env python3
"""Self-test for tools/validate_telemetry_json.py.

Feeds the validator hand-built fixtures — well-formed telemetry and trace
documents that must pass, and one broken variant per rule that must fail
with a message naming the defect — so a rotted validator (one that started
accepting everything, or rejecting valid exports) fails ctest like any
other test. Runs under ctest as `validate_telemetry_json_selftest`.
"""

import copy
import importlib.util
import json
import os
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "validate_telemetry_json",
    os.path.join(_HERE, "validate_telemetry_json.py"))
validator = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(validator)

GOOD_TELEMETRY = {
    "schema": "spacetwist.telemetry.v1",
    "counters": {"net.packets": 24},
    "gauges": {"service.engine.sessions": 0},
    "histograms": {
        "eval.load.latency_ns": {
            "count": 2, "sum": 30, "min": 10, "max": 20, "mean": 15.0,
            "p50": 10.0, "p95": 20.0, "p99": 20.0,
            "buckets": [[8, 16, 1], [16, 32, 1]],
        },
    },
}

GOOD_TRACE = {
    "schema": "spacetwist.trace.v1",
    "displayTimeUnit": "ns",
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
         "args": {"name": "spacetwist client"}},
        {"name": "process_name", "ph": "M", "pid": 2, "tid": 0, "ts": 0,
         "args": {"name": "spacetwist server"}},
        {"name": "wire.pull", "cat": "client", "ph": "X", "ts": 1.0,
         "dur": 5.0, "pid": 1, "tid": 1,
         "args": {"trace_id": "0x0123456789abcdef", "depth": 0, "seq": 0}},
        {"name": "server.granular.scan", "cat": "server", "ph": "X",
         "ts": 2.0, "dur": 3.0, "pid": 2, "tid": 1,
         "args": {"trace_id": "0x0123456789abcdef", "depth": 2,
                  "heap_pops": 4}},
        {"name": "server.replay", "ph": "i", "s": "t", "ts": 4.0, "pid": 2,
         "tid": 1, "args": {"trace_id": "0x0123456789abcdef", "value": 1}},
    ],
    "tradeoffs": [{
        "trace_id": "0x0123456789abcdef", "client": 0, "query": 0,
        "anchor_distance": 200.0, "tau": 350.5, "gamma": 140.25,
        "epsilon": 200.0, "achieved_error": 0.0, "error_evaluated": 1,
        "reported_kth_distance": 120.5, "result_count": 1, "packets": 1,
        "points": 60, "downlink_bytes": 520, "uplink_bytes": 120,
        "latency_ns": 5000, "fanout": 2, "shard_pulls": 3, "attempts": 1,
        "retries": 0, "reopens": 0, "stale_replies": 0, "backoff_ns": 0,
    }],
}

GOOD_SHARD = {
    "bench": "shard_scaling",
    "schema": "spacetwist.shard.v1",
    "clients": 256,
    "queries_per_client": 32,
    "results": [
        {"shards": 1, "qps": 8000.0, "p99_ms": 1.5, "mean_fanout": 1.0,
         "max_fanout": 1, "digest_match": 1, "per_shard_pulls": [5047],
         "shard_points": [500000]},
        {"shards": 4, "qps": 4000.0, "p99_ms": 2.0, "mean_fanout": 1.34,
         "max_fanout": 4, "digest_match": 1,
         "per_shard_pulls": [1300, 1200, 1400, 1381],
         "shard_points": [125000, 125000, 125000, 125000]},
    ],
    # Both fleets count into one registry: shard.0.pulls = 5047 + 1300.
    "telemetry": dict(copy.deepcopy(GOOD_TELEMETRY), counters={
        "net.packets": 24, "shard.0.pulls": 6347, "shard.1.pulls": 1200,
        "shard.2.pulls": 1400, "shard.3.pulls": 1381,
        "shard.router.shard_pulls": 10328}),
}

GOOD_MEMIDX = {
    "bench": "memidx_serving",
    "schema": "spacetwist.memidx.v1",
    "dataset_points": 500000,
    "queries": 400,
    "beta": 67,
    "pulls_per_query": 4,
    "build_type": "RelWithDebInfo",
    "ndebug": 1,
    "results": [
        {"backend": "paged", "ns_per_query": 2600000.0, "points": 107200,
         "digest_match": 1,
         "latency_ns": copy.deepcopy(
             GOOD_TELEMETRY["histograms"]["eval.load.latency_ns"]),
         "telemetry": copy.deepcopy(GOOD_TELEMETRY)},
        {"backend": "memidx", "ns_per_query": 500000.0, "points": 107200,
         "digest_match": 1,
         "latency_ns": copy.deepcopy(
             GOOD_TELEMETRY["histograms"]["eval.load.latency_ns"]),
         "telemetry": copy.deepcopy(GOOD_TELEMETRY)},
    ],
    "speedup": 5.2,
}

GOOD_FAULT = {
    "bench": "fault_resilience",
    "clients": 64,
    "queries_per_client": 8,
    "results": [
        {"fault": "drop", "rate": 0.0, "goodput": 1.0, "faults_injected": 0,
         "round_trips": 3047, "retries": 0, "reopens": 0,
         "stale_replies": 0, "backoff_ms": 0.0, "sessions_left_open": 0},
        {"fault": "dup", "rate": 0.2, "goodput": 1.0,
         "faults_injected": 1204, "round_trips": 3047, "retries": 0,
         "reopens": 0, "stale_replies": 1167, "backoff_ms": 0.0,
         "sessions_left_open": 0},
        {"fault": "mixed", "rate": 0.2, "goodput": 1.0,
         "faults_injected": 6121, "round_trips": 8292, "retries": 4468,
         "reopens": 224, "stale_replies": 1434, "backoff_ms": 47858.4,
         "sessions_left_open": 36},
        {"fault": "mixed", "rate": 0.5, "goodput": 0.61,
         "faults_injected": 9000, "round_trips": 12000, "retries": 9500,
         "reopens": 400, "stale_replies": 2000, "backoff_ms": 90000.0,
         "sessions_left_open": 80},
    ],
    "telemetry": copy.deepcopy(GOOD_TELEMETRY),
}

_HIST = GOOD_TELEMETRY["histograms"]["eval.load.latency_ns"]

_SECOND = 1000000000


def _queue_window(p99):
    """A well-formed bucketless window histogram peaking at `p99` ns."""
    lo = max(int(p99) // 4, 1)
    return {"count": 50, "sum": 50 * lo, "min": lo, "max": int(p99) + 1,
            "mean": float(lo), "p50": float(lo), "p95": float(p99),
            "p99": float(p99)}


def _embedded_series(p99s, trips):
    """A spacetwist.timeseries.v1 series: one window per entry of `p99s`,
    one trip per (interval_index, observed) pair in `trips`."""
    return {
        "schema": "spacetwist.timeseries.v1",
        "interval_ns": _SECOND,
        "start_ns": 0,
        "dropped_intervals": 0,
        "intervals": [
            {"index": i, "start_ns": i * _SECOND,
             "end_ns": (i + 1) * _SECOND,
             "counters": {"eval.arrival.completed":
                          {"delta": 50, "rate_per_s": 50.0}},
             "gauges": {"service.engine.sessions": 8},
             "histograms": {"eval.arrival.queue_delay_ns": _queue_window(p)}}
            for i, p in enumerate(p99s)],
        "slo": {
            "objectives": [{"name": "queue-delay-p99",
                            "instrument": "eval.arrival.queue_delay_ns",
                            "signal": "p99", "limit": 2000000.0,
                            "fast_windows": 2, "slow_windows": 8,
                            "slow_burn_fraction": 0.5}],
            "trips": [{"objective": "queue-delay-p99",
                       "interval_index": index, "observed": observed,
                       "limit": 2000000.0,
                       "flight": [{"trace_id": 4242, "latency_ns": 5452256,
                                   "packets": 3, "tau": 511.7,
                                   "gamma": 71.5,
                                   "anchor_distance": 399.9}]}
                      for index, observed in trips],
        },
    }


GOOD_TIMESERIES = _embedded_series(
    [50000.0, 300000.0, 8000000.0], [(2, 8000000.0)])

GOOD_OPENLOOP = {
    "schema": "spacetwist.openloop.v1",
    "bench": "openloop",
    "worker_threads": 4,
    "users": 64,
    "arrivals_per_point": 1500,
    "capacity_qps": 12000.0,
    "digest_match": 1,
    "results": [
        {"offered_qps": 3000.0, "goodput_qps": 3010.0, "arrivals": 1500,
         "completed": 1500, "rejected": 0, "p50_ms": 0.3, "p99_ms": 0.4,
         "latency_ns": copy.deepcopy(_HIST),
         "queue_delay_ns": copy.deepcopy(_HIST),
         "slo_trips": 0, "escalated": 0,
         "timeseries": _embedded_series([50000.0, 60000.0], [])},
        {"offered_qps": 12000.0, "goodput_qps": 11800.0, "arrivals": 1500,
         "completed": 1500, "rejected": 0, "p50_ms": 1.4, "p99_ms": 3.4,
         "latency_ns": copy.deepcopy(_HIST),
         "queue_delay_ns": copy.deepcopy(_HIST),
         "slo_trips": 0, "escalated": 0,
         "timeseries": _embedded_series([300000.0, 400000.0], [])},
        {"offered_qps": 24000.0, "goodput_qps": 12100.0, "arrivals": 1500,
         "completed": 1500, "rejected": 0, "p50_ms": 29.0, "p99_ms": 60.0,
         "latency_ns": copy.deepcopy(_HIST),
         "queue_delay_ns": copy.deepcopy(_HIST),
         "slo_trips": 2, "escalated": 16,
         "timeseries": _embedded_series(
             [2500000.0, 8000000.0, 60000000.0],
             [(1, 8000000.0), (2, 60000000.0)])},
    ],
    "knee": {
        "offered_low_qps": 3000.0, "offered_high_qps": 24000.0,
        "p99_low_ms": 0.4, "p99_high_ms": 60.0,
        "goodput_low_qps": 3010.0, "goodput_high_qps": 12100.0,
        "ratio": 150.0,
    },
    "telemetry": copy.deepcopy(GOOD_TELEMETRY),
}

_failures = []


def run_validator(document):
    """Runs validate_file over `document`; returns the error messages."""
    validator._errors.clear()
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as f:
        json.dump(document, f)
        path = f.name
    try:
        validator.validate_file(path)
        return list(validator._errors)
    finally:
        os.unlink(path)


def expect_ok(name, document):
    errors = run_validator(document)
    if errors:
        _failures.append(f"{name}: expected pass, got {errors}")


def expect_error(name, document, needle):
    errors = run_validator(document)
    if not any(needle in message for message in errors):
        _failures.append(
            f"{name}: expected an error containing {needle!r}, got {errors}")


def broken(document, mutate):
    clone = copy.deepcopy(document)
    mutate(clone)
    return clone


def main():
    expect_ok("good telemetry", GOOD_TELEMETRY)
    expect_ok("good trace", GOOD_TRACE)
    # Trace documents carry no registry snapshot; the telemetry branch must
    # not demand one of them.
    expect_ok("trace without telemetry section",
              broken(GOOD_TRACE, lambda d: d.pop("tradeoffs")))

    # --- telemetry.v1 negatives ------------------------------------------
    expect_error("empty document", {}, "no telemetry section")
    expect_error(
        "negative counter",
        broken(GOOD_TELEMETRY,
               lambda d: d["counters"].__setitem__("net.packets", -1)),
        "non-negative")
    expect_error(
        "bucket sum mismatch",
        broken(GOOD_TELEMETRY,
               lambda d: d["histograms"]["eval.load.latency_ns"]
               ["buckets"][0].__setitem__(2, 7)),
        "bucket counts sum")
    expect_error(
        "non-monotone percentiles",
        broken(GOOD_TELEMETRY,
               lambda d: d["histograms"]["eval.load.latency_ns"]
               .__setitem__("p50", 99.0)),
        "percentiles not monotone")

    # --- trace.v1 negatives ----------------------------------------------
    expect_error(
        "missing traceEvents",
        broken(GOOD_TRACE, lambda d: d.pop("traceEvents")),
        "traceEvents")
    expect_error(
        "wrong displayTimeUnit",
        broken(GOOD_TRACE,
               lambda d: d.__setitem__("displayTimeUnit", "ms")),
        "displayTimeUnit")
    expect_error(
        "unknown phase",
        broken(GOOD_TRACE,
               lambda d: d["traceEvents"][2].__setitem__("ph", "B")),
        "unknown event phase")
    expect_error(
        "negative dur",
        broken(GOOD_TRACE,
               lambda d: d["traceEvents"][2].__setitem__("dur", -1.0)),
        "non-negative dur")
    expect_error(
        "instant without scope",
        broken(GOOD_TRACE, lambda d: d["traceEvents"][4].pop("s")),
        "scope")
    expect_error(
        "metadata without args.name",
        broken(GOOD_TRACE, lambda d: d["traceEvents"][0].pop("args")),
        "args.name")
    expect_error(
        "malformed trace id",
        broken(GOOD_TRACE,
               lambda d: d["traceEvents"][2]["args"]
               .__setitem__("trace_id", "0xZZ")),
        "malformed trace_id")
    expect_error(
        "events but no spans",
        broken(GOOD_TRACE,
               lambda d: d.__setitem__("traceEvents",
                                       [d["traceEvents"][0]])),
        "no complete")
    expect_error(
        "trade-off missing field",
        broken(GOOD_TRACE, lambda d: d["tradeoffs"][0].pop("latency_ns")),
        "missing latency_ns")
    expect_error(
        "trade-off negative packets",
        broken(GOOD_TRACE,
               lambda d: d["tradeoffs"][0].__setitem__("packets", -3)),
        "non-negative")
    expect_error(
        "trade-off bad flag",
        broken(GOOD_TRACE,
               lambda d: d["tradeoffs"][0].__setitem__(
                   "error_evaluated", 2)),
        "0 or 1")
    expect_error(
        "trade-off missing fanout",
        broken(GOOD_TRACE, lambda d: d["tradeoffs"][0].pop("fanout")),
        "missing fanout")

    # --- shard.v1 negatives ----------------------------------------------
    expect_ok("good shard document", GOOD_SHARD)
    expect_error(
        "shard empty results",
        broken(GOOD_SHARD, lambda d: d.__setitem__("results", [])),
        "non-empty results")
    expect_error(
        "shard digest mismatch",
        broken(GOOD_SHARD,
               lambda d: d["results"][1].__setitem__("digest_match", 0)),
        "digest_match")
    expect_error(
        "shard fanout above fleet",
        broken(GOOD_SHARD,
               lambda d: d["results"][1].__setitem__("mean_fanout", 4.5)),
        "exceeds fleet size")
    expect_error(
        "shard fanout not pruning",
        broken(GOOD_SHARD,
               lambda d: d["results"][1].__setitem__("mean_fanout", 4.0)),
        "not strictly below")
    expect_error(
        "shard max fanout above fleet",
        broken(GOOD_SHARD,
               lambda d: d["results"][1].__setitem__("max_fanout", 5)),
        "max_fanout")
    expect_error(
        "shard pulls array wrong length",
        broken(GOOD_SHARD,
               lambda d: d["results"][1]["per_shard_pulls"].pop()),
        "per_shard_pulls")
    expect_error(
        "shard points negative",
        broken(GOOD_SHARD,
               lambda d: d["results"][1]["shard_points"]
               .__setitem__(0, -1)),
        "shard_points")
    expect_error(
        "shard pulls disagree with their shard counter",
        broken(GOOD_SHARD,
               lambda d: d["results"][1]["per_shard_pulls"]
               .__setitem__(2, 1401)),
        "embedded shard.2.pulls counter is 1400")
    expect_error(
        "shard pull counter missing",
        broken(GOOD_SHARD,
               lambda d: d["telemetry"]["counters"].pop("shard.3.pulls")),
        "embedded shard.3.pulls counter is None")
    expect_error(
        "shard pulls disagree with the router total",
        broken(GOOD_SHARD,
               lambda d: d["telemetry"]["counters"]
               .__setitem__("shard.router.shard_pulls", 10329)),
        "shard.router.shard_pulls counter 10329")
    expect_error(
        "shard missing telemetry snapshot",
        broken(GOOD_SHARD, lambda d: d.pop("telemetry")),
        "no telemetry section")

    # --- memidx.v1 negatives ---------------------------------------------
    expect_ok("good memidx document", GOOD_MEMIDX)
    expect_error(
        "memidx empty results",
        broken(GOOD_MEMIDX, lambda d: d.__setitem__("results", [])),
        "non-empty results")
    expect_error(
        "memidx missing paged backend",
        broken(GOOD_MEMIDX, lambda d: d["results"].pop(0)),
        "must include the 'paged' backend")
    expect_error(
        "memidx digest mismatch",
        broken(GOOD_MEMIDX,
               lambda d: d["results"][1].__setitem__("digest_match", 0)),
        "digest_match")
    expect_error(
        "memidx point counts differ",
        broken(GOOD_MEMIDX,
               lambda d: d["results"][1].__setitem__("points", 107199)),
        "point counts differ")
    expect_error(
        "memidx non-positive cost",
        broken(GOOD_MEMIDX,
               lambda d: d["results"][1].__setitem__("ns_per_query", 0)),
        "positive number")
    expect_error(
        "memidx speedup off the measured ratio",
        broken(GOOD_MEMIDX, lambda d: d.__setitem__("speedup", 9.9)),
        "does not match measured")
    expect_error(
        "memidx missing latency histogram",
        broken(GOOD_MEMIDX, lambda d: d["results"][0].pop("latency_ns")),
        "missing latency_ns")
    expect_error(
        "memidx missing build type",
        broken(GOOD_MEMIDX, lambda d: d.pop("build_type")),
        "build_type")
    expect_error(
        "memidx empty build type",
        broken(GOOD_MEMIDX, lambda d: d.__setitem__("build_type", "")),
        "build_type")
    expect_error(
        "memidx missing NDEBUG state",
        broken(GOOD_MEMIDX, lambda d: d.pop("ndebug")),
        "ndebug")
    expect_error(
        "memidx NDEBUG state not 0 or 1",
        broken(GOOD_MEMIDX, lambda d: d.__setitem__("ndebug", 2)),
        "ndebug")
    expect_error(
        "memidx broken embedded histogram",
        broken(GOOD_MEMIDX,
               lambda d: d["results"][0]["latency_ns"]
               .__setitem__("p50", 99.0)),
        "percentiles not monotone")

    # --- openloop.v1 negatives -------------------------------------------
    expect_ok("good openloop document", GOOD_OPENLOOP)
    expect_error(
        "openloop empty results",
        broken(GOOD_OPENLOOP, lambda d: d.__setitem__("results", [])),
        "non-empty results")
    expect_error(
        "openloop digest mismatch",
        broken(GOOD_OPENLOOP, lambda d: d.__setitem__("digest_match", 0)),
        "digest_match")
    expect_error(
        "openloop non-monotone offered load",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][1].__setitem__("offered_qps", 2000.0)),
        "monotone in offered load")
    expect_error(
        "openloop missing queue-delay histogram",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][0].pop("queue_delay_ns")),
        "missing queue_delay_ns")
    expect_error(
        "openloop non-positive goodput",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][2].__setitem__("goodput_qps", 0)),
        "goodput_qps must be a positive number")
    expect_error(
        "openloop missing knee",
        broken(GOOD_OPENLOOP, lambda d: d.pop("knee")),
        "knee object")
    expect_error(
        "openloop knee below the saturation bar",
        broken(GOOD_OPENLOOP,
               lambda d: (d["knee"].__setitem__("ratio", 2.0),
                          d["knee"].__setitem__("p99_high_ms", 0.8))),
        "below the 5x")
    expect_error(
        "openloop knee ratio off the endpoints",
        broken(GOOD_OPENLOOP,
               lambda d: d["knee"].__setitem__("ratio", 99.0)),
        "does not match the recorded p99 endpoints")
    expect_error(
        "openloop broken embedded histogram",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][0]["latency_ns"]
               .__setitem__("p50", 99.0)),
        "percentiles not monotone")
    expect_error(
        "openloop missing embedded series",
        broken(GOOD_OPENLOOP, lambda d: d["results"][0].pop("timeseries")),
        "missing embedded spacetwist.timeseries.v1")
    expect_error(
        "openloop negative escalated",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][0].__setitem__("escalated", -1)),
        "escalated must be a non-negative integer")
    expect_error(
        "openloop quiet point tripping",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][0].__setitem__("slo_trips", 1)),
        "does not separate the knee")
    expect_error(
        "openloop overload point without trips",
        broken(GOOD_OPENLOOP,
               lambda d: (d["results"][2].__setitem__("slo_trips", 0),
                          d["results"][2]["timeseries"]["slo"]
                          .__setitem__("trips", []))),
        "the watchdog never fired")
    expect_error(
        "openloop trip count off the embedded series",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][2].__setitem__("slo_trips", 5)),
        "does not match the 2 trips")
    expect_error(
        "openloop queue-delay p99 not rising",
        broken(GOOD_OPENLOOP,
               lambda d: d["results"][2]["timeseries"]["intervals"][0]
               ["histograms"].__setitem__(
                   "eval.arrival.queue_delay_ns",
                   _queue_window(99000000.0))),
        "did not rise across the overload point")

    # --- fault_resilience negatives --------------------------------------
    expect_ok("good fault document", GOOD_FAULT)
    expect_error(
        "fault empty results",
        broken(GOOD_FAULT, lambda d: d.__setitem__("results", [])),
        "non-empty results")
    expect_error(
        "fault goodput below 1.0 at 20%",
        broken(GOOD_FAULT,
               lambda d: d["results"][2].__setitem__("goodput", 0.521)),
        "below 1.0")
    expect_error(
        "fault retries on a dup row",
        broken(GOOD_FAULT,
               lambda d: d["results"][1].__setitem__("retries", 3350)),
        "must be drained as stale frames")
    expect_error(
        "fault backoff on a dup row",
        broken(GOOD_FAULT,
               lambda d: d["results"][1].__setitem__("backoff_ms", 13137.4)),
        "must cost no backoff")
    expect_error(
        "fault retries beyond 2x faults",
        broken(GOOD_FAULT,
               lambda d: d["results"][2].__setitem__("retries", 12243)),
        "exceed 2x")
    expect_error(
        "fault sessions left open on a drop row",
        broken(GOOD_FAULT,
               lambda d: d["results"][0].__setitem__("sessions_left_open", 8)),
        "8 server sessions left open")
    expect_error(
        "fault sessions left open on a dup row",
        broken(GOOD_FAULT,
               lambda d: d["results"][1].__setitem__("sessions_left_open", 1)),
        "1 server sessions left open")
    expect_error(
        "fault missing sessions_left_open",
        broken(GOOD_FAULT, lambda d: d["results"][2].pop("sessions_left_open")),
        "sessions_left_open must be a non-negative integer")
    expect_error(
        "fault missing faults_injected",
        broken(GOOD_FAULT, lambda d: d["results"][0].pop("faults_injected")),
        "faults_injected must be a non-negative integer")
    expect_error(
        "fault rate out of range",
        broken(GOOD_FAULT, lambda d: d["results"][0].__setitem__("rate", 2)),
        "rate must be a number in [0, 1]")
    expect_error(
        "fault missing telemetry snapshot",
        broken(GOOD_FAULT, lambda d: d.pop("telemetry")),
        "no telemetry section")

    # --- timeseries.v1 negatives -----------------------------------------
    expect_ok("good timeseries document", GOOD_TIMESERIES)
    expect_error(
        "timeseries empty intervals",
        broken(GOOD_TIMESERIES, lambda d: d.__setitem__("intervals", [])),
        "non-empty intervals")
    expect_error(
        "timeseries non-abutting windows",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][1]
               .__setitem__("start_ns", _SECOND + 7)),
        "must be contiguous on the deadline grid")
    expect_error(
        "timeseries index gap",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][1].__setitem__("index", 5)),
        "not contiguous after")
    expect_error(
        "timeseries inverted window",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][0].__setitem__("end_ns", 0)),
        "not before end")
    expect_error(
        "timeseries front index off dropped_intervals",
        broken(GOOD_TIMESERIES,
               lambda d: d.__setitem__("dropped_intervals", 3)),
        "survive ring eviction")
    expect_error(
        "timeseries rate off the delta",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][0]["counters"]
               ["eval.arrival.completed"].__setitem__("rate_per_s", 55.0)),
        "does not match delta")
    expect_error(
        "timeseries window with buckets",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][0]["histograms"]
               ["eval.arrival.queue_delay_ns"]
               .__setitem__("buckets", [[1, 2, 50]])),
        "deltas only, not buckets")
    expect_error(
        "timeseries window percentiles not monotone",
        broken(GOOD_TIMESERIES,
               lambda d: d["intervals"][0]["histograms"]
               ["eval.arrival.queue_delay_ns"]
               .__setitem__("p50", 1e12)),
        "percentiles not monotone")
    expect_error(
        "timeseries bad slo signal",
        broken(GOOD_TIMESERIES,
               lambda d: d["slo"]["objectives"][0]
               .__setitem__("signal", "p995")),
        "must be pNN")
    expect_error(
        "timeseries slow below fast windows",
        broken(GOOD_TIMESERIES,
               lambda d: d["slo"]["objectives"][0]
               .__setitem__("slow_windows", 1)),
        "slow_windows must be an integer >= fast_windows")
    expect_error(
        "timeseries trip on unknown objective",
        broken(GOOD_TIMESERIES,
               lambda d: d["slo"]["trips"][0]
               .__setitem__("objective", "no-such-objective")),
        "unknown objective")
    expect_error(
        "timeseries trip beyond exported windows",
        broken(GOOD_TIMESERIES,
               lambda d: d["slo"]["trips"][0]
               .__setitem__("interval_index", 9)),
        "beyond the last exported window")
    expect_error(
        "timeseries flight record negative packets",
        broken(GOOD_TIMESERIES,
               lambda d: d["slo"]["trips"][0]["flight"][0]
               .__setitem__("packets", -3)),
        "packets must be a non-negative integer")

    if _failures:
        for failure in _failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("validate_telemetry_json selftest: all fixtures behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
