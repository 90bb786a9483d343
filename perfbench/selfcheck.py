#!/usr/bin/env python3
"""Tiny-scale self-check of the serving benchmark.

    python3 perfbench/selfcheck.py

Builds the benchmark (as perfbench/run.py does) and checks, on a 60k-point
dataset (still larger than the buffer pool) with fixed query counts:

  * the binary's metric catalog matches BENCHMARK.json name for name, with
    the same unit and direction;
  * every workload prints every end-to-end metric (untraced) and every
    per-layer metric (traced) with its unit, and reports correct answers;
  * the deterministic counts repeat exactly across two runs:
    packets_per_query on every workload, server.node_reads_per_query and
    storage.misses_per_query on paged_k16, retries on lossy_shard4;
  * the traced run's span file loads in `spacetwist_cli trace-report`, and
    every span name is a per-layer metric name;
  * without the library sources the benchmark exits non-zero and prints no
    result.

Exit status 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the builder and driver beside this file)

FIXED_QUERIES = 24
# Every workload, tableI_open included (it is runnable but not listed in
# BENCHMARK.json; see README.md), with its deterministic counts:
# (metric, traced run?).
REPEATS = {
    "tableI_open": [("packets_per_query", False),
                    ("server.node_reads_per_query", True)],
    "paged_k16": [("packets_per_query", False),
                  ("server.node_reads_per_query", True),
                  ("storage.misses_per_query", True)],
    "lossy_shard4": [("packets_per_query", False),
                     ("round_trips_per_query", False),
                     ("service.retries_per_query", True)],
}

failures = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def run_tiny(binary, workload, trace, trace_out=None):
    command = [binary, "--workload", workload, "--seed", "7", "--seconds",
               "2", "--trace", "1" if trace else "0", "--tiny",
               "--fixed-queries", str(FIXED_QUERIES)]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, check=False)
    if done.returncode != 0:
        check(False, f"{workload} trace={int(trace)} exited "
                     f"{done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = run.build()
    if out is None:
        print("FAIL  build")
        return 1
    binary = os.path.join(out, "perfbench")

    catalog = json.loads(subprocess.run(
        [binary, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    by_name = {m["name"]: m for m in catalog}
    for key, end_to_end in (("end_to_end", True), ("per_layer", False)):
        declared = {m["name"] for m in bench[key]}
        emitted = {m["name"] for m in catalog if m["end_to_end"] == end_to_end}
        check(declared == emitted,
              f"{key}: BENCHMARK.json and the binary name the same metrics "
              f"(only declared: {sorted(declared - emitted)}, only emitted: "
              f"{sorted(emitted - declared)})")
        for m in bench[key]:
            spec = by_name.get(m["name"])
            check(spec is not None and spec["unit"] == m["unit"]
                  and spec["better"] == m["better"],
                  f"{m['name']}: unit {m['unit']}, {m['better']} is better")

    listed = {w["name"] for w in bench["workloads"]}
    check(listed <= set(REPEATS),
          f"BENCHMARK.json workloads {sorted(listed)} are all checked here")
    traces_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=out)
    try:
        for name in REPEATS:
            results = {False: [], True: []}
            for trace in (False, True):
                for attempt in range(2):
                    trace_out = (os.path.join(traces_dir, f"{name}.json")
                                 if trace and attempt == 0 else None)
                    r = run_tiny(binary, name, trace, trace_out)
                    if r is not None:
                        results[trace].append(r)
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                for r in results[trace][:1]:
                    check(r["correct"] is True and r["attempted"] >= 1,
                          f"{name} {key}: correct, {r['attempted']} attempted")
                    missing = [m["name"] for m in bench[key]
                               if r["metrics"].get(m["name"], {}).get("unit")
                               != m["unit"]]
                    check(not missing, f"{name} {key}: every metric emitted "
                                       f"with its unit (missing {missing})")
            for metric, trace in REPEATS.get(name, []):
                runs = results[trace]
                values = [r["metrics"].get(metric, {}).get("value")
                          for r in runs]
                check(len(values) == 2 and values[0] == values[1]
                      and values[0] is not None,
                      f"{name} {metric} repeats exactly: {values}")
            trace_file = os.path.join(traces_dir, f"{name}.json")
            if os.path.exists(trace_file):
                cli = os.path.join(out, "spacetwist_cli")
                report = subprocess.run(
                    [cli, "trace-report", "--in", trace_file],
                    capture_output=True, text=True, check=False)
                check(report.returncode == 0
                      and "per-phase latency breakdown" in report.stdout,
                      f"{name}: span file loads in trace-report")
                with open(trace_file) as f:
                    doc = json.load(f)
                names = {e["name"] for e in doc["traceEvents"]
                         if e.get("ph") == "X"}
                layer = {m["name"] for m in bench["per_layer"]}
                check(names and names <= layer,
                      f"{name}: span names are per-layer metric names "
                      f"({sorted(names - layer)} are not)")
            else:
                check(False, f"{name}: traced run wrote its span file")

        # Only BENCHMARK.json and the benchmark's files: must fail cleanly.
        bare = os.path.join(traces_dir, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            bench["command"] + ["--workload", "paged_k16", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, env=env,
            check=False)
        check(done.returncode != 0 and done.stdout.strip() == "",
              "without the library sources: non-zero exit, no result")
    finally:
        shutil.rmtree(traces_dir, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
