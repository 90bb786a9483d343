#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload paged_k16 --seeds 1-10 [--trace 0]

For every metric it prints the median and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)), next to the bound
BENCHMARK.json allows for end-to-end metrics. Raw results are appended, one
JSON line per run, to --log (default .bench_build/spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--log",
                        default=os.path.join(ROOT, ".bench_build",
                                             "spread.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    os.makedirs(os.path.dirname(os.path.abspath(args.log)), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds",
                                str(bench["run_seconds"]), "--trace",
                                args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}: "
                  f"{done.stderr.strip()[-300:]}", file=sys.stderr)
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": int(args.trace),
                                  "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)

    print(f"{'metric':36} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and len(vals) >= 2 and not spread <= bound:
            flag = "  over bound"
        print(f"{name:36} {len(vals):3} {median:14.4f} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
