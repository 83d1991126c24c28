"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads planar_certify fractal_build --seeds 1-10

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound from BENCHMARK.json.  Runs
are sequential, one process at a time.  With --out, all run results are also
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = {}
    worst = 0.0
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(last)
            runs.append(result)
            print(f"{name} seed {seed}: {wall:.1f} s correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        results[name] = runs
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            if bound and metric != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:<20} {metric:<34} median {med:<12.6g} spread {share:7.4f}"
                  + (f"  bound {bound}  spread/bound {share / bound:.2f}" if bound else ""))
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
