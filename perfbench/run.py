"""Benchmark for waveletsets: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload planar_certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Jobs run one after another in this process (a closed loop with one client);
each job is one whole user task made of the public calls of the matching CLI
command, and its outputs are checked exactly against perfbench/reference.json.
The run measures a fixed number of whole rounds of jobs (see workloads.py):
--seconds divided by the workload's nominal round time, which was measured at
the commit that recorded the reference (perfbench/RECORD.md).  At that commit
a run measures about --seconds; a faster program finishes sooner.

Every time reported is scaled to one reference host speed by readings of a
fixed loop taken between jobs and between interpreter starts (hostspeed.py);
the measured times are printed beside the scaled ones.

--trace 0 times the jobs untraced and prints the end-to-end metrics.
--trace 1 alternates untraced and traced rounds, prints the per-layer metrics
of the traced jobs, the tracing overhead (traced minus untraced median job
time), size rows, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the library sources under src/ the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 7
SETUP_CODE = "import waveletsets.cli as cli; cli.build_parser()"
TAIL_BEYOND = 10
SLOW_STOP = 2  # a run that takes this many times --seconds stops at the next round

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "cpu_per_job_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(times: list) -> tuple:
    """(value, percentile, jobs beyond): the highest whole percentile, by
    nearest rank, with at least TAIL_BEYOND jobs above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p, n - rank


def load_reference(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def timed(speed: hostspeed.HostSpeed, step) -> list:
    """[measured s, scaled s] of one call of step, with a reading after it."""
    pair = [step()]
    speed.wait(lambda factor: pair.append(pair[0] / factor))
    speed.between(force=True)
    return pair


def measure_setup(wl, seed: int) -> tuple:
    """Median fresh-interpreter start (import waveletsets, build the CLI parser)
    plus the median in-process preparation (reference and job plan), scaled
    to the reference host speed like the jobs: returns [scaled start, measured
    start, scaled preparation, measured preparation], the reference and the
    plan.

    While the interpreters start, this process is pinned to one vCPU and its
    children with it, so that the readings around a start time the vCPU the
    start ran on: the two vCPUs change speed independently from one moment to
    the next, and unpinned scaled starts spread more than measured ones."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def start() -> float:
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    def prepare() -> float:
        nonlocal ref, plan
        t0 = perf_counter()
        ref = load_reference(wl.name)
        plan = wl.plan(seed)
        return perf_counter() - t0

    ref = plan = None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        start()  # unmeasured: a fresh checkout writes its bytecode caches here
        speed = hostspeed.HostSpeed()
        starts = [timed(speed, start) for _ in range(SETUP_REPEATS)]
    finally:
        os.sched_setaffinity(0, allowed)
    print("interpreter starts, measured (scaled) s: "
          + " ".join(f"{t:.4f} ({n:.4f})" for t, n in starts))
    preps = [timed(speed, prepare) for _ in range(SETUP_REPEATS)]
    medians = [statistics.median(x[i] for x in xs) for xs in (starts, preps) for i in (1, 0)]
    return medians, ref, plan


def self_test(wl, ref, out) -> list:
    """Check the checks on the warm-up outputs: they must pass against the
    reference and fail against a copy with one reference value moved."""
    problems = [f"warm-up {wl.warmup}: {f}" for f in wl.check(wl.warmup, out, ref)]
    if not wl.check(wl.warmup, out, wl.perturb(wl.warmup, ref)):
        problems.append("a perturbed reference value is not counted as a failure")
    return problems


class Loop:
    """Runs rounds of jobs and records time, CPU, outcome and host speed of each."""

    def __init__(self, wl, seed: int, ref: dict, speed: hostspeed.HostSpeed):
        self.wl, self.seed, self.ref, self.speed = wl, seed, ref, speed
        self.records = []  # [traced, wall s, cpu s, ok, host speed factor]
        self.errors = []
        self.outputs = []  # (traced, outputs) of correct jobs
        self.rounds = 0

    def run_job(self, inp, tracer=None) -> None:
        wl = self.wl
        arg = wl.prepare(inp, self.seed)
        job_id = len(self.records)
        frame = tracer.begin_job(job_id, {}) if tracer else None
        c0, t0 = process_time(), perf_counter()
        try:
            out = wl.job(arg)
            error = None
        except Exception:  # a failed job is counted, the run goes on
            out, error = None, traceback.format_exc(limit=3)
        t1, c1 = perf_counter(), process_time()
        if tracer:
            tracer.end_job(frame)
            tracer.job_attrs[job_id].update(wl.attrs(inp, out) if out else {"error": True})
        fails = [error] if error else wl.check(inp, out, self.ref)
        if fails:
            self.errors.append((inp, fails))
        else:
            self.outputs.append((tracer is not None, out))
        record = [tracer is not None, t1 - t0, c1 - c0, not fails, None]
        self.records.append(record)
        self.speed.wait(lambda factor: record.__setitem__(4, factor))
        self.speed.between()

    def run(self, rounds: list, seconds: float, patches=None) -> float:
        """Run the rounds; with patches, every second round is traced."""
        t_start = perf_counter()
        min_rounds = 1 if patches is None else 2
        for r, jobs in enumerate(rounds):
            if r >= min_rounds and perf_counter() - t_start > SLOW_STOP * seconds:
                print(f"perfbench: stopped after {r} rounds, {SLOW_STOP} x --seconds",
                      file=sys.stderr)
                break
            traced = patches is not None and r % 2 == 1
            if traced:
                patches.install()
            try:
                for inp in jobs:
                    self.run_job(inp, patches.tracer if traced else None)
            finally:
                if traced:
                    patches.remove()
            self.rounds += 1
        self.speed.between(force=True)
        return perf_counter() - t_start

    def times(self, traced: bool, scaled: bool = True) -> list:
        return [t / f if scaled else t for tr, t, _, ok, f in self.records if ok and tr == traced]


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def median(values: list) -> float:
    """Median, or 0 when no job succeeded (the run then reports failures)."""
    return statistics.median(values) if values else 0.0


def time_metrics(loop: Loop, scaled: bool) -> dict:
    """The time metrics from scaled or from measured times."""
    recs = loop.records
    attempted = len(recs)
    ok = sum(1 for r in recs if r[3])
    div = (lambda r: r[4]) if scaled else (lambda r: 1.0)
    times = loop.times(False, scaled)
    value, pct, beyond = tail(times) if times else (0.0, 0, 0)
    return {
        "job_p50_s": median(times),
        "job_tail_s": value,
        "jobs_per_s": ok / sum(r[1] / div(r) for r in recs),
        "cpu_per_job_s": sum(r[2] / div(r) for r in recs) / attempted,
        "tail_note": f"(p{pct} of {len(times)} jobs, {beyond} beyond)",
    }


def end_to_end(loop: Loop, setup_s: float, setup_measured: float) -> dict:
    attempted = len(loop.records)
    ok = sum(1 for r in loop.records if r[3])
    scaled, measured = time_metrics(loop, True), time_metrics(loop, False)
    metrics = {
        "job_p50_s": scaled["job_p50_s"],
        "job_tail_s": scaled["job_tail_s"],
        "jobs_per_s": scaled["jobs_per_s"],
        "cpu_per_job_s": scaled["cpu_per_job_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_ratio": ok / attempted,
    }
    notes = {
        "job_tail_s": scaled["tail_note"],
        "setup_s": "(fresh interpreter start + preparation)",
        "ok_ratio": f"(fail_ratio {(attempted - ok) / attempted:.6g}: "
                    f"{attempted - ok} of {attempted} jobs raised or failed a check)",
    }
    factors = [r[4] for r in loop.records]
    print(f"  host speed factor over the jobs: median {median(factors):.4f}, "
          f"min {min(factors):.4f}, max {max(factors):.4f} "
          f"(1 = the reference speed; scaled = measured / factor)")
    print(f"  {'metric':<15} {'scaled':>12} {'measured':>12} unit")
    for name, v in metrics.items():
        raw = fmt(dict(measured, setup_s=setup_measured).get(name, ""))
        print(f"  {name:<15} {fmt(v):>12} {raw:>12} {END_TO_END_UNITS[name]:<6} "
              f"{notes.get(name, '')}")
    return metrics


def report_trace(loop: Loop, tracer, spans) -> tuple:
    """Print per-layer metrics and size rows; return metrics and bypass problems."""
    wl = loop.wl
    untraced, traced = loop.times(False), loop.times(True)
    overhead = median(traced) - median(untraced)
    print(f"  tracing overhead (scaled): traced job_p50_s {median(traced):.6g} s "
          f"({len(traced)} jobs) - untraced {median(untraced):.6g} s "
          f"({len(untraced)} jobs) = {overhead:.6g} s")
    pr_err = max((out["mra"]["pr_err"] for traced, out in loop.outputs
                  if traced and "mra" in out), default=0.0)
    factors = {job_id: r[4] for job_id, r in enumerate(loop.records)}
    metrics = spans.layer_metrics(tracer, pr_err, overhead, factors)
    for key, v in metrics.items():
        print(f"  {key:<34} {fmt(v):>14} {spans.PER_LAYER[key][0]}")
    problems = []
    if metrics[wl.bypass] != 0:
        problems.append(f"bypass prediction broken: {wl.bypass} != 0 on {wl.name}")
    print("  size rows (span, size, calls, mean s per call):")
    for row, size, calls, mean in spans.size_rows(tracer, factors):
        print(f"    {row:<24} {str(size):<34} {calls:>6} {mean:.6g}")
    print("  job rows (mean s per job):")
    for row in spans.job_rows(tracer, factors, *wl.rows):
        print("    " + " ".join(f"{k}={fmt(v)}" for k, v in row.items()))
    return metrics, problems


def run_workload(args) -> int:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    (start_s, start_measured, prep_s, prep_measured), ref, plan = measure_setup(wl, args.seed)
    setup_s = start_s + prep_s

    t0 = perf_counter()
    try:
        warm = wl.job(wl.prepare(wl.warmup, args.seed))
        problems = self_test(wl, ref, warm)
    except Exception:  # reported in the result, like a failed job
        problems = [f"warm-up {wl.warmup} raised:\n{traceback.format_exc(limit=3)}"]
    warmup_s = perf_counter() - t0
    gc.collect()

    # a fixed number of whole rounds, so that every seed measures the same mix
    # and count of jobs; at the recorded commit they take about --seconds
    n_rounds = max(1 + args.trace, int(args.seconds / wl.round_s + 0.5))
    rounds = plan[:n_rounds]
    speed = hostspeed.HostSpeed()
    loop = Loop(wl, args.seed, ref, speed)
    tracer = spans.Tracer() if args.trace else None
    elapsed = loop.run(rounds, args.seconds, spans.Patches(tracer) if tracer else None)

    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if not r[3])
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {attempted} jobs in "
          f"{loop.rounds} of {len(plan)} rounds, {elapsed:.3f} s; set-up {setup_s:.4f} s scaled "
          f"(interpreter, import and CLI parser {start_s:.4f} s, preparation {prep_s:.4f} s), "
          f"warm-up {warmup_s:.3f} s; {len(speed.readings)} host speed readings")
    if args.trace:
        metrics, bypass = report_trace(loop, tracer, spans)
        problems += bypass
        path = os.path.join(workloads.OUT_DIR, f"trace-{wl.name}-seed{args.seed}.txt.gz")
        count = tracer.write(path, {"workload": wl.name, "seed": args.seed})
        print(f"  wrote {count} spans to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(loop, setup_s, start_measured + prep_measured)
    for inp, fails in loop.errors[:5]:
        print(f"FAILED {inp}: {fails[0]}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    units = ({k: spans.PER_LAYER[k][0] for k in metrics} if args.trace else END_TO_END_UNITS)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_self_test() -> int:
    import workloads

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    bad = 0
    for wl in workloads.WORKLOADS.values():
        ref = load_reference(wl.name)
        out = wl.job(wl.prepare(wl.warmup, 0))
        problems = self_test(wl, ref, out)
        bad += bool(problems)
        print(f"{wl.name}: {'; '.join(problems) if problems else 'ok'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a perturbed reference value counts as a failure")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "waveletsets", "__init__.py")):
        die(f"no library sources at {os.path.relpath(SRC)}/waveletsets; run from a full checkout")
    if not os.path.isfile(REFERENCE):
        die("perfbench/reference.json is missing; run perfbench/make_reference.py")
    sys.path.insert(0, SRC)
    if args.self_test:
        return run_self_test()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
