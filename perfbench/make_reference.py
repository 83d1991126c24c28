"""Record the reference values the benchmark checks against.

Run from the repository root at the commit whose results are the reference:

    python3 perfbench/make_reference.py [workload ...]

It runs every menu input and warm-up input of every workload once, refuses
to write anything if an input breaks an invariant that holds without a
reference (a measure identity, a certificate, a tolerance), and writes
perfbench/reference.json; named workloads are recorded again and the others
kept.  The file is part of the benchmark: a later change
to the library must reproduce it exactly, except for the stated tolerances.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def planar() -> dict:
    ref = {}
    inputs = [(f, d, t) for f in W.PLANAR_FIXTURES for d in W.PLANAR_DEPTHS
              for t in W.PLANAR_TAILS] + [W.PLANAR.warmup]
    for inp in inputs:
        out = W.planar_job(inp)
        if not (out["identity"] and out["within"]):
            raise SystemExit(f"planar input {inp} fails its own invariants: {out}")
        ref[W._key(*inp)] = {"residuals": out["residuals"], "boxes": out["boxes"]}
    return ref


def interval() -> dict:
    ref = {}
    inputs = [(c, e) for c in W.INTERVAL_CENTRES for e in W.INTERVAL_EPSILONS]
    for inp in inputs + [W.INTERVAL.warmup]:
        out = W.interval_job(inp)
        if out["verified"] != [True, True] or out["final_residual"] > inp[1]:
            raise SystemExit(f"interval input {inp} fails its own invariants: {out}")
        ref[W._key(*inp)] = {"final_residual": str(out["final_residual"]),
                             "wavelet_1d": out["wavelet_1d"],
                             "iterations": out["iterations"], "boxes": out["boxes"]}
    return ref


def fractal() -> dict:
    scalings = W.FRACTAL_SCALINGS + (W.FRACTAL.warmup[0],)
    ref = {"fif": {}, "surface": {}, "mra": {}}
    for s in scalings:
        for mode in W.FRACTAL_MODES:
            out = W.fif_part(s, mode)
            n = W.FIF_CELLS + 1
            if out["knots"] != [["1" if k == j else "0" for k in range(n)] for j in range(n)]:
                raise SystemExit(f"fif knots at s={s} {mode} are not the Kronecker data")
            ref["fif"][W._key(s, mode)] = {k: out[k] for k in ("csv", "gram", "quad_err")}
        ref["surface"][W._key(s)] = W.surface_part(s)
        for kappa, degree in W.FRACTAL_MRA:
            out = W.mra_part(s, kappa, degree, W.mra_table(s, kappa, degree, 0))
            if not out["pr_err"] <= W.PR_TOLERANCE:
                raise SystemExit(f"MRA at s={s} kappa={kappa} degree={degree}: {out['pr_err']}")
            ref["mra"][W._key(s, kappa, degree)] = {"gram": out["gram"]}
    return ref


def main() -> None:
    os.makedirs(W.OUT_DIR, exist_ok=True)
    makers = {"planar_certify": planar, "interval_construct": interval, "fractal_build": fractal}
    only = sys.argv[1:] or list(makers)
    path = os.path.join(HERE, "reference.json")
    ref = {}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
    for name in only:
        make = makers[name]
        t0 = time.perf_counter()
        ref[name] = make()
        print(f"{name}: {len(ref[name])} entries in {time.perf_counter() - t0:.1f} s", flush=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
