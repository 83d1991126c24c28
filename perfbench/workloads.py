"""The three workloads: input menus, seeded job plans, jobs and exact checks.

A plan is a list of rounds.  Every round holds one job from each stratum of
the menu (the input property that sets a job's cost), in a seeded order, so
that any run of whole rounds has the same mix of cheap and costly jobs and
the medians of different seeds are comparable.  Inputs are drawn without
replacement: no two jobs of one run share an input, and no two share the
sub-input that a cross-job cache could key on (the interval centre, the
fractal scaling).  The warm-up input of each workload lies outside its menu.

Jobs call the library through module attributes (`tiles.build_w1`, not a
name imported once), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import numpy as np

from waveletsets import fif, mra, reflections, render, surfaces, tiles

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(name: str, text: str) -> None:
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        fh.write(text)


def _fraction_strings(matrix) -> list:
    return [str(v) for row in matrix for v in row]


def _mismatch(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r}, reference {want!r}"]


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int], list]      # seed -> rounds of inputs
    round_s: float                   # nominal seconds per round at the recorded commit
    warmup: tuple
    prepare: Callable                # (input, seed) -> job argument, untimed
    job: Callable                    # job argument -> outputs, timed
    check: Callable                  # (input, outputs, reference) -> failures
    attrs: Callable                  # (input, outputs) -> trace attributes
    perturb: Callable                # (input, reference) -> copy with one value moved
    bypass: str                      # per-layer count that must stay 0 on this workload
    rows: tuple                      # traced job rows: (input fields, span names)


# ---------------------------------------------------------------------------
# planar_certify: `waveletsets tiles w1|w2 --depth D --verify`
# ---------------------------------------------------------------------------

PLANAR_FIXTURES = ("w1", "w2")
PLANAR_DEPTHS = tuple(range(3, 11))
PLANAR_TAILS = (1, 2, 3)


def planar_plan(seed: int) -> list:
    """Three rounds of 16 jobs, one per (fixture, depth), that together cover
    the menu, so a run of all three measures the same jobs for every seed in
    a seeded order: the jobs near the tail percentile are few and of unequal
    cost, and with a seeded part of the menu the tail followed the draw.
    Each tail term adds stand-in boxes and about 15 % to a w1 job, so
    tail_terms is spread as a Latin square: every round has each value at
    two or three seeded depths of each fixture, and the rounds cost about the
    same (the traced run compares one round with the next)."""
    rng = random.Random(seed)
    k = len(PLANAR_TAILS)
    rounds = [[] for _ in range(k)]
    for f in PLANAR_FIXTURES:
        for i, d in enumerate(rng.sample(PLANAR_DEPTHS, len(PLANAR_DEPTHS))):
            for r in range(k):
                rounds[r].append((f, d, PLANAR_TAILS[(i + r) % k]))
    return [rng.sample(jobs, len(jobs)) for jobs in rounds]


def planar_job(inp):
    fixture, depth, tail_terms = inp
    fx = getattr(tiles, "build_" + fixture)(depth, tail_terms)
    identity = fx.measure_identity_holds
    rep = tiles.three_way_check(fx.wavelet_set, reflections.centered_square_figure(), (2, 2))
    return {
        "boxes": len(fx.wavelet_set.boxes),
        "identity": identity,
        "residuals": [str(rep.translation_residual), str(rep.dilation_residual),
                      str(rep.weyl_residual)],
        "within": rep.within(8 * fx.tail),
    }


def planar_check(inp, out, ref) -> list:
    fails = []
    if not out["identity"]:
        fails.append("measure identity m(W) + copies*tail = 4 fails")
    if not out["within"]:
        fails.append("residuals exceed 8*tail")
    fails += _mismatch("translation/dilation/weyl residuals", out["residuals"], ref["residuals"])
    return fails


def planar_perturb(inp, ref):
    """Move the translation residual of this input by 1/2^60."""
    entry = ref[_key(*inp)]
    first = str(F(entry["residuals"][0]) + F(1, 2 ** 60))
    return dict(ref, **{_key(*inp): dict(entry, residuals=[first] + entry["residuals"][1:])})


PLANAR = Workload(
    name="planar_certify",
    plan=planar_plan,
    round_s=11.6,
    warmup=("w2", 2, 1),
    prepare=lambda inp, seed: inp,
    job=planar_job,
    check=lambda inp, out, ref: planar_check(inp, out, ref[_key(*inp)]),
    attrs=lambda inp, out: {"fixture": inp[0], "depth": inp[1], "tail_terms": inp[2],
                            "boxes": out["boxes"]},
    perturb=planar_perturb,
    bypass="surfaces.moments.calls",
    rows=(("fixture", "depth", "tail_terms", "boxes"),
          ("tiles.checker.translation", "tiles.checker.dilation", "tiles.checker.weyl")),
)


# ---------------------------------------------------------------------------
# interval_construct: `waveletsets tiles construct` from [c-1, c+1)
# ---------------------------------------------------------------------------

INTERVAL_CENTRES = tuple(sorted({F(p, q) for q in range(1, 31) for p in range(-q, q + 1)
                                 if abs(F(p, q)) <= F(2, 3)}))
INTERVAL_EPSILONS = (F(1, 10 ** 6), F(1, 10 ** 12), F(1, 10 ** 18))
INTERVAL_MAX_ITERATIONS = 50


def interval_plan(seed: int) -> list:
    """Rounds of 3 jobs, one per epsilon; every job of a run has its own centre."""
    rng = random.Random(seed)
    centres = rng.sample(INTERVAL_CENTRES, len(INTERVAL_CENTRES))
    k = len(INTERVAL_EPSILONS)
    rounds = []
    for r in range(len(centres) // k):
        eps = rng.sample(INTERVAL_EPSILONS, k)
        rounds.append(list(zip(centres[r * k:(r + 1) * k], eps)))
    return rounds


def interval_job(inp):
    c, eps = inp
    start = tiles.DyadicBoxSet.from_box((c - 1, c + 1))
    res = tiles.construct_wavelet_set(start, tiles.shannon_set(), [2], kappa=2, epsilon=eps,
                                      max_iterations=INTERVAL_MAX_ITERATIONS)
    t_ok = res.translation_certificate.verify().ok
    d_ok = res.dilation_certificate.verify().ok
    crit = tiles.is_wavelet_set_1d(res.wavelet_set)
    return {
        "iterations": res.iterations,
        "boxes": len(res.wavelet_set.boxes),
        "final_residual": res.residual_history[-1],
        "verified": [t_ok, d_ok],
        "wavelet_1d": [str(crit["translation_residual"]), str(crit["dilation_residual"])],
    }


def interval_check(inp, out, ref) -> list:
    _, eps = inp
    fails = []
    if out["verified"] != [True, True]:
        fails.append(f"certificate re-verification {out['verified']}")
    if out["final_residual"] > eps:
        fails.append(f"final residual {out['final_residual']} > epsilon {eps}")
    fails += _mismatch("final residual", str(out["final_residual"]), ref["final_residual"])
    fails += _mismatch("is_wavelet_set_1d residuals", out["wavelet_1d"], ref["wavelet_1d"])
    return fails


def interval_perturb(inp, ref):
    """Scale the final residual of this input by 1025/1024."""
    entry = ref[_key(*inp)]
    moved = str(F(entry["final_residual"]) * F(1025, 1024))
    return dict(ref, **{_key(*inp): dict(entry, final_residual=moved)})


INTERVAL = Workload(
    name="interval_construct",
    plan=interval_plan,
    round_s=0.30,
    warmup=(F(0), F(1, 1000)),
    prepare=lambda inp, seed: inp,
    job=interval_job,
    check=lambda inp, out, ref: interval_check(inp, out, ref[_key(*inp)]),
    attrs=lambda inp, out: {"c": str(inp[0]), "epsilon": str(inp[1]),
                            "iterations": out["iterations"], "boxes": out["boxes"]},
    perturb=interval_perturb,
    bypass="surfaces.moments.calls",
    rows=(("epsilon", "boxes"), ("tiles.construct",)),
)


# ---------------------------------------------------------------------------
# fractal_build: `fif basis`, `surface fixture` and `mra build` at one scaling
# ---------------------------------------------------------------------------

FRACTAL_SCALINGS = tuple(sorted(
    {sign * F(p, q) for sign in (1, -1)
     for p, q in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (1, 6), (2, 7), (3, 7), (3, 8),
                  (2, 9), (4, 9), (3, 10))}))
FRACTAL_MODES = ("translation", "reflection")
FRACTAL_MRA = ((2, 1), (2, 2), (3, 1))
FIF_CELLS = 4
MESH_DEPTH = 6
QUADRATURE_DEPTH = 8
TABLE_WORDS = 2000
PR_TOLERANCE = 1e-9
# The depth-8 midpoint quadrature differs from the exact Gram matrix by up to
# 7.9e-3 (at s = 1/2) at the recorded commit; |s| <= 1/2 keeps the functions
# smooth enough for the quadrature to mean something (at s = 4/5 it is off by
# 2.3).  Each input may differ by at most 1.25 times its recorded error (plus
# float noise), so a faster quadrature must keep the same accuracy.
QUADRATURE_SLACK = 1.25
QUADRATURE_FLOOR = 1e-12


def fractal_plan(seed: int) -> list:
    """Rounds of 3 jobs, one per (kappa, degree); every job of a run has its own s."""
    rng = random.Random(seed)
    scalings = rng.sample(FRACTAL_SCALINGS, len(FRACTAL_SCALINGS))
    k = len(FRACTAL_MRA)
    rounds = []
    for r in range(len(scalings) // k):
        kd = rng.sample(FRACTAL_MRA, k)
        rounds.append([(s, rng.choice(FRACTAL_MODES), kd[i])
                       for i, s in enumerate(scalings[r * k:(r + 1) * k])])
    return rounds


def fif_part(s, mode) -> dict:
    """`fif basis --n 4 --depth 6 --csv --svg`, then the exact and quadrature Gram."""
    basis = fif.uniform_cardinal_basis(FIF_CELLS, s, mode)
    knots = [b.knot_values() for b in basis]
    meshes = [b.mesh(MESH_DEPTH) for b in basis]
    header = ["x"] + [f"y{k}" for k in range(len(basis))]
    xs = meshes[0][0]
    rows = [[x] + [m[1][i] for m in meshes] for i, x in enumerate(xs)]
    csv = render.csv_text(header, rows)
    svg = render.polylines_svg([list(zip(map(float, px), map(float, py))) for px, py in meshes])
    _write("fif_basis.csv", csv)
    _write("fif_basis.svg", svg)
    gram = fif.gram_matrix(basis)
    fif.orthonormalize(gram)
    quad = fif.gram_matrix_quadrature(basis, QUADRATURE_DEPTH)
    exact = np.array([[float(v) for v in row] for row in gram])
    return {
        "knots": [[str(v) for v in kv] for kv in knots],
        "csv": _digest(csv),
        "gram": _fraction_strings(gram),
        "quad_err": float(np.abs(quad - exact).max()),
    }


EX52 = surfaces.fixture("ex5.2").data


def surface_part(s) -> dict:
    """`surface fixture` with the ex5.2 data at scaling s, then the basis Gram."""
    spec = surfaces.triangle_spec(EX52, s)
    surf = surfaces.fixed_point(spec)
    mesh = surf.mesh(MESH_DEPTH)
    csv = render.surface_csv(mesh)
    _write("surface.csv", csv)
    _write("surface.svg", render.heightmap_svg(mesh))
    gram = surfaces.gram_matrix(surfaces.basis_surfaces(spec))
    return {"csv": _digest(csv), "gram": _fraction_strings(gram)}


def mra_table(s, kappa, degree, seed) -> dict:
    cfg = mra.MRAConfig(kappa=kappa, degree=degree, scaling=s)
    entropy = [seed, kappa, degree, s.numerator < 0, abs(s.numerator), s.denominator]
    rng = np.random.default_rng(entropy)
    width = cfg.cell_count * cfg.generator_count
    return {w: rng.standard_normal(width) for w in range(TABLE_WORDS)}


def mra_part(s, kappa, degree, table) -> dict:
    """`mra build --kappa K --degree D`, then analysis and synthesis of a table."""
    basis = mra.build(mra.MRAConfig(kappa=kappa, degree=degree, scaling=s))
    coarse, detail = basis.analyze(table)
    back = basis.synthesize(coarse, detail)
    pr_err = max(float(np.abs(back[w] - y).max()) for w, y in table.items())
    return {"gram": _fraction_strings(basis.atom_gram), "pr_err": pr_err}


def fractal_prepare(inp, seed):
    s, mode, (kappa, degree) = inp
    return inp, mra_table(s, kappa, degree, seed)


def fractal_job(arg):
    (s, mode, (kappa, degree)), table = arg
    return {"fif": fif_part(s, mode), "surface": surface_part(s),
            "mra": mra_part(s, kappa, degree, table)}


def fractal_refs(inp, ref) -> tuple:
    s, mode, (kappa, degree) = inp
    return (ref["fif"][_key(s, mode)], ref["surface"][_key(s)],
            ref["mra"][_key(s, kappa, degree)])


def fractal_check(inp, out, ref) -> list:
    fif_ref, surface_ref, mra_ref = fractal_refs(inp, ref)
    fails = []
    knots = out["fif"]["knots"]
    kronecker = [["1" if k == j else "0" for k in range(FIF_CELLS + 1)] for j in range(len(knots))]
    fails += _mismatch("fif knot values vs Kronecker data", knots, kronecker)
    fails += _mismatch("fif exact Gram", out["fif"]["gram"], fif_ref["gram"])
    fails += _mismatch("fif basis CSV digest", out["fif"]["csv"], fif_ref["csv"])
    limit = QUADRATURE_SLACK * fif_ref["quad_err"] + QUADRATURE_FLOOR
    if not out["fif"]["quad_err"] <= limit:
        fails.append(f"quadrature Gram error {out['fif']['quad_err']:.3e} > {limit:.3e}")
    fails += _mismatch("surface CSV digest", out["surface"]["csv"], surface_ref["csv"])
    fails += _mismatch("surface basis Gram", out["surface"]["gram"], surface_ref["gram"])
    fails += _mismatch("MRA atom Gram", out["mra"]["gram"], mra_ref["gram"])
    if not out["mra"]["pr_err"] <= PR_TOLERANCE:
        fails.append(f"perfect-reconstruction error {out['mra']['pr_err']:.3e} > {PR_TOLERANCE}")
    return fails


def fractal_perturb(inp, ref):
    """Move the first MRA atom Gram entry of this input by 1/2^60."""
    s, _, (kappa, degree) = inp
    key = _key(s, kappa, degree)
    mra_ref = dict(ref["mra"])
    gram = list(mra_ref[key]["gram"])
    gram[0] = str(F(gram[0]) + F(1, 2 ** 60))
    mra_ref[key] = dict(mra_ref[key], gram=gram)
    return dict(ref, mra=mra_ref)


FRACTAL = Workload(
    name="fractal_build",
    plan=fractal_plan,
    round_s=5.4,
    warmup=(F(1, 7), "translation", (2, 1)),
    prepare=fractal_prepare,
    job=fractal_job,
    check=fractal_check,
    attrs=lambda inp, out: {"s": str(inp[0]), "mode": inp[1], "kappa": inp[2][0],
                            "degree": inp[2][1]},
    perturb=fractal_perturb,
    bypass="tiles.boxset.calls",
    rows=(("kappa", "degree"), ("mra.build", "fif.mesh", "surfaces.mesh")),
)

WORKLOADS = {w.name: w for w in (PLANAR, INTERVAL, FRACTAL)}
