"""In-memory span tracer and the layer wrappers of the traced run.

The traced run installs wrappers around the layer-boundary functions of each
`waveletsets` module.  A wrapper records one span per call: name, start, end,
parent span and job id.  Spans stay in parallel arrays until the run ends and
are then written out in one file.  A span's self time is its duration minus
the time its child spans cover; counters and size rows are recorded by hooks
that run after the span closes, and the hook time is excluded from the
parent's self time.

Wrappers replace every binding of the wrapped object in every loaded
`waveletsets` module (so `mra.moments`, imported from `surfaces`, is wrapped
together with `surfaces.moments`), and methods are replaced on their class.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from waveletsets import fif, geometry, mra, reflections, render, surfaces, tiles


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job_attrs: dict = {}
        self.jobs: list = []  # per traced job: (id, attrs, stats, counts, maxima, sizes)
        self._stack: list = []  # frames [span index, name, start, child time]
        self._open: dict = defaultdict(int)
        self._job = -1
        self._new_job_state()
        self.last_dur = 0.0

    def _new_job_state(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.counts = defaultdict(float)
        self.maxima: dict = {}
        self.sizes = defaultdict(lambda: [0, 0.0])  # (row, size) -> calls, total s
        self.moment_keys: set = set()

    # -- spans -------------------------------------------------------------------

    def enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_end.append(0.0)
        self._open[name] += 1
        frame = [idx, name, 0.0, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        idx, name, start, child = frame
        self._stack.pop()
        self.span_end[idx] = end
        self._open[name] -= 1
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self.last_dur = dur

    def exclude(self, seconds: float) -> None:
        """Charge tracer bookkeeping to no span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def is_open(self, *names) -> bool:
        return any(self._open[n] for n in names)

    # -- jobs ----------------------------------------------------------------------

    def begin_job(self, job_id: int, attrs: dict) -> list:
        self._job = job_id
        self.job_attrs[job_id] = attrs
        self._new_job_state()
        return self.enter("job")

    def end_job(self, frame: list) -> None:
        self.leave(frame)
        self.counts["surfaces.moments.distinct"] += len(self.moment_keys)
        self.jobs.append((self._job, self.job_attrs[self._job], dict(self.stats),
                          dict(self.counts), dict(self.maxima), dict(self.sizes)))
        self._job = -1

    # -- counters from hooks -----------------------------------------------------------

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value) -> None:
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def size_row(self, row: str, size) -> None:
        entry = self.sizes[(row, size)]
        entry[0] += 1
        entry[1] += self.last_dur

    # -- output --------------------------------------------------------------------------

    def write(self, path: str, header: dict) -> int:
        """Write the spans as gzip text: a JSON header line, then one span a line."""
        header = dict(header, names=self.names,
                      jobs={str(k): v for k, v in self.job_attrs.items()},
                      columns=["span", "parent", "job", "name", "start_s", "end_s"])
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header, default=str) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i} {self.span_parent[i]} {self.span_job[i]} {self.span_name[i]} "
                         f"{self.span_start[i]:.9f} {self.span_end[i]:.9f}\n")
        return len(self.span_start)


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if hook is not None:
            t0 = perf_counter()
            hook(tracer, args, kwargs, result)
            tracer.exclude(perf_counter() - t0)
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


# -- hooks --------------------------------------------------------------------

BoxSet = tiles.DyadicBoxSet


def _boxset_op(tr, args, kwargs, result):
    n_in = len(args[0].boxes)
    if len(args) > 1 and isinstance(args[1], BoxSet):
        n_in += len(args[1].boxes)
    tr.count("tiles.boxset.boxes_in", n_in)
    if isinstance(result, BoxSet):
        tr.count("tiles.boxset.boxes_out", len(result.boxes))


def _boxset_init(tr, args, kwargs, result):
    bits = 0
    for box in args[0].boxes:
        for lo, hi in box:
            bits = max(bits, lo.denominator.bit_length(), hi.denominator.bit_length())
    tr.peak("tiles.boxset.den_bits_max", bits)


CHECKERS = ("tiles.checker.translation", "tiles.checker.dilation", "tiles.checker.weyl")


def _checker(tr, args, kwargs, result):
    tr.count("tiles.checker.pieces_kept", len(result.pieces))


def _piecemap_apply(tr, args, kwargs, result):
    # candidate maps tried by a checker; the inverse maps that carry a kept
    # image back are bookkeeping of the same candidate
    if tr.is_open(*CHECKERS) and not args[0].label.startswith("inv("):
        tr.count("tiles.checker.maps_applied")


def _three_way(tr, args, kwargs, result):
    tr.size_row("tiles.three_way_check (boxes)", (len(args[0].boxes),))


def _fixture(tr, args, kwargs, result):
    tr.size_row("tiles.fixture (depth, boxes)", (result.depth, len(result.wavelet_set.boxes)))


def _construct(tr, args, kwargs, result):
    tr.count("tiles.construct.iterations", result.iterations)


def _surface_key(surface):
    spec = surface.spec
    return (tuple(spec.vertices), tuple(u.key() for u in spec.maps),
            tuple(tuple(sorted(p.items())) for p in spec.data), spec.scaling)


def _surface_moments(tr, args, kwargs, result):
    tr.moment_keys.add(_surface_key(args[0]))


def _surface_mesh(tr, args, kwargs, result):
    tr.count("surfaces.mesh.points", len(result))
    tr.size_row("surfaces.mesh (points)", (len(result),))


def _fif_mesh(tr, args, kwargs, result):
    tr.count("fif.mesh.points", len(result[0]))
    tr.size_row("fif.mesh (points)", (len(result[0]),))


def _quadrature(tr, args, kwargs, result):
    functions = args[0]
    depth = _arg(args, kwargs, 1, "depth", 12)
    tr.count("fif.quadrature.nodes", len(functions) * len(functions[0].cells) ** depth)


def _mra_build(tr, args, kwargs, result):
    cfg = args[0]
    tr.size_row("mra.build (kappa, degree, atoms)", (cfg.kappa, cfg.degree, cfg.generator_count))


def _analyze(tr, args, kwargs, result):
    tr.count("mra.transform.words", len(args[1]))


def _subdivide(tr, args, kwargs, result):
    tr.count("reflections.subdivide.cells", len(result))


RENDER_NAMES = ("render.csv_text", "render.polylines_svg", "render.heightmap_svg",
                "render.surface_csv", "render.function_csv", "render.boxes_svg")


def _render(tr, args, kwargs, result):
    if not tr.is_open(*RENDER_NAMES):
        tr.count("render.bytes", len(result))


# (owner, attribute, span name, hook); owner is a module or a class
TARGETS = [
    # tiles: box-set algebra
    (BoxSet, "__init__", "tiles.boxset.init", _boxset_init),
    (BoxSet, "union", "tiles.boxset.union", _boxset_op),
    (BoxSet, "intersect", "tiles.boxset.intersect", _boxset_op),
    (BoxSet, "subtract", "tiles.boxset.subtract", _boxset_op),
    (BoxSet, "symmetric_difference_measure", "tiles.boxset.symdiff", _boxset_op),
    (BoxSet, "equals_ae", "tiles.boxset.equals_ae", _boxset_op),
    (BoxSet, "contains_ae", "tiles.boxset.contains_ae", _boxset_op),
    (BoxSet, "translate", "tiles.boxset.translate", _boxset_op),
    (BoxSet, "scale", "tiles.boxset.scale", _boxset_op),
    (BoxSet, "transform", "tiles.boxset.transform", _boxset_op),
    (BoxSet, "reflect_axis", "tiles.boxset.reflect_axis", _boxset_op),
    (BoxSet, "measure", "tiles.boxset.measure", None),
    (BoxSet, "bounding_box", "tiles.boxset.bounding_box", None),
    # tiles: congruence checkers and certificates
    (tiles, "translation_congruent", "tiles.checker.translation", _checker),
    (tiles, "dilation_congruent", "tiles.checker.dilation", _checker),
    (tiles, "weyl_congruent", "tiles.checker.weyl", _checker),
    (tiles.PieceMap, "apply", "tiles.checker.piecemap_apply", _piecemap_apply),
    (tiles, "three_way_check", "tiles.three_way_check", _three_way),
    (tiles.CongruenceCertificate, "verify", "tiles.verify", None),
    # tiles: fixtures, constructor, 1-D criterion
    (tiles, "build_w1", "tiles.fixture.w1", _fixture),
    (tiles, "build_w2", "tiles.fixture.w2", _fixture),
    (tiles, "shannon_set", "tiles.fixture.shannon", None),
    (tiles, "construct_wavelet_set", "tiles.construct", _construct),
    (tiles, "is_wavelet_set_1d", "tiles.wavelet_1d", None),
    # surfaces: exact moments and inner products
    (surfaces, "moments", "surfaces.moments", _surface_moments),
    (surfaces, "inner_product", "surfaces.inner_product", None),
    (surfaces, "domain_integral", "surfaces.domain_integral", None),
    (surfaces, "gram_matrix", "surfaces.gram_matrix", None),
    # surfaces: construction and display
    (surfaces, "fixture", "surfaces.fixture", None),
    (surfaces, "triangle_spec", "surfaces.triangle_spec", None),
    (surfaces, "fixed_point", "surfaces.fixed_point", None),
    (surfaces, "validate_condition_star", "surfaces.validate", None),
    (surfaces, "basis_surfaces", "surfaces.basis_surfaces", None),
    (surfaces.FractalSurface, "mesh", "surfaces.mesh", _surface_mesh),
    (surfaces.FractalSurface, "evaluate", "surfaces.evaluate", None),
    # fif
    (fif, "uniform_cardinal_basis", "fif.uniform_cardinal_basis", None),
    (fif.FractalFunction, "mesh", "fif.mesh", _fif_mesh),
    (fif.FractalFunction, "knot_values", "fif.knot_values", None),
    (fif.FractalFunction, "evaluate", "fif.evaluate", None),
    (fif, "gram_matrix", "fif.gram_exact", None),
    (fif, "gram_matrix_quadrature", "fif.gram_quadrature", _quadrature),
    (fif, "inner_product", "fif.inner_product", None),
    (fif, "moments", "fif.moments", None),
    (fif, "orthonormalize", "fif.orthonormalize", None),
    # mra
    (mra, "build", "mra.build", _mra_build),
    (mra.MultiresolutionBasis, "analyze", "mra.analyze", _analyze),
    (mra.MultiresolutionBasis, "synthesize", "mra.synthesize", None),
    # reflections
    (reflections, "subdivide", "reflections.subdivide", _subdivide),
    (reflections, "centered_square_figure", "reflections.centered_square_figure", None),
    # geometry
    (geometry.AffineMap, "apply", "geometry.affine_apply", None),
    (geometry.AffineIsometry, "apply", "geometry.affine_apply", None),
    # render
    (render, "csv_text", "render.csv_text", _render),
    (render, "polylines_svg", "render.polylines_svg", _render),
    (render, "heightmap_svg", "render.heightmap_svg", _render),
    (render, "surface_csv", "render.surface_csv", _render),
    (render, "function_csv", "render.function_csv", _render),
    (render, "boxes_svg", "render.boxes_svg", _render),
]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "waveletsets" or name.startswith("waveletsets."))]


class Patches:
    """Installs and removes the wrappers of TARGETS around one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def install(self) -> None:
        modules = _package_modules()
        originals = set()
        for owner, attr, name, hook in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(_wrap(self.tracer, name, original.fget, hook))
                else:
                    wrapped = _wrap(self.tracer, name, original, hook)
                self._set(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            originals.add(id(original))
            wrapped = _wrap(self.tracer, name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{key} still holds an unwrapped function")

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr), value))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

BOXSET_PREFIX = "tiles.boxset."
CHECKER_SELF = CHECKERS + ("tiles.checker.piecemap_apply",)

# name -> (unit, better); all values are means over the traced jobs unless
# the unit says otherwise (maxima and ratios are over the whole traced run)
PER_LAYER = {
    "tiles.boxset.calls": ("calls/job", "lower"),
    "tiles.boxset.self_s": ("s/job", "lower"),
    "tiles.boxset.boxes_in": ("boxes/job", "lower"),
    "tiles.boxset.boxes_out": ("boxes/job", "lower"),
    "tiles.boxset.den_bits_max": ("bits", "lower"),
    "tiles.checker.translation_s": ("s/job", "lower"),
    "tiles.checker.dilation_s": ("s/job", "lower"),
    "tiles.checker.weyl_s": ("s/job", "lower"),
    "tiles.checker.self_s": ("s/job", "lower"),
    "tiles.checker.maps_applied": ("maps/job", "lower"),
    "tiles.checker.pieces_kept": ("pieces/job", "lower"),
    "tiles.checker.keep_ratio": ("ratio", "higher"),
    "tiles.fixture_s": ("s/job", "lower"),
    "tiles.verify_s": ("s/job", "lower"),
    "tiles.verify.calls": ("calls/job", "lower"),
    "tiles.construct_s": ("s/job", "lower"),
    "tiles.construct.iterations": ("iterations/job", "lower"),
    "tiles.wavelet_1d_s": ("s/job", "lower"),
    "surfaces.moments.calls": ("calls/job", "lower"),
    "surfaces.moments.distinct": ("surfaces/job", "lower"),
    "surfaces.moments.useful_ratio": ("ratio", "higher"),
    "surfaces.moments.self_s": ("s/job", "lower"),
    "surfaces.inner_product.calls": ("calls/job", "lower"),
    "surfaces.inner_product.self_s": ("s/job", "lower"),
    "surfaces.domain_integral.calls": ("calls/job", "lower"),
    "surfaces.domain_integral.self_s": ("s/job", "lower"),
    "surfaces.mesh.points": ("points/job", "lower"),
    "surfaces.mesh_s": ("s/job", "lower"),
    "surfaces.evaluate.calls": ("calls/job", "lower"),
    "surfaces.evaluate.self_s": ("s/job", "lower"),
    "surfaces.validate_s": ("s/job", "lower"),
    "fif.mesh.points": ("points/job", "lower"),
    "fif.mesh_s": ("s/job", "lower"),
    "fif.knot_values_s": ("s/job", "lower"),
    "fif.gram_exact_s": ("s/job", "lower"),
    "fif.gram_quadrature_s": ("s/job", "lower"),
    "fif.quadrature.nodes": ("nodes/job", "lower"),
    "fif.moments.calls": ("calls/job", "lower"),
    "mra.build_s": ("s/job", "lower"),
    "mra.build.self_s": ("s/job", "lower"),
    "mra.transform_s": ("s/job", "lower"),
    "mra.transform.words": ("words/job", "lower"),
    "mra.pr_err_max": ("abs", "lower"),
    "reflections.subdivide_s": ("s/job", "lower"),
    "reflections.subdivide.cells": ("cells/job", "lower"),
    "geometry.affine_apply.calls": ("calls/job", "lower"),
    "geometry.affine_apply.self_s": ("s/job", "lower"),
    "render.self_s": ("s/job", "lower"),
    "render.bytes": ("bytes/job", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, pr_err_max: float, overhead_s: float, factors: dict) -> dict:
    """Per-layer metrics over the traced jobs (means per job); span times are
    divided by each job's host speed factor (hostspeed.py), job id -> factor."""
    n = max(1, len(tracer.jobs))
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    maxima: dict = {}
    for job_id, _, stats, job_counts, job_max, _ in tracer.jobs:
        for name, (c, t, s) in stats.items():
            calls[name] += c
            total[name] += t / factors[job_id]
            self_s[name] += s / factors[job_id]
        for name, v in job_counts.items():
            counts[name] += v
        for name, v in job_max.items():
            maxima[name] = max(maxima.get(name, v), v)

    def group(table, names):
        return sum(table[k] for k in names)

    boxset = [k for k in total if k.startswith(BOXSET_PREFIX)]
    applied = counts["tiles.checker.maps_applied"]
    m_calls = calls["surfaces.moments"]
    values = {
        "tiles.boxset.calls": group(calls, boxset) / n,
        "tiles.boxset.self_s": group(self_s, boxset) / n,
        "tiles.boxset.boxes_in": counts["tiles.boxset.boxes_in"] / n,
        "tiles.boxset.boxes_out": counts["tiles.boxset.boxes_out"] / n,
        "tiles.boxset.den_bits_max": maxima.get("tiles.boxset.den_bits_max", 0),
        "tiles.checker.translation_s": total["tiles.checker.translation"] / n,
        "tiles.checker.dilation_s": total["tiles.checker.dilation"] / n,
        "tiles.checker.weyl_s": total["tiles.checker.weyl"] / n,
        "tiles.checker.self_s": group(self_s, CHECKER_SELF) / n,
        "tiles.checker.maps_applied": applied / n,
        "tiles.checker.pieces_kept": counts["tiles.checker.pieces_kept"] / n,
        "tiles.checker.keep_ratio": (counts["tiles.checker.pieces_kept"] / applied
                                     if applied else 0.0),
        "tiles.fixture_s": group(total, ("tiles.fixture.w1", "tiles.fixture.w2")) / n,
        "tiles.verify_s": total["tiles.verify"] / n,
        "tiles.verify.calls": calls["tiles.verify"] / n,
        "tiles.construct_s": total["tiles.construct"] / n,
        "tiles.construct.iterations": counts["tiles.construct.iterations"] / n,
        "tiles.wavelet_1d_s": total["tiles.wavelet_1d"] / n,
        "surfaces.moments.calls": m_calls / n,
        "surfaces.moments.distinct": counts["surfaces.moments.distinct"] / n,
        "surfaces.moments.useful_ratio": (counts["surfaces.moments.distinct"] / m_calls
                                          if m_calls else 0.0),
        "surfaces.moments.self_s": self_s["surfaces.moments"] / n,
        "surfaces.inner_product.calls": calls["surfaces.inner_product"] / n,
        "surfaces.inner_product.self_s": self_s["surfaces.inner_product"] / n,
        "surfaces.domain_integral.calls": calls["surfaces.domain_integral"] / n,
        "surfaces.domain_integral.self_s": self_s["surfaces.domain_integral"] / n,
        "surfaces.mesh.points": counts["surfaces.mesh.points"] / n,
        "surfaces.mesh_s": total["surfaces.mesh"] / n,
        "surfaces.evaluate.calls": calls["surfaces.evaluate"] / n,
        "surfaces.evaluate.self_s": self_s["surfaces.evaluate"] / n,
        "surfaces.validate_s": total["surfaces.validate"] / n,
        "fif.mesh.points": counts["fif.mesh.points"] / n,
        "fif.mesh_s": total["fif.mesh"] / n,
        "fif.knot_values_s": total["fif.knot_values"] / n,
        "fif.gram_exact_s": total["fif.gram_exact"] / n,
        "fif.gram_quadrature_s": total["fif.gram_quadrature"] / n,
        "fif.quadrature.nodes": counts["fif.quadrature.nodes"] / n,
        "fif.moments.calls": calls["fif.moments"] / n,
        "mra.build_s": total["mra.build"] / n,
        "mra.build.self_s": self_s["mra.build"] / n,
        "mra.transform_s": group(total, ("mra.analyze", "mra.synthesize")) / n,
        "mra.transform.words": counts["mra.transform.words"] / n,
        "mra.pr_err_max": pr_err_max,
        "reflections.subdivide_s": total["reflections.subdivide"] / n,
        "reflections.subdivide.cells": counts["reflections.subdivide.cells"] / n,
        "geometry.affine_apply.calls": calls["geometry.affine_apply"] / n,
        "geometry.affine_apply.self_s": self_s["geometry.affine_apply"] / n,
        "render.self_s": group(self_s, RENDER_NAMES) / n,
        "render.bytes": counts["render.bytes"] / n,
        "trace.overhead_s": overhead_s,
    }
    assert set(values) == set(PER_LAYER)
    return values


def size_rows(tracer: Tracer, factors: dict) -> list:
    """(row, size, calls, mean scaled s per call) over the traced jobs, by size."""
    merged = defaultdict(lambda: [0, 0.0])
    for job_id, *_, sizes in tracer.jobs:
        for key, (c, t) in sizes.items():
            merged[key][0] += c
            merged[key][1] += t / factors[job_id]
    return [(row, size, c, t / c) for (row, size), (c, t) in sorted(merged.items())]


def job_rows(tracer: Tracer, factors: dict, key_fields: tuple, layer_names: tuple) -> list:
    """Traced jobs grouped by the given input fields, with mean scaled job and
    layer times."""
    groups = defaultdict(list)
    for job_id, attrs, stats, *_ in tracer.jobs:
        if all(f in attrs for f in key_fields):
            factor = factors[job_id]
            groups[tuple(attrs[f] for f in key_fields)].append(
                (attrs, {name: (c, t / factor) for name, (c, t, _) in stats.items()}))
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(x).zfill(8) for x in k)):
        members = groups[key]
        row = {f: v for f, v in zip(key_fields, key)}
        row["jobs"] = len(members)
        row["job_s"] = sum(st["job"][1] for _, st in members) / len(members)
        for name in layer_names:
            row[name] = sum(st[name][1] for _, st in members if name in st) / len(members)
        rows.append(row)
    return rows

