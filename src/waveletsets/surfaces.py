"""Self-affine surfaces over foldable figures.

A surface is specified by similitudes u_1..u_N mapping a polytope domain
onto its cells, polynomial data functions lambda_1..lambda_N, and vertical
scalings s_1..s_N with |s_i| < 1 (one value shared by all cells, or one per
cell).  The surface is the unique bounded fixed point of the cell-wise
transfer operator

    (B f)(x) = lambda_i(u_i^{-1} x) + s_i * f(u_i^{-1} x)   for x in cell i,

continuous whenever the data functions agree on the preimages of shared cell
faces.  All vertex and mesh computations are exact over the rationals.  This
module is the one self-affine engine: a fractal interpolation function
(`waveletsets.fif`) is the case of an interval, tiled by its cells.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .geometry import AffineMap, Mat, Vec
from .reflections import right_triangle_figure

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# multivariate polynomials: dict {exponent tuple: Fraction}
# ---------------------------------------------------------------------------


def poly_val(p: dict, x: Sequence) -> Fraction:
    total = Fraction(0)
    for expo, c in p.items():
        term = c
        for xi, e in zip(x, expo):
            for _ in range(e):
                term *= xi
        total += term
    return total


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for expo, c in q.items():
        v = out.get(expo, ZERO) + c
        if v:
            out[expo] = v
        else:
            out.pop(expo, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            expo = tuple(a + b for a, b in zip(ea, eb))
            v = out.get(expo, ZERO) + ca * cb
            if v:
                out[expo] = v
            else:
                out.pop(expo, None)
    return out


def poly_degree(p: dict) -> int:
    return max((sum(expo) for expo, c in p.items() if c), default=0)


def poly_compose_affine(p: dict, amap: AffineMap) -> dict:
    """p(Ax + b) expanded in the monomial basis."""
    n = amap.dim
    subs = []
    for k in range(n):
        row = {(0,) * n: Fraction(amap.shift[k])}
        for j in range(n):
            c = Fraction(amap.linear.rows[k][j])
            if c:
                expo = [0] * n
                expo[j] = 1
                row[tuple(expo)] = c
        subs.append(row)
    out: dict = {}
    for expo, c in p.items():
        term = {(0,) * n: Fraction(c)}
        for k, e in enumerate(expo):
            for _ in range(e):
                term = poly_mul(term, subs[k])
        out = poly_add(out, term)
    return {e: v for e, v in out.items() if v}


def as_poly(obj, dim: int) -> dict:
    """Normalize data to a monomial dict; tuples are affine (c0, c1..cn)."""
    if isinstance(obj, dict):
        return {tuple(int(e) for e in expo): Fraction(c) for expo, c in obj.items() if c}
    coeffs = [Fraction(c) for c in obj]
    if len(coeffs) != dim + 1:
        raise ValueError("affine data needs 1 + dim coefficients")
    p = {}
    if coeffs[0]:
        p[(0,) * dim] = coeffs[0]
    for j, c in enumerate(coeffs[1:]):
        if c:
            expo = [0] * dim
            expo[j] = 1
            p[tuple(expo)] = c
    return p


# ---------------------------------------------------------------------------
# exact polynomial integrals over simplices and boxes
# ---------------------------------------------------------------------------


def _standard_simplex_integral(expo: tuple) -> Fraction:
    num = 1
    for a in expo:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(len(expo) + sum(expo)))


def _monomials_upto(dim: int, degree: int) -> list:
    expos = [()]
    for _ in range(dim):
        expos = [e + (k,) for e in expos for k in range(degree + 1)]
    return sorted(e for e in expos if sum(e) <= degree)


def _box_bounds(vertices: Sequence) -> Optional[list]:
    dim = len(vertices[0])
    if len(vertices) != 2 ** dim:
        return None
    los = [min(v[i] for v in vertices) for i in range(dim)]
    his = [max(v[i] for v in vertices) for i in range(dim)]
    corners = {tuple(v) for v in vertices}
    expect = {()}
    for lo, hi in zip(los, his):
        expect = {c + (t,) for c in expect for t in (lo, hi)}
    return list(zip(los, his)) if corners == expect else None


def _domain_geometry(verts: Sequence) -> tuple:
    """(box bounds, simplex chart, simplex volume) of a simplex or an axis box."""
    dim = len(verts[0])
    if len(verts) == dim + 1:
        edges = Mat([[verts[k + 1][i] - verts[0][i] for k in range(dim)] for i in range(dim)])
        volume = abs(edges.det())
        if not volume:
            if dim == 1:
                raise ValueError(f"degenerate domain: the interval [{verts[0][0]}, {verts[1][0]}] "
                                 "has zero length")
            corners = ", ".join("(" + ", ".join(map(str, v)) + ")" for v in verts)
            raise ValueError(f"degenerate domain: the simplex {corners} is flat")
        return None, AffineMap(edges, verts[0]), volume
    box = _box_bounds(verts)
    if box is None:
        raise ValueError("domain must be a simplex or an axis-aligned box")
    if any(lo == hi for lo, hi in box):
        sides = " x ".join(f"[{lo}, {hi}]" for lo, hi in box)
        raise ValueError(f"degenerate domain: the box {sides} is flat")
    return box, None, None


def domain_integral(p: dict, spec: "SurfaceSpec") -> Fraction:
    """Exact integral of a polynomial over a spec's simplex or axis box.

    One lookup per monomial in the integral table of the spec's system.
    """
    return spec._system.integral(p)


# ---------------------------------------------------------------------------
# surface specification
# ---------------------------------------------------------------------------


class _System:
    """All a spec family derives from its vertices, similitudes and scalings,
    shared by `SurfaceSpec.with_data`.  Monomial integrals, inverted moment
    systems, the vertex interpolation inverse, the vertex images u_i(v) and
    the 1-D mesh points per depth (filled by `fif`) come on first use.
    Nothing here depends on the data, and no pull-back chain is kept here:
    each member walks its own (`SelfAffine._evaluate`)."""

    def __init__(self, vertices: tuple, maps: tuple, scalings: tuple):
        self.vertices, self.maps, self.scalings = vertices, maps, scalings
        self.dim = len(vertices[0])
        self.box, self.chart, self.volume = _domain_geometry(vertices)
        self.inverses = tuple(u.inverse() for u in maps)
        self.dets = tuple(abs(u.linear.det()) for u in maps)
        self.chart_inv = None if self.chart is None else self.chart.inverse()
        self.pair_denominator = 1 - sum((d * s * s for d, s in zip(self.dets, scalings)), ZERO)
        self._integrals: dict = {}
        self._moment_systems: dict = {}
        self._interpolation = None
        self.orbits: dict = {}

    @functools.cached_property
    def images(self) -> tuple:
        """u_i(v) for every similitude u_i (outer) and vertex v (inner)."""
        return tuple(tuple(u.apply(v) for v in self.vertices) for u in self.maps)

    def _monomial_integral(self, expo: tuple) -> Fraction:
        if self.chart is not None:
            q = poly_compose_affine({expo: ONE}, self.chart)
            return self.volume * sum((c * _standard_simplex_integral(e) for e, c in q.items()), ZERO)
        return math.prod((Fraction(hi ** (e + 1) - lo ** (e + 1), e + 1)
                          for (lo, hi), e in zip(self.box, expo)), start=ONE)

    def integral(self, p: dict) -> Fraction:
        for expo in p.keys() - self._integrals.keys():
            self._integrals[expo] = self._monomial_integral(expo)
        return sum((c * self._integrals[expo] for expo, c in p.items()), ZERO)

    def moment_system(self, degree: int) -> tuple:
        """(monomials, comps, inverse): comps[r][i] is monomial r composed with
        map i, and the inverse is that of I - sum_i det_i s_i (comps[.][i])."""
        if degree not in self._moment_systems:
            expos = _monomials_upto(self.dim, degree)
            pos = {e: k for k, e in enumerate(expos)}
            comps = [[poly_compose_affine({e: ONE}, u) for u in self.maps] for e in expos]
            rows = [[ONE if r == c else ZERO for c in range(len(expos))] for r in range(len(expos))]
            for row, row_comps in zip(rows, comps):
                for det, s, comp in zip(self.dets, self.scalings, row_comps):
                    for ce, cc in comp.items():
                        row[pos[ce]] -= det * s * cc
            self._moment_systems[degree] = (expos, comps, Mat(rows).inverse().rows)
        return self._moment_systems[degree]

    def interpolate(self, values: Sequence) -> dict:
        """The affine polynomial taking the given values at the vertices of a simplex."""
        if self._interpolation is None:
            self._interpolation = Mat([[ONE, *v] for v in self.vertices]).inverse().rows
        return as_poly([sum((a * b for a, b in zip(row, values)), ZERO)
                        for row in self._interpolation], self.dim)


@dataclass(frozen=True, eq=False)
class SurfaceSpec:
    """Domain polytope, cell similitudes, polynomial data, vertical scaling.

    The scaling is one Fraction shared by all cells or a tuple with one value
    per similitude; `_scalings` always holds the per-cell tuple.  What does
    not depend on the data is in `_system`, which `with_data` shares.
    """

    vertices: tuple
    maps: tuple
    data: tuple
    scaling: Fraction | tuple

    def __post_init__(self):
        verts = tuple(Vec(Fraction(a) for a in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "maps", tuple(self.maps))
        if isinstance(self.scaling, tuple):
            object.__setattr__(self, "scaling", tuple(Fraction(s) for s in self.scaling))
            scalings = self.scaling
        else:
            object.__setattr__(self, "scaling", Fraction(self.scaling))
            scalings = (self.scaling,) * len(self.maps)
        object.__setattr__(self, "_scalings", scalings)
        if any(abs(s) >= 1 for s in scalings):
            raise ValueError("vertical scaling must satisfy |s| < 1")
        self._set_data(self.data)
        if len(scalings) != len(self.maps):
            raise ValueError("one vertical scaling per similitude required")
        system = _System(verts, self.maps, scalings)
        object.__setattr__(self, "_system", system)
        object.__setattr__(self, "_inverses", system.inverses)

    def _set_data(self, data: Sequence) -> None:
        object.__setattr__(self, "data", tuple(as_poly(d, self.dim) for d in data))
        if len(self.data) != len(self.maps):
            raise ValueError("one data function per similitude required")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def contains(self, x: Sequence) -> bool:
        x = Vec(Fraction(a) for a in x)
        box = self._system.box
        if box is not None:
            return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, box))
        t = self._system.chart_inv.apply(x)
        return all(ti >= 0 for ti in t) and sum(t) <= 1

    def cell_of(self, x: Sequence) -> int:
        for i, inv in enumerate(self._inverses):
            if self.contains(inv.apply(x)):
                return i
        raise ValueError("point is outside the domain")

    def with_data(self, data: Sequence) -> "SurfaceSpec":
        """A spec on the same system with other data; nothing else is recomputed."""
        spec = copy.copy(self)
        spec._set_data(data)
        return spec

    def data_bound(self) -> Fraction:
        """sup over cells of |lambda_i| on the domain (coarse for degree > 1)."""
        big = max(max(abs(c) for c in v) for v in self.vertices)
        radius = max(ONE, big)
        peak = Fraction(0)
        for p in self.data:
            if poly_degree(p) <= 1:
                peak = max(peak, max((abs(poly_val(p, v)) for v in self.vertices), default=ZERO))
            else:
                peak = max(peak, sum((abs(c) * radius ** sum(expo) for expo, c in p.items()), ZERO))
        return peak


# ---------------------------------------------------------------------------
# face agreement of the data functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceViolation:
    cells: tuple
    point: Vec
    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class ConditionReport:
    valid: bool
    violations: tuple


def shared_faces(spec: SurfaceSpec) -> list:
    """Pairs (i, j, shared cell vertices) for cells meeting along a facet."""
    cells = [set(ws) for ws in spec._system.images]
    out = []
    for i, j in combinations(range(len(cells)), 2):
        common = sorted(cells[i] & cells[j])
        if len(common) >= spec.dim:
            out.append((i, j, tuple(common)))
    return out


def _face_samples(points: tuple, degree: int) -> list:
    steps = degree + 1
    grid = [Fraction(k, steps) for k in range(steps + 1)]
    base = points[0]
    dirs = [p - base for p in points[1:]]
    samples = [base]
    if not dirs:
        return samples
    combos = [()]
    for _ in dirs:
        combos = [c + (t,) for c in combos for t in grid]
    out = []
    for c in combos:
        if sum(c) <= 1:
            pt = base
            for t, d in zip(c, dirs):
                pt = pt + d.scale(t)
            out.append(pt)
    return out


def validate_condition_star(spec: SurfaceSpec) -> ConditionReport:
    """Check the data functions agree on preimages of shared cell faces."""
    degree = max((poly_degree(p) for p in spec.data), default=0)
    violations = []
    for i, j, common in shared_faces(spec):
        for pt in _face_samples(common, degree):
            left = poly_val(spec.data[i], spec._inverses[i].apply(pt))
            right = poly_val(spec.data[j], spec._inverses[j].apply(pt))
            if left != right:
                violations.append(FaceViolation((i, j), pt, left, right))
    return ConditionReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# the surface itself
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    value: Fraction | float
    error_bound: float  # zero means exact


class SelfAffine:
    """The fixed point of a spec's transfer operator, evaluated by pull-back.

    A subclass picks the cell of a point (`_cell`), maps a point back
    through a cell (`_inverse`) and evaluates a cell's data at a pulled point
    (`_data`); the bound, the pull-back evaluation and the operator
    iteration are shared.  Each member walks its own chains and memoizes
    the values they resolve; nothing of a walk is kept for the family.
    """

    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        self._memo: dict = {}

    def bound(self) -> Fraction:
        """A uniform bound on |f| over the domain; the error bounds of
        `evaluate` rest on it."""
        return self.spec.data_bound() / (1 - max(abs(s) for s in self.spec._scalings))

    def _pull(self, z, i: int) -> tuple:
        """The point z pulled back through cell i, the cell's data there and its scaling."""
        z_next = self._inverse(z, i)
        return z_next, self._data(i, z_next), self.spec._scalings[i]

    def _evaluate(self, x, depth: int) -> EvalResult:
        """f(x) by pulling x back through its own cell, step by step (`_pull`).

        Exact when, within depth steps, a pulled point is one this member
        already knows, or repeats a point of the chain, which closes a cycle
        z -> ... -> z with f(z) = C + S f(z).  The chain then unwinds and
        memoizes the values it resolves.  Otherwise the chain is unrolled
        depth times and the tail bounded by `bound`.
        """
        memo = self._memo
        if x in memo:
            return EvalResult(memo[x], 0.0)
        points, index_of, steps = [x], {x: 0}, []  # steps[t]: data and scaling of pull t
        z = x
        for _ in range(depth):
            z, a, sk = self._pull(z, self._cell(z))
            steps.append((a, sk))
            if z in memo:
                value, stop = memo[z], len(points)
                break
            if z in index_of:
                stop = index_of[z]
                C, S = ZERO, ONE
                for a, sk in steps[stop:]:
                    C, S = C + S * a, S * sk
                value = memo[z] = C / (1 - S)
                break
            index_of[z] = len(points)
            points.append(z)
        else:
            A, S = ZERO, ONE
            for a, sk in steps:
                A, S = A + S * a, S * sk
            return EvalResult(A, float(abs(S) * self.bound()))
        # unwind the prefix of the chain down to the resolved point
        for t in reversed(range(stop)):
            a, sk = steps[t]
            value = a + sk * value
            memo[points[t]] = value
        return EvalResult(value, 0.0)

    def _iterates(self, cells: dict, steps: int) -> list:
        """Transfer-operator iterates from zero, as float arrays in the order of
        `cells`, which maps each mesh point to the cell it pulls back through
        onto a point of the next coarser mesh (a mesh of the cells' images)."""
        index = {p: k for k, p in enumerate(cells)}
        src, lam, s = zip(*(self._pull(p, i) for p, i in cells.items()))
        src, lam, s = np.array([index[z] for z in src]), np.array(lam, float), np.array(s, float)
        out = [np.zeros(len(cells))]
        for _ in range(steps):
            out.append(lam + s * out[-1][src])
        return out


def _numerators(values: Sequence) -> tuple:
    """(d, [v d for v in values]): Fractions over one denominator d, the lcm
    of theirs, as integer numerators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _fractions(den: int, *columns) -> list:
    """Each column of integer numerators over den as a list of Fractions.

    One Fraction is made per distinct numerator and shared by every place
    it occurs in the columns.  They are made in order of first occurrence,
    so a reader that walks the columns in order walks memory in order too.
    """
    made = {n: Fraction(n, den) for n in dict.fromkeys(itertools.chain(*columns))}
    return [list(map(made.__getitem__, col)) for col in columns]


def _affine_column(cols: list, row: list, shift: int) -> list:
    """sum_j row[j] * cols[j] + shift, one integer per point."""
    out = [shift] * len(cols[0])
    for a, col in zip(row, cols):
        if a:
            out = [h + a * x for h, x in zip(out, col)]
    return out


def _monomial(cols: list, expo: tuple) -> list:
    """prod_j cols[j] ** expo[j], one integer per point."""
    out = [1] * len(cols[0])
    for col, k in zip(cols, expo):
        if k:
            out = [h * x ** k for h, x in zip(out, col)]
    return out


def _level(spec: SurfaceSpec, cols: list, dp: int, vals: Optional[list] = None,
           dv: int = 1) -> tuple:
    """One level of the integer cascade behind the meshes of `FractalSurface`
    and `fif.FractalFunction`.

    A level holds its points as columns of integer numerators over one
    common denominator dp, one column per coordinate, and their values as
    integer numerators over dv.  Map i sends a point X/dp to
    (L A_i X + dp L b_i)/(dp L), with L the lcm of the map denominators, and
    a value v/dv to lambda_i(X/dp) + s_i v/dv, an integer combination over
    dv' = lcm(dv den(s_i) for all i, den(data) dp^deg) of v and of the data
    monomials, each monomial column made once for all maps.

    Returns (dp L, the image columns per map, dv', the value column per
    map).  The image columns are made as the caller reads them, once; with
    vals None there are no values, and dv' and the value columns are None.
    """
    maps = spec.maps
    lin_den = math.lcm(*(Fraction(a).denominator for u in maps
                         for row in u.linear.rows for a in row),
                       *(Fraction(b).denominator for u in maps for b in u.shift))
    dp_next = dp * lin_den
    images = ([_affine_column(cols, [int(a * lin_den) for a in row], int(b * dp_next))
               for row, b in zip(u.linear.rows, u.shift)] for u in maps)
    if vals is None:
        return dp_next, images, None, None
    data_den = math.lcm(*(c.denominator for lam in spec.data for c in lam.values()))
    deg = max(poly_degree(lam) for lam in spec.data)
    dv_next = math.lcm(*(dv * s.denominator for s in spec._scalings), data_den * dp ** deg)
    const = (0,) * len(cols)
    monomials = {e: _monomial(cols, e) for lam in spec.data for e in lam if e != const}
    values = []
    for lam, s in zip(spec.data, spec._scalings):
        # carry * value + lam(X/dp) * dv_next, an integer polynomial in X;
        # its constant term joins the carry, with no column of ones
        carry = s.numerator * (dv_next // (dv * s.denominator))
        c0 = int(lam.get(const, ZERO) * dv_next)
        new = [carry * v + c0 for v in vals]
        for e, c in lam.items():
            if e != const:
                c = int(c * dv_next / dp ** sum(e))
                new = [h + c * m for h, m in zip(new, monomials[e])]
        values.append(new)
    return dp_next, images, dv_next, values


class FractalSurface(SelfAffine):
    """Fixed point of the cell-wise transfer operator over the domain."""

    def _cell(self, z: Vec) -> int:
        return self.spec.cell_of(z)

    def _inverse(self, z: Vec, i: int) -> Vec:
        return self.spec._inverses[i].apply(z)

    def _data(self, i: int, z: Vec) -> Fraction:
        return poly_val(self.spec.data[i], z)

    def evaluate(self, x: Sequence, depth: int = 64) -> EvalResult:
        """Exact where the pull-back orbit closes; certified interval otherwise."""
        x = Vec(Fraction(a) for a in x)
        if not self.spec.contains(x):
            raise ValueError("point is outside the domain")
        return self._evaluate(x, depth)

    def value_at(self, x: Sequence) -> Fraction:
        res = self.evaluate(x)
        if res.error_bound != 0.0:
            raise ArithmeticError("pull-back orbit did not close at this point")
        return res.value

    def vertex_values(self) -> dict:
        """Exact values at the domain vertices, cross-checked over all cells
        at the vertex images the system holds."""
        spec = self.spec
        vals = {v: self.value_at(v) for v in spec.vertices}
        for lam, s, ws in zip(spec.data, spec._scalings, spec._system.images):
            for v, w in zip(spec.vertices, ws):
                if w in vals and vals[w] != poly_val(lam, v) + s * vals[v]:
                    raise ArithmeticError("cell relations disagree at a vertex")
        return vals

    def mesh(self, depth: int) -> dict:
        """Exact values on the depth-times refined vertex set.

        Raises when two cells force different values at a shared point, so a
        successful build doubles as a continuity consistency check.  The
        points come in the order of the cascade: cells outer, the points of
        the coarser level inner, each point where it first occurs.

        Each level is one step of the integer cascade (`_level`), so the
        cascade and the shared-point check run on plain ints.  Points and
        values become Fractions (and Vec keys) once, at the end, one
        Fraction per distinct numerator (`_fractions`).
        """
        spec = self.spec
        start = self.vertex_values()
        dp, flat = _numerators([c for p in start for c in p])
        cols = [flat[k::spec.dim] for k in range(spec.dim)]
        dv, vals = _numerators(list(start.values()))
        for _ in range(depth):
            dp, images, dv, values = _level(spec, cols, dp, vals, dv)
            nxt: dict = {}
            for image, new in zip(images, values):
                # a map is one to one, so only points of earlier maps repeat
                level = dict(zip(zip(*image), new))
                for q in level.keys() & nxt.keys():
                    if level.pop(q) != nxt[q]:
                        raise ArithmeticError("inconsistent values at a shared mesh point")
                nxt.update(level)
            cols, vals = list(zip(*nxt)), list(nxt.values())
        points = map(Vec, zip(*_fractions(dp, *cols)))
        return dict(zip(points, _fractions(dv, vals)[0]))

    def level1_values(self) -> dict:
        """Values at the outer and inner vertices of the first refinement."""
        vals = dict(self.vertex_values())
        vals.update(self.mesh(1))
        return vals

    def operator_iterates(self, depth: int, steps: int) -> list:
        """Sup-norm gaps of successive transfer-operator iterates from zero on
        the depth mesh, walked without values: a point pulls back through the
        first cell that makes it, a domain vertex through its `_cell`."""
        cells, maps = {v: self._cell(v) for v in self.spec.vertices}, self.spec.maps
        for _ in range(depth):
            cells = {maps[i].apply(p): i for i in reversed(range(len(maps))) for p in cells}
        iterates = self._iterates(cells, steps)
        return [float(np.max(np.abs(b - a))) for a, b in zip(iterates, iterates[1:])]


def fixed_point(spec: SurfaceSpec) -> FractalSurface:
    """The surface determined by the spec; insists on face agreement."""
    report = validate_condition_star(spec)
    if not report.valid:
        raise ValueError(f"data functions disagree on {len(report.violations)} face samples")
    return FractalSurface(spec)


# ---------------------------------------------------------------------------
# vertex basis surfaces and refinement
# ---------------------------------------------------------------------------


def level_one_vertices(spec: SurfaceSpec) -> list:
    """Outer vertices followed by the inner first-refinement vertices."""
    outer = list(spec.vertices)
    inner = sorted({w for ws in spec._system.images for w in ws} - set(outer))
    return outer + inner


def _forced_data(spec: SurfaceSpec, tables: Sequence) -> list:
    """The affine data each cell is forced to carry, one list per table f of
    values at the vertices v and their images u_i(v):
    lambda_i(v) = f(u_i(v)) - s_i f(v) (Barnsley 1986, Massopust 1990).

    Every cardinal family is built through this rule: `basis_surfaces` and
    the interpolation functions and cardinal bases of `fif`.  The domain
    must be a simplex, where dim+1 vertex values pin an affine function.
    """
    system = spec._system
    return [[system.interpolate([f[w] - s * f[v] for w, v in zip(ws, system.vertices)])
             for ws, s in zip(system.images, system.scalings)] for f in tables]


def basis_surfaces(spec: SurfaceSpec) -> dict:
    """Cardinal surfaces, one per outer or inner vertex of the refinement,
    each with the data its Kronecker values force (`_forced_data`).

    The cells must share one vertical scaling: with different ones the
    members are not continuous across the inner vertices of deeper
    refinements.
    """
    if len(spec.vertices) != spec.dim + 1:
        raise ValueError("vertex basis construction needs a simplex domain")
    if len(set(spec._scalings)) != 1:
        raise ValueError("vertex basis construction needs one vertical scaling for all cells")
    pts = level_one_vertices(spec)
    kronecker = [{p: int(p == nu) for p in pts} for nu in pts]
    out = {}
    for nu, data in zip(pts, _forced_data(spec, kronecker)):
        surf = FractalSurface(spec.with_data(data))
        surf.mesh(1)  # consistency check at the refinement vertices
        out[nu] = surf
    return out


# ---------------------------------------------------------------------------
# exact inner products via moment recursion
# ---------------------------------------------------------------------------


def moments(surface: FractalSurface, degree: int) -> dict:
    """Exact integrals of the surface against monomials up to a degree.

    An affine change of variables never raises a monomial's degree, so the
    system is block triangular by degree: the moments up to a degree do not
    depend on how far beyond it the system is solved.  The spec's system
    inverts the matrix once per degree; the data enter the right-hand side.
    """
    spec = surface.spec
    system = spec._system
    degree = max(degree, max(poly_degree(p) for p in spec.data))
    if sum(system.dets) != 1:
        raise ValueError("cells must tile the domain")
    expos, comps, inverse = system.moment_system(degree)
    # M_p = sum_i det_i * ( integral(lambda_i * p(u_i .)) + s_i * M_{p(u_i .)} )
    rhs = [sum((det * domain_integral(poly_mul(lam, comp), spec)
                for det, lam, comp in zip(system.dets, spec.data, row) if lam), ZERO)
           for row in comps]
    return {e: sum((a * b for a, b in zip(row, rhs) if b), ZERO) for e, row in zip(expos, inverse)}


def _check_shared_domain(f: FractalSurface, g: FractalSurface) -> None:
    if f.spec.maps != g.spec.maps or f.spec.vertices != g.spec.vertices:
        raise ValueError("surfaces must share domain and similitudes")


def _inner_from_moments(f: FractalSurface, g: FractalSurface, mf: dict, mg: dict) -> Fraction:
    """<f, g> from the cell data and each surface's moments up to the data degree.

    Splitting the domain integral into cells and pulling each back gives
        <f, g> = sum_i det_i [int lam_f,i lam_g,i + s_g,i int lam_f,i g
                              + s_f,i int lam_g,i f] / (1 - sum_i det_i s_f,i s_g,i).
    """
    sf, sg = f.spec, g.spec
    total = Fraction(0)
    for i, det in enumerate(sf._system.dets):
        lam_f, lam_g = sf.data[i], sg.data[i]
        if not (lam_f or lam_g):
            continue
        term = domain_integral(poly_mul(lam_f, lam_g), sf)
        term += sg._scalings[i] * sum((c * mg[e] for e, c in lam_f.items()), ZERO)
        term += sf._scalings[i] * sum((c * mf[e] for e, c in lam_g.items()), ZERO)
        total += det * term
    if sf._system is sg._system:
        return total / sf._system.pair_denominator
    s_quad = sum((d * a * b for d, a, b in zip(sf._system.dets, sf._scalings, sg._scalings)), ZERO)
    return total / (1 - s_quad)


def inner_product(f: FractalSurface, g: FractalSurface) -> Fraction:
    """Exact L2 inner product over the domain; same similitudes required."""
    _check_shared_domain(f, g)
    degree = max(max(poly_degree(p) for p in f.spec.data), max(poly_degree(p) for p in g.spec.data))
    return _inner_from_moments(f, g, moments(f, degree), moments(g, degree))


def gram_from_moments(family: Sequence, family_moments: Sequence) -> list:
    """Exact Gram matrix of surfaces on one domain, from each member's moments
    up to the family's data degree."""
    n = len(family)
    g = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g[a][b] = g[b][a] = _inner_from_moments(family[a], family[b],
                                                     family_moments[a], family_moments[b])
    return g


def gram_matrix(surfaces) -> list:
    """Exact Gram matrix from each member's moments at the family's data degree.

    Members built with `with_data` share one system, so its moment system is
    inverted once and each member only forms its right-hand side.
    """
    family = list(surfaces.values() if isinstance(surfaces, dict) else surfaces)
    for f in family[1:]:
        _check_shared_domain(family[0], f)
    degree = max((poly_degree(p) for f in family for p in f.spec.data), default=0)
    return gram_from_moments(family, [moments(f, degree) for f in family])


# ---------------------------------------------------------------------------
# built-in figures and fixtures
# ---------------------------------------------------------------------------

def quarter_triangle_maps() -> tuple:
    """Four similitudes carrying the right triangle onto its half-scale cells.

    Cells 1 and 4 are translates of the scaled triangle; cells 2 and 3 are
    its reflections, so adjacent cells are mirror images across the cuts
    x = 1/2, y = 1/2 and y = x.
    """
    h = Fraction(1, 2)
    return (
        AffineMap(Mat([[h, 0], [0, h]]), Vec((h, ZERO))),
        AffineMap(Mat([[-h, 0], [0, h]]), Vec((h, ZERO))),
        AffineMap(Mat([[h, 0], [0, -h]]), Vec((ZERO, h))),
        AffineMap(Mat([[h, 0], [0, h]]), Vec((ZERO, h))),
    )


def triangle_spec(data: Sequence, scaling) -> SurfaceSpec:
    """A spec on the paper's foldable right triangle, cut into its four cells."""
    return SurfaceSpec(right_triangle_figure().vertices, quarter_triangle_maps(), tuple(data), scaling)


def fixture(name: str) -> SurfaceSpec:
    """Named example surfaces selectable from the command line."""
    if name == "ex5.2":
        lam_a = (Fraction(1, 5), Fraction(-1, 5), Fraction(3, 10))
        lam_b = (Fraction(3, 10), Fraction(1, 5), Fraction(-3, 10))
        return triangle_spec((lam_a, lam_a, lam_b, lam_b), Fraction(3, 5))
    raise ValueError(f"unknown surface fixture: {name}")
