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

Moments, inner products, Gram matrices and forced data are integer matrix
products: the system of a spec family holds its tables (monomial integrals,
the inverted moment system, the det_i-weighted integrals of a monomial times
a composed monomial, det_i s_i, the vertex interpolation inverse) as
integers over one denominator each, a member's cell data enter as integer
coefficient rows over one common denominator, and each output entry becomes
one Fraction at the end.

Every mesh runs one integer cascade on whole columns (`_cascade`): each
level is one numpy product for all maps (`_level`), in int64 while an exact
bound keeps every intermediate below 2**63 and in Python ints (dtype=object)
otherwise, and only the join of a level's images differs between the
surface mesh, the `fif` mesh and the MRA's centroid samples.  The
numerators become Fractions at the end, one per distinct value
(`_fractions`).
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

from .geometry import AffineMap, Mat, Vec, _int_dtype, _numerators
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


def poly_degree(p: dict) -> int:
    return max((sum(expo) for expo, c in p.items() if c), default=0)


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
    den, table = spec._system.integrals(poly_degree(p))
    return sum((c * table[e] for e, c in p.items()), ZERO) / den


# ---------------------------------------------------------------------------
# surface specification
# ---------------------------------------------------------------------------


class _System:
    """All a spec family derives from its vertices, similitudes and scalings,
    shared by `SurfaceSpec.with_data`.  The integer tables (monomial
    integrals, the moment tables of each degree, the cell weights, the
    vertex interpolation inverse) and the vertex images u_i(v) come on first
    use, and `orbits` holds one 1-D mesh point list per depth, filled by the
    first `fif` mesh of that depth.  Nothing here depends on the data, and
    no pull-back chain is kept here: each member walks its own
    (`SelfAffine._evaluate`)."""

    def __init__(self, vertices: tuple, maps: tuple, scalings: tuple):
        self.vertices, self.maps, self.scalings = vertices, maps, scalings
        self.dim = len(vertices[0])
        self.box, self.chart, self.volume = _domain_geometry(vertices)
        self.inverses = tuple(u.inverse() for u in maps)
        self.dets = tuple(abs(u.linear.det()) for u in maps)
        self.chart_inv = None if self.chart is None else self.chart.inverse()
        self._integrals: dict = {}
        self._tables: dict = {}
        self.orbits: dict = {}

    @functools.cached_property
    def images(self) -> tuple:
        """u_i(v) for every similitude u_i (outer) and vertex v (inner)."""
        return tuple(tuple(u.apply(v) for v in self.vertices) for u in self.maps)

    @functools.cached_property
    def weights(self) -> tuple:
        """The det_i, the det_i s_i and the s_i, each as (den, integers over den)."""
        return (_numerators(self.dets), _numerators([d * s for d, s in zip(self.dets, self.scalings)]),
                _numerators(self.scalings))

    @functools.cached_property
    def interpolation(self) -> tuple:
        """(den, inverse): the inverse of the rows (1, v) over the vertices v
        of a simplex, integers over den; row k of the inverse times the
        vertex values of an affine function is its coefficient k."""
        rows = Mat([[ONE, *v] for v in self.vertices]).inverse().rows
        return _int_rows([a for row in rows for a in row], self.dim + 1)

    def integrals(self, degree: int) -> tuple:
        """(den, {monomial: numerator}): the integrals over the domain of the
        monomials up to a degree, integers over one denominator.  On a
        simplex, each monomial composed with the chart is integrated over the
        standard simplex; on a box, each is a product of 1-D integrals."""
        if degree not in self._integrals:
            expos = _monomials_upto(self.dim, degree)
            if self.chart is not None:
                cden, (rows,) = _compositions([self.chart], expos)
                sden, std = _numerators([_standard_simplex_integral(e) for e in expos])
                values = [self.volume * Fraction(sum(a * b for a, b in zip(row, std) if a), cden * sden)
                          for row in rows]
            else:
                values = [math.prod((Fraction(hi ** (k + 1) - lo ** (k + 1), k + 1)
                                     for (lo, hi), k in zip(self.box, e)), start=ONE) for e in expos]
            den, nums = _numerators(values)
            self._integrals[degree] = den, dict(zip(expos, nums))
        return self._integrals[degree]

    def tables(self, degree: int) -> "_Tables":
        """The integer moment tables of the monomials up to a degree (`_Tables`)."""
        if degree not in self._tables:
            expos = _monomials_upto(self.dim, degree)
            n = len(expos)
            cden, comps = _compositions(self.maps, expos)
            (wden, dets), (dsden, ds), _ = self.weights
            # the moment system I - sum_i det_i s_i comps[i], inverted exactly
            system = Mat([[Fraction(int(r == c) * dsden * cden
                                    - sum(d * m[r][c] for d, m in zip(ds, comps)), dsden * cden)
                           for c in range(n)] for r in range(n)])
            iden, inverse = _int_rows([a for row in system.inverse().rows for a in row], n)
            # the integrals of every product of two monomials up to the degree
            jden, table = self.integrals(2 * degree)
            products = [[table[tuple(map(sum, zip(a, b)))] for b in expos] for a in expos]
            # cells[i][k][r] = det_i * integral(monomial k * (monomial r o u_i))
            cells = [[[d * sum(c * x for c, x in zip(comp, prow) if c) for comp in m]
                      for prow in products] for d, m in zip(dets, comps)]
            self._tables[degree] = _Tables(expos, inverse, iden * wden * cden * jden, cells,
                                           jden, products)
        return self._tables[degree]


@dataclass(frozen=True)
class _Tables:
    """A system's moment tables at one degree, as integer matrices:

    expos      the monomials up to the degree, in `_monomials_upto` order;
    inverse    the inverse of I - sum_i det_i s_i C_i, with C_i[r][c] the
               coefficient of monomial c in monomial r composed with map i;
    cells      cells[i][k][r] = det_i * integral(monomial k * (monomial r o u_i));
    moment_den the denominator of inverse times cells;
    products   products[k][l] = integral(monomial k * monomial l), over product_den.
    """

    expos: list
    inverse: list
    moment_den: int
    cells: list
    product_den: int
    products: list


def _compositions(maps: Sequence, expos: list) -> tuple:
    """(den, comps): comps[i][r][c] is the coefficient of monomial c in
    monomial r composed with map i, the monomials those of `_monomials_upto`
    in its order, all integers over den = L**degree, with L the lcm of the
    map denominators.

    Monomial r is monomial r - e_k, k its first variable, times coordinate k
    of the map; that monomial comes earlier in the order, so each row is one
    integer product of a row made before with an affine row.
    """
    dim, n, degree = len(expos[0]), len(expos), sum(expos[-1])
    pos = {e: k for k, e in enumerate(expos)}
    units = [tuple(int(k == j) for k in range(dim)) for j in range(dim)]
    up = [[pos.get(tuple(map(sum, zip(e, u)))) for u in units] for e in expos]
    L = math.lcm(*(Fraction(a).denominator for u in maps for row in u.linear.rows for a in row),
                 *(Fraction(b).denominator for u in maps for b in u.shift))
    comps = []
    for u in maps:
        coords = [(int(b * L), [int(a * L) for a in row]) for row, b in zip(u.linear.rows, u.shift)]
        rows = [[int(e == expos[0]) for e in expos]]  # the constant monomial
        for e in expos[1:]:
            k = next(k for k, x in enumerate(e) if x)
            const, lin = coords[k]
            row = [0] * n
            for idx, c in enumerate(rows[pos[e[:k] + (e[k] - 1,) + e[k + 1:]]]):
                if c:
                    row[idx] += c * const
                    for j, a in enumerate(lin):
                        if a:
                            row[up[idx][j]] += c * a
            rows.append(row)
        comps.append([[c * L ** (degree - sum(e)) for c in row] for e, row in zip(expos, rows)])
    return L ** degree, comps


def _int_rows(values: Sequence, n: int) -> tuple:
    """(den, rows): Fractions over one denominator (`_numerators`), as rows
    of n integer numerators."""
    den, flat = _numerators(values)
    return den, [flat[k:k + n] for k in range(0, len(flat), n)]


def _data_rows(family: Sequence, expos: Sequence) -> tuple:
    """(den, rows): each member's cell data as integer coefficient rows over
    the monomials expos and one common denominator den; rows holds one dict
    {cell: row} per member, without the cells where it has no data."""
    pos = {e: k for k, e in enumerate(expos)}
    den = math.lcm(*(c.denominator for f in family for lam in f.spec.data for c in lam.values()))
    rows = []
    for f in family:
        cells = {}
        for i, lam in enumerate(f.spec.data):
            if lam:
                row = cells[i] = [0] * len(expos)
                for e, c in lam.items():
                    row[pos[e]] = c.numerator * (den // c.denominator)
        rows.append(cells)
    return den, rows


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
    grid = [Fraction(k, degree + 1) for k in range(degree + 2)]
    base = points[0]
    dirs = [p - base for p in points[1:]]
    out = []
    for c in itertools.product(grid, repeat=len(dirs)):
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

    Points are vectors (`Vec`).  The one hook is the cell of a point
    (`_cell`, by default the spec's rule `cell_of`); the pull-back step, the
    bound, the evaluation and the operator iteration are shared.  Each
    member walks its own chains and memoizes the values they resolve;
    nothing of a walk is kept for the family.
    """

    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        self._memo: dict = {}

    def bound(self) -> Fraction:
        """A uniform bound on |f| over the domain; the error bounds of
        `evaluate` rest on it."""
        return self.spec.data_bound() / (1 - max(abs(s) for s in self.spec._scalings))

    def _cell(self, z: Vec) -> int:
        return self.spec.cell_of(z)

    def _pull(self, z: Vec, i: int) -> tuple:
        """The point z pulled back through cell i, the cell's data there and its scaling."""
        z_next = self.spec._inverses[i].apply(z)
        return z_next, poly_val(self.spec.data[i], z_next), self.spec._scalings[i]

    def _evaluate(self, x, depth: int) -> EvalResult:
        """f(x) by pulling x back through its own cell, step by step (`_pull`).

        Exact when, within depth steps, a pulled point is one this member
        already knows, or repeats a point of the chain, which closes a cycle
        z -> ... -> z with f(z) = C + S f(z).  The chain then unwinds and
        memoizes the values it resolves.  Otherwise the chain is unrolled
        depth times and the tail bounded by `bound`.
        """
        _check_depth(depth)
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


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d of coprime ints with d > 0, its two slots filled as
    CPython's own `Fraction._from_coprime_ints` (3.12+) fills them, without
    the checks and the gcd of `Fraction.__new__`."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _fractions(den: int, *columns) -> list:
    """Each integer array of numerators over den as a list of Fractions.

    Each distinct numerator is reduced by one gcd and made into one
    Fraction (`_coprime`), shared by every place it occurs in the columns.
    They are made in order of first occurrence, so a reader that walks the
    columns in order walks memory in order too.
    """
    columns = [col.tolist() for col in columns]
    made = {}
    for n in dict.fromkeys(itertools.chain(*columns)):
        g = math.gcd(n, den)
        made[n] = _coprime(n // g, den // g)
    return [list(map(made.__getitem__, col)) for col in columns]


def _top(column: np.ndarray) -> int:
    """max(|x|) over an integer array, at least 1, as a Python int."""
    return max(int(np.abs(column).max(initial=0)), 1)


def _level(spec: SurfaceSpec, cols: np.ndarray, dp: int, vals: np.ndarray, dv: int) -> tuple:
    """One level of the integer cascade of every mesh (`_cascade`), on whole
    columns.

    A level holds its points as an integer array cols of shape (dim, n),
    numerators over one common denominator dp, one row per coordinate, and
    their values as an integer array of n numerators over dv.  Map i sends a
    point X/dp to (L A_i X + dp L b_i)/(dp L), with L the lcm of the map
    denominators, and a value v/dv to lambda_i(X/dp) + s_i v/dv, an integer
    combination over dv' = lcm(dv den(s_i) for all i, den(data) dp^deg) of v
    and of the data monomials of X.  Each is one product for all maps:
    the images are L A @ X + dp L b, and the values c v + C @ monomials,
    with c the carries of v and C the data coefficients over dv'.

    Each product runs in int64 when a bound computed in Python ints from
    the column maxima and the level's integer coefficients keeps every
    intermediate below 2**63, and in Python ints (dtype=object) otherwise.

    Returns (dp L, images of shape (maps, dim, n), dv', values of shape
    (maps, n)).
    """
    maps, dim = spec.maps, spec.dim
    lin_den, flat = _numerators([a for u in maps for row in u.linear.rows for a in row]
                                + [b for u in maps for b in u.shift])
    dp_next = dp * lin_den
    split = len(maps) * dim * dim
    lin = np.array(flat[:split], dtype=object).reshape(len(maps), dim, dim)
    shift = dp * np.array(flat[split:], dtype=object).reshape(len(maps), dim, 1)
    top = _top(cols)
    dtype = _int_dtype((top * np.abs(lin).sum(axis=2, keepdims=True) + np.abs(shift)).max())
    images = lin.astype(dtype) @ cols.astype(dtype) + shift.astype(dtype)
    # the constant monomial always, so that C has a column even for zero data
    expos = sorted({(0,) * dim, *(e for lam in spec.data for e in lam)})
    data_den, nums = _numerators([lam.get(e, ZERO) for lam in spec.data for e in expos])
    dv_next = math.lcm(*(dv * s.denominator for s in spec._scalings),
                       data_den * dp ** max(map(sum, expos)))
    carry = np.array([s.numerator * (dv_next // (dv * s.denominator)) for s in spec._scalings],
                     dtype=object)[:, None]
    coeffs = np.array(nums, dtype=object).reshape(len(maps), len(expos)) * np.array(
        [dv_next // (data_den * dp ** sum(e)) for e in expos], dtype=object)
    vtop = _top(vals)
    powers = np.array([top ** sum(e) for e in expos], dtype=object)
    dtype = _int_dtype(max(top, vtop, (np.abs(carry[:, 0]) * vtop + np.abs(coeffs) @ powers).max()))
    x = cols.astype(dtype)
    monomials = np.array([math.prod((x[k] ** p for k, p in enumerate(e) if p),
                                    start=np.ones(cols.shape[1], dtype)) for e in expos])
    values = carry.astype(dtype) * vals.astype(dtype) + coeffs.astype(dtype) @ monomials
    return dp_next, images, dv_next, values


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be nonnegative")


def _cascade(spec: SurfaceSpec, points: Sequence, values: Sequence, depth: int, join) -> tuple:
    """The integer form (dp, point columns, dv, value column) of a mesh:
    `depth` levels of the integer cascade (`_level`) from exact start points
    and their values, each level's images and values, of shapes (maps, dim,
    n) and (maps, n), made into the next level's columns by join(images,
    values).

    The one cascade behind every mesh: the surface mesh merges shared
    points (`_merge`), a fractal function joins its cells left to right
    (`fif.FractalFunction._join`), and the MRA's centroid samples keep every
    leaf.  Points are numerators over dp, of shape (dim, n), and values
    numerators over dv.
    """
    _check_depth(depth)
    dp, flat = _numerators([c for p in points for c in p])
    cols = np.array(flat, dtype=object).reshape(-1, spec.dim).T
    dv, vals = _numerators(list(values))
    vals = np.array(vals, dtype=object)
    for _ in range(depth):
        dp, images, dv, level_values = _level(spec, cols, dp, vals, dv)
        cols, vals = join(images, level_values)
    return dp, cols, dv, vals


def _merge(images: np.ndarray, values: np.ndarray) -> tuple:
    """The points of all maps' images, each once, in order of first
    occurrence (maps outer, points inner), with their values; raises when
    two maps give a shared point different values.

    One stable lexsort of the stacked images puts each point's copies
    together, the first occurrence first.
    """
    cols = np.concatenate(images, axis=1)
    vals = values.reshape(-1)
    order = np.lexsort(cols)
    pts, vs = cols[:, order], vals[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (pts[:, 1:] != pts[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new)
    if (vs != np.repeat(vs[starts], np.diff(starts, append=len(order)))).any():
        raise ArithmeticError("inconsistent values at a shared mesh point")
    keep = np.sort(order[starts])
    return cols[:, keep], vals[keep]


class FractalSurface(SelfAffine):
    """Fixed point of the cell-wise transfer operator over the domain."""

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
        _check_vertex_relations(spec, spec.data, vals)
        return vals

    def mesh(self, depth: int) -> dict:
        """Exact values on the depth-times refined vertex set.

        Raises when two cells force different values at a shared point, so a
        successful build doubles as a continuity consistency check.  The
        points come in the order of the cascade: cells outer, the points of
        the coarser level inner, each point where it first occurs.

        The levels are the one integer cascade on whole columns
        (`_cascade`, int64 or Python ints by its bound), started at the
        domain vertices, and the shared-point check one stable sort of the
        images (`_merge`).  Points and values become Fractions (and Vec
        keys) once, at the end, one Fraction per distinct numerator
        (`_fractions`).  Every level holds the domain vertices, each a
        vertex of a cell and so the image of one, and so the level before:
        every mesh but `mesh(0)` holds the first refinement's vertices.
        """
        start = self.vertex_values()
        dp, cols, dv, vals = _cascade(self.spec, start, start.values(), depth, _merge)
        points = map(Vec, zip(*_fractions(dp, *cols)))
        return dict(zip(points, _fractions(dv, vals)[0]))

    def operator_iterates(self, depth: int, steps: int) -> list:
        """Sup-norm gaps of successive transfer-operator iterates from zero on
        the depth mesh, walked without values: a point pulls back through the
        first cell that makes it, a domain vertex through its `_cell`."""
        _check_depth(depth)
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
    must be a simplex, where dim+1 vertex values pin an affine function: its
    coefficients are the system's interpolation inverse times those values,
    all integers over one denominator until one Fraction per coefficient.
    """
    system = spec._system
    iden, inverse = system.interpolation
    sden, scalings = system.weights[2]
    # the constant, then x_1, ..., x_dim: the order of `as_poly`
    expos = [tuple(int(k == j) for k in range(spec.dim)) for j in range(-1, spec.dim)]
    out = []
    for f in tables:
        fden, vals = _numerators(list(f.values()))
        value = dict(zip(f, vals))
        den = iden * fden * sden
        data = []
        for ws, s in zip(system.images, scalings):
            forced = [value[w] * sden - s * value[v] for w, v in zip(ws, system.vertices)]
            coeffs = (sum(a * b for a, b in zip(row, forced)) for row in inverse)
            data.append({e: Fraction(c, den) for e, c in zip(expos, coeffs) if c})
        out.append(data)
    return out


def basis_surfaces(spec: SurfaceSpec) -> dict:
    """Cardinal surfaces, one per outer or inner vertex of the refinement,
    each with the data its Kronecker values force (`_forced_data`).

    Each member is checked against its own table T of Kronecker values: at
    every vertex v and map i, lambda_i(v) + s T(v) = T(u_i(v)), or
    ArithmeticError.  This decides what a level-1 mesh would.  A domain
    vertex pulls back through its cell to a vertex, so its pull-back chain
    stays on the vertices and closes; T satisfies every step of it, and with
    |s| < 1 the cycle's value C / (1 - S) is unique, so f = T at the
    vertices.  Every level-1 value lambda_i(v) + s f(v) is then T(u_i(v)),
    one value per point, and the level-1 mesh is T.

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
    for nu, table, data in zip(pts, kronecker, _forced_data(spec, kronecker)):
        _check_vertex_relations(spec, data, table)
        out[nu] = FractalSurface(spec.with_data(data))
    return out


def _check_vertex_relations(spec: SurfaceSpec, data: Sequence, table: dict) -> None:
    """lambda_i(v) + s_i T(v) = T(u_i(v)) at every domain vertex v and map i
    whose image u_i(v) is in the table T of values, or ArithmeticError."""
    for lam, s, ws in zip(data, spec._scalings, spec._system.images):
        for v, w in zip(spec.vertices, ws):
            if w in table and poly_val(lam, v) + s * table[v] != table[w]:
                raise ArithmeticError("cell relations disagree at a vertex")


# ---------------------------------------------------------------------------
# exact inner products via moment recursion
# ---------------------------------------------------------------------------


def moments(surface: FractalSurface, degree: int) -> dict:
    """Exact integrals of the surface against monomials up to a degree.

    An affine change of variables never raises a monomial's degree, so the
    system is block triangular by degree: the moments up to a degree do not
    depend on how far beyond it the system is solved.  The spec's system
    holds the inverted matrix and the right-hand side's integrals of each
    degree as integer tables (`_System.tables`); a member's data rows enter
    them in `int`, over the cells where it has data, and each moment is one
    Fraction at the end.
    """
    spec = surface.spec
    system = spec._system
    degree = max(degree, max(poly_degree(p) for p in spec.data))
    if sum(system.dets) != 1:
        raise ValueError("cells must tile the domain")
    t = system.tables(degree)
    den, (rows,) = _data_rows([surface], t.expos)
    # M_p = sum_i det_i * ( integral(lambda_i * p(u_i .)) + s_i * M_{p(u_i .)} )
    rhs = [0] * len(t.expos)
    for i, row in rows.items():
        for c, column in zip(row, t.cells[i]):
            if c:
                rhs = [h + c * x for h, x in zip(rhs, column)]
    den *= t.moment_den
    return {e: Fraction(sum(a * b for a, b in zip(r, rhs)), den) for e, r in zip(t.expos, t.inverse)}


def _check_shared_domain(f: FractalSurface, g: FractalSurface) -> None:
    if f.spec.maps != g.spec.maps or f.spec.vertices != g.spec.vertices:
        raise ValueError("surfaces must share domain and similitudes")


def _pairing(family: Sequence, family_moments: Sequence):
    """The function (a, b) -> <family[a], family[b]> for surfaces on one
    domain, from each member's moments up to the family's data degree.

    Splitting the domain integral into cells and pulling each back gives
        <f, g> = sum_i det_i [int lam_f,i lam_g,i + s_g,i int lam_f,i g
                              + s_f,i int lam_g,i f] / (1 - sum_i det_i s_f,i s_g,i).
    The data rows, the moments, the det_i and every member's own scalings
    s_i are integers over one denominator each, so a pair sums in `int` over
    the cells where its members have data, forms 1 - sum_i det_i s_f,i s_g,i
    from their two scaling rows, and makes one Fraction.
    """
    system = family[0].spec._system
    degree = max((poly_degree(p) for f in family for p in f.spec.data), default=0)
    t = system.tables(degree)
    n = len(t.expos)
    dl, rows = _data_rows(family, t.expos)
    dm, moms = _int_rows([m[e] for m in family_moments for e in t.expos], n)
    wden, dets = system.weights[0]
    sden, scalings = _int_rows([s for f in family for s in f.spec._scalings], len(dets))
    # integrated[a][i] = the integrals of lam_a,i against each monomial
    integrated = [{i: [sum(a * b for a, b in zip(prow, row) if b) for prow in t.products]
                   for i, row in cells.items()} for cells in rows]
    den_a, den_b = wden * t.product_den * dl * dl, wden * sden * dl * dm
    den = math.lcm(den_a, den_b)
    xa, xb = den // den_a, den // den_b
    # 1 - sum_i det_i s_a,i s_b,i is (end - sum_i dets[i] sa[i] sb[i]) / end
    end = wden * sden * sden

    def against(cells: dict, s: list, mom: list) -> int:
        """sum_i det_i s_i int lam_i f over den_b, from the moments of f."""
        return sum(dets[i] * s[i] * sum(x * y for x, y in zip(row, mom)) for i, row in cells.items())

    def pair(a: int, b: int) -> Fraction:
        ra, rb, sa, sb = rows[a], rows[b], scalings[a], scalings[b]
        num = xa * sum(dets[i] * sum(x * y for x, y in zip(integrated[a][i], rb[i]) if x)
                       for i in ra.keys() & rb.keys())
        num += xb * (against(ra, sb, moms[b]) + against(rb, sa, moms[a]))
        return Fraction(num * end, den * (end - sum(d * x * y for d, x, y in zip(dets, sa, sb))))

    return pair


def inner_product(f: FractalSurface, g: FractalSurface) -> Fraction:
    """Exact L2 inner product over the domain; same similitudes required."""
    _check_shared_domain(f, g)
    degree = max(max(poly_degree(p) for p in f.spec.data), max(poly_degree(p) for p in g.spec.data))
    return _pairing([f, g], [moments(f, degree), moments(g, degree)])(0, 1)


def gram_from_moments(family: Sequence, family_moments: Sequence) -> list:
    """Exact Gram matrix of surfaces on one domain, from each member's moments
    up to the family's data degree (`_pairing`)."""
    n = len(family)
    g = [[ZERO] * n for _ in range(n)]
    if n:
        pair = _pairing(family, family_moments)
        for a in range(n):
            for b in range(a, n):
                g[a][b] = g[b][a] = pair(a, b)
    return g


def gram_matrix(surfaces) -> list:
    """Exact Gram matrix from each member's moments at the family's data degree.

    Members built with `with_data` share one system, so its moment tables
    are built once and each member only forms its right-hand side.
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
