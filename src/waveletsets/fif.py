"""Fractal interpolation functions on an interval.

A fractal function is the fixed point of f(x) = p_i(u_i^{-1}(x)) + s_i *
f(u_i^{-1}(x)) on the i-th cell, where the u_i are affine contractions
mapping the domain onto the cells and the p_i are polynomial data.  All
data is exact (Fractions); evaluation is exact on orbit points and returns
certified intervals elsewhere.

An interval is the 1-D foldable figure, so a fractal function is the 1-D
case of a self-affine surface: `FractalFunction` is built from a
`waveletsets.surfaces` spec, the one holder of its maps, data and scalings,
and shares that module's forced-data rule, pull-back evaluation, bound,
moment solve, inner-product formula and integer mesh cascade on whole
columns (int64 or Python ints, by an exact bound).  It keeps its cell rule
at a knot (`_cell`), its one-sided knot values and the ordered join of its
mesh levels (a list with one-sided values at interior knots, where the
surface mesh is a dict); its mesh points are one list per depth in the
shared system.  Its reflection layout is `reflections.subdivide` of [0, n].
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import surfaces
from .geometry import AffineMap, Mat, Vec, _frac, _ldl
from .reflections import box_figure, subdivide
from .surfaces import EvalResult, SelfAffine, SurfaceSpec


def _interpolation(xs: Sequence, rows: Sequence, s: Sequence) -> list:
    """The functions through (x_i, y_i) with scalings s_i, one per row of
    y_i, on one system: u_i maps [x_0, x_N] onto [x_(i-1), x_i]."""
    xs = [_frac(v) for v in xs]
    rows = [[_frac(v) for v in ys] for ys in rows]
    s = [_frac(v) for v in s]
    n = len(xs) - 1
    if any(len(ys) != n + 1 for ys in rows) or len(s) != n:
        raise ValueError("need N+1 points and N scalings")
    if any(xs[i] >= xs[i + 1] for i in range(n)):
        raise ValueError("abscissae must increase")
    a, b = xs[0], xs[-1]
    span = b - a
    maps = [AffineMap(Mat([[(xs[i] - xs[i - 1]) / span]]), Vec(((b * xs[i - 1] - a * xs[i]) / span,)))
            for i in range(1, n + 1)]
    return _family(SurfaceSpec(((a,), (b,)), maps, [{}] * n, tuple(s)), xs, rows)


def _family(spec: SurfaceSpec, xs: Sequence, rows: Sequence) -> list:
    """One function on the spec's system per row of values at the knots xs,
    with the data the row forces (`surfaces._forced_data`); the spec's own
    data are not read."""
    tables = [{(x,): y for x, y in zip(xs, ys)} for ys in rows]
    return [FractalFunction(spec.with_data(d)) for d in surfaces._forced_data(spec, tables)]


def _kronecker(size: int) -> list:
    return [[int(j == i) for j in range(size)] for i in range(size)]


class FractalFunction(SelfAffine):
    """Fixed point of the cell-wise affine transfer operator of a spec on an
    interval [a, b], whose map images tile it left to right.

    At an interior knot the fixed point may jump, and three one-sided rules
    remain: `evaluate` and `operator_iterates` take the knot from its right
    cell (`_cell`, the one hook), `knot_values` from an orientation-preserving
    neighbor, and `mesh` from the left cell's column.  They agree where the
    function is continuous at its knots; ex3.5 in the reflection layout is
    not, and there `knot_values` gives f(2) = 1/2 while the mesh gives 1.
    No value depends on what the object computed before.
    """

    def __init__(self, spec: SurfaceSpec):
        if spec.dim != 1:
            raise ValueError("a fractal function needs a spec on an interval")
        (a,), (b,) = spec.vertices
        if not a < b:
            raise ValueError("empty domain")
        super().__init__(spec)
        self.domain = (a, b)
        # cell images must tile the domain left to right
        boundaries = [a]
        for ends in spec._system.images:
            lo, hi = sorted(w for (w,) in ends)
            if lo != boundaries[-1]:
                raise ValueError("cells do not tile the domain")
            boundaries.append(hi)
        if boundaries[-1] != b:
            raise ValueError("cells do not tile the domain")
        self.boundaries = boundaries

    @property
    def cells(self) -> tuple:
        """The cell maps: the spec's own tuple."""
        return self.spec.maps

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_interpolation(xs: Sequence, ys: Sequence, s: Sequence) -> "FractalFunction":
        """Affine fractal interpolation through (x_i, y_i) with scalings s_i."""
        return _interpolation(xs, [ys], s)[0]

    @staticmethod
    def from_uniform_data(n: int, data: Sequence[Sequence], s: Sequence,
                          mode: str = "translation") -> "FractalFunction":
        """Data polynomials on [0, n], coefficients low degree first, with
        uniform translation or reflection maps."""
        polys = [{(k,): c for k, c in enumerate(poly)} for poly in data]
        return FractalFunction(SurfaceSpec(((0,), (n,)), uniform_maps(n, mode), polys, tuple(s)))

    # -- cell lookup ------------------------------------------------------------

    def cell_index(self, x) -> int:
        x = _frac(x)
        a, b = self.domain
        if not a <= x <= b:
            raise ValueError("point outside the domain")
        # b, the last boundary, belongs to the last cell
        return min(bisect.bisect_right(self.boundaries, x) - 1, len(self.spec.maps) - 1)

    # -- evaluation ---------------------------------------------------------------

    def _cell(self, z: Vec) -> int:
        return self.cell_index(z[0])

    def evaluate(self, x, depth: int = 48) -> EvalResult:
        """Exact where the pull-back orbit closes; certified interval otherwise."""
        return self._evaluate(Vec((_frac(x),)), depth)

    def knot_values(self) -> list:
        """Values at the cell-boundary points.

        At a boundary shared by two cells the fixed point may be one-sided;
        the value is reported from an orientation-preserving neighbor cell
        (a map of positive slope) when one exists (left cell otherwise),
        which matches the anchored interpolation data in both the translation
        and reflection layouts: one transfer step lambda_i(v) + s_i f(v) from
        the end v that cell i maps onto the knot.  f(v) is exact: the
        pull-back chain of an end stays on the two ends.
        """
        maps = self.spec.maps
        values = []
        for j, t in enumerate(self.boundaries):
            adjacent = [i for i in (j - 1, j) if 0 <= i < len(maps)]
            pick = next((i for i in adjacent if maps[i].linear.rows[0][0] > 0), adjacent[0])
            v, lam, s = self._pull(Vec((t,)), pick)
            values.append(lam + s * self.evaluate(v[0]).value)
        return values

    # -- meshes -------------------------------------------------------------------

    def mesh(self, depth: int):
        """Exact values on the orbit mesh, reported cell-by-cell.

        Returns (points, values) as parallel lists, where the points are the
        left endpoints of the depth-level leaf cells followed by the right
        endpoint of the domain, each with the value propagated through its
        own cell chain (one-sided at interior boundaries).

        Points and values run from the two ends of the domain and f there
        through the one integer cascade of the surface meshes on whole
        columns (`surfaces._cascade`, int64 or Python ints by its bound),
        each level joined in cell order (`_join`), and become Fractions once,
        at the end, one Fraction per distinct numerator
        (`surfaces._fractions`).  The points are the same for every member
        of a system: the first mesh of a depth stores them in the system's
        `orbits`, and each call returns them in a new list.
        """
        ends = [self.evaluate(t).value for t in self.domain]
        dp, cols, dv, vals = surfaces._cascade(self.spec, [(t,) for t in self.domain], ends,
                                               depth, self._join)
        orbits = self.spec._system.orbits
        if depth not in orbits:
            orbits[depth] = surfaces._fractions(dp, cols[0])[0]
        return list(orbits[depth]), surfaces._fractions(dv, vals)[0]

    def _join(self, images: np.ndarray, values: np.ndarray) -> tuple:
        """A level's images and values, each one row from left to right:
        the cells tile the domain, so the segment of a map of negative slope
        is reversed, and each segment after the first drops its first entry,
        where the cell before ends."""
        flips = [u.linear.rows[0][0] < 0 for u in self.spec.maps]

        def row(segments):
            segments = [seg[::-1] if flip else seg for flip, seg in zip(flips, segments)]
            return np.concatenate([segments[0]] + [seg[1:] for seg in segments[1:]])

        return row(images[:, 0])[None], row(values)

    def operator_iterates(self, depth: int, steps: int) -> list[np.ndarray]:
        """Transfer-operator iterates from zero, sampled on the depth mesh."""
        points = [Vec((x,)) for x in self.mesh(depth)[0]]
        return self._iterates({p: self._cell(p) for p in points}, steps)


def uniform_maps(n: int, mode: str) -> list[AffineMap]:
    """The maps of [0, n] onto its unit cells, left to right.

    translation: u_i(x) = x/n + (i-1).
    reflection:  the subdivision of the figure [0, n] (`reflections.subdivide`):
    u_1 = x/n, and consecutive cells are mirror images.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mode == "translation":
        return [AffineMap(Mat([[Fraction(1, n)]]), Vec((Fraction(i),))) for i in range(n)]
    if mode == "reflection":
        return subdivide(box_figure([(0, n)]), n)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def moments(f: FractalFunction, max_degree: int) -> list[Fraction]:
    """Exact moments integral of f(x) x^m over the domain, m = 0..max_degree."""
    mom = surfaces.moments(f, max_degree)
    return [mom[(m,)] for m in range(max_degree + 1)]


def inner_product(f: FractalFunction, g: FractalFunction) -> Fraction:
    """Exact L2 inner product over the domain, via the moment recursion;
    the functions share their maps and domain, their scalings may differ."""
    return surfaces.inner_product(f, g)


def gram_matrix(functions: Sequence[FractalFunction]) -> list[list[Fraction]]:
    """Exact Gram matrix from each function's moments; a family built by
    `cardinal_basis` or `uniform_cardinal_basis` inverts its moment system once."""
    return surfaces.gram_matrix(functions)


def gram_matrix_quadrature(functions: Sequence[FractalFunction], depth: int = 12) -> np.ndarray:
    """Composite midpoint quadrature on the shared orbit mesh (float oracle).

    The sum over the cells^depth midpoint nodes x, each weighted by the width
    w of its depth-level cell, of w f(x) g(x), reassociated so that no node
    is built.  Start from one node, the domain midpoint c, of width b - a;
    a cell x -> m x + q sends a node's weight to |m| w and its value to
    v_f(m x + q) = p_f(x) + s_f v_f(x).  In y = x - c, with the cell's data
    coefficients P (row f: p_f(y + c), degree <= p) and scalings s, each level
    then closes over three small arrays:
        nu[e] = sum w y^e (e <= 2p),  mu[f, e] = sum w y^e v_f (e <= p),
        G[f, g] = sum w v_f v_g,
    each cell adding |m| times
        nu:  B nu, with B[e, j] = C(e, j) m^j r^(e - j) and r = q + (m - 1) c,
        mu:  (P Nu + s mu) B_p^T, with Nu[k, l] = nu[k + l] and B_p = B[:p+1, :p+1],
        G:   P Nu P^T + X + X^T + (s s^T) G, with X[f, g] = (P mu^T)[f, g] s_g.
    Taking the moments about c keeps |r| within the domain's half-width, so
    the binomial expansion loses no digits on a domain far from 0.
    """
    base = functions[0]
    for f in functions[1:]:
        surfaces._check_shared_domain(base, f)
    a, b = base.domain
    mid = (a + b) / 2
    p = max(surfaces.poly_degree(d) for f in functions for d in f.spec.data)
    degrees = range(2 * p + 1)
    hankel = np.add.outer(np.arange(p + 1), np.arange(p + 1))
    nu = np.zeros(2 * p + 1)
    nu[0] = float(b - a)
    vals = np.array([float(f.evaluate(mid, depth=80).value) for f in functions])
    mu = np.zeros((len(functions), p + 1))
    mu[:, 0] = nu[0] * vals
    gram = nu[0] * np.outer(vals, vals)
    den, centred = _centred_rows(functions, mid, p)
    cells = []
    for ci, u in enumerate(base.spec.maps):
        m = u.linear.rows[0][0]
        r = u.shift[0] + (m - 1) * mid
        binom = np.array([[float(math.comb(i, j) * m ** j * r ** (i - j)) if j <= i else 0.0
                           for j in degrees] for i in degrees])
        coeffs = np.zeros((len(functions), p + 1))
        for fi, rows in enumerate(centred):
            if ci in rows:  # each exact coefficient rounded once
                coeffs[fi] = [c / den for c in rows[ci]]
        scal = np.array([float(f.spec._scalings[ci]) for f in functions])
        cells.append((float(abs(m)), binom, coeffs, scal))
    for _ in range(depth):
        nu_next, mu_next, gram_next = np.zeros_like(nu), np.zeros_like(mu), np.zeros_like(gram)
        for w, binom, coeffs, scal in cells:
            c_nu = coeffs @ nu[hankel]
            x = (coeffs @ mu.T) * scal
            nu_next += w * (binom @ nu)
            mu_next += w * ((c_nu + scal[:, None] * mu) @ binom[:p + 1, :p + 1].T)
            gram_next += w * (c_nu @ coeffs.T + x + x.T + np.outer(scal, scal) * gram)
        nu, mu, gram = nu_next, mu_next, gram_next
    # the matmul rounds (P Nu) P^T apart from its transpose; averaging with
    # the transpose keeps the result exactly symmetric
    return (gram + gram.T) / 2


def _centred_rows(functions: Sequence[FractalFunction], mid: Fraction, degree: int) -> tuple:
    """(den, rows): each function's cell data about mid, p(y + mid), as
    integer coefficient rows of 1, y, .., y^degree over one denominator;
    rows holds one dict {cell: row} per function, without the cells where
    it has no data."""
    expos = surfaces._monomials_upto(1, degree)
    cden, (recentre,) = surfaces._compositions([AffineMap(Mat([[1]]), Vec((mid,)))], expos)
    dden, rows = surfaces._data_rows(functions, expos)
    cols = list(zip(*recentre))
    return dden * cden, [{i: [sum(a * t for a, t in zip(row, col)) for col in cols]
                          for i, row in cells.items()} for cells in rows]


def cardinal_basis(xs: Sequence, s: Sequence) -> list[FractalFunction]:
    """Fractal functions interpolating the Kronecker data at the knots, on one system."""
    return _interpolation(xs, _kronecker(len(xs)), s)


def uniform_cardinal_basis(n: int, s, mode: str = "translation") -> list[FractalFunction]:
    """Cardinal functions at the integer knots of [0, n] for either layout
    (`uniform_maps`, which refuses n < 1 and an unknown mode), on one system.

    The translation layout is `cardinal_basis` at the knots 0..n, whose maps
    are those of `uniform_maps`; the reflection layout forces its data by
    the same rule on the mirrored maps.
    """
    s, maps = _frac(s), uniform_maps(n, mode)
    if mode == "translation":
        return cardinal_basis(range(n + 1), [s] * n)
    spec = SurfaceSpec(((0,), (n,)), maps, [{}] * n, (s,) * n)
    return _family(spec, range(n + 1), _kronecker(n + 1))


def fixture(name: str, mode: str = "translation") -> FractalFunction:
    """Named example functions selectable from the command line."""
    if name == "ex3.3":
        if mode != "translation":
            raise ValueError("fixture ex3.3 has only the translation layout")
        return FractalFunction.from_interpolation(
            [0, Fraction(1, 2), 1], [0, Fraction(7, 10), 0],
            [Fraction(3, 5), Fraction(2, 5)])
    if name == "ex3.5":
        if mode == "translation":
            lam = [(0, Fraction(1, 12)), (1, Fraction(-5, 12)),
                   (Fraction(1, 2), Fraction(1, 12))]
        elif mode == "reflection":
            lam = [(0, Fraction(1, 12)), (1, Fraction(-1, 12)),
                   (Fraction(1, 2), Fraction(1, 12))]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return FractalFunction.from_uniform_data(3, lam, [Fraction(1, 2)] * 3, mode)
    raise ValueError(f"unknown function fixture: {name}")


def orthonormalize(gram) -> np.ndarray:
    """Coefficients Q with Q^T G Q = I (inverse transpose Cholesky factor).

    The exact Gram matrix G is positive definite, but its float copy need not
    be when |s| is close to 1. Then Q = L^-T D^-1/2 comes from the exact
    factorization G = L D L^T instead (`geometry._ldl`).
    """
    g = np.array([[float(x) for x in row] for row in gram])
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        inv_lower, diag = (np.array(x, dtype=float) for x in _ldl(gram))
        return inv_lower.T / np.sqrt(diag)[None, :]
    return np.linalg.inv(chol).T
