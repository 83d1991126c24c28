"""Fractal interpolation functions on an interval.

A fractal function is the fixed point of f(x) = p_i(u_i^{-1}(x)) + s_i *
f(u_i^{-1}(x)) on the i-th cell, where the u_i are affine contractions
mapping the domain onto the cells and the p_i are polynomial data.  All
data is exact (Fractions); evaluation is exact on orbit points and returns
certified intervals elsewhere.

An interval is the 1-D foldable figure, so a fractal function is the 1-D
case of a self-affine surface: `FractalFunction` is built from a
`waveletsets.surfaces` spec, the one holder of its maps, data and scalings,
and shares that module's pull-back evaluation, bound, moment solve,
inner-product formula and integer mesh level step.  It keeps its one-sided
knot values, the ordered join of its mesh (a list with one-sided values at
interior knots, where the surface mesh is a dict) and its per-system mesh
points.  Its reflection layout is `reflections.subdivide` of [0, n].
"""

from __future__ import annotations

import bisect
import copy
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import surfaces
from .geometry import AffineMap, Mat, Vec
from .reflections import box_figure, subdivide
from .surfaces import EvalResult, SelfAffine, SurfaceSpec


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _interpolation(xs: Sequence, ys: Sequence, s: Sequence) -> tuple:
    """(maps, affine data) of the interpolation through (x_i, y_i) with scalings s_i."""
    xs = [_frac(v) for v in xs]
    ys = [_frac(v) for v in ys]
    s = [_frac(v) for v in s]
    n = len(xs) - 1
    if len(ys) != n + 1 or len(s) != n:
        raise ValueError("need N+1 points and N scalings")
    if any(xs[i] >= xs[i + 1] for i in range(n)):
        raise ValueError("abscissae must increase")
    a, b = xs[0], xs[-1]
    span = b - a
    maps, data = [], []
    for i in range(1, n + 1):
        ai = (xs[i] - xs[i - 1]) / span
        alpha = (b * xs[i - 1] - a * xs[i]) / span
        ci = (ys[i] - ys[i - 1] - s[i - 1] * (ys[-1] - ys[0])) / span
        beta = (b * ys[i - 1] - a * ys[i] - s[i - 1] * (b * ys[0] - a * ys[-1])) / span
        maps.append(AffineMap(Mat([[ai]]), Vec((alpha,))))
        data.append((beta, ci))
    return maps, data


class FractalFunction(SelfAffine):
    """Fixed point of the cell-wise affine transfer operator of a spec on an
    interval [a, b], whose map images tile it left to right."""

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
        maps, data = _interpolation(xs, ys, s)
        return FractalFunction(SurfaceSpec(((xs[0],), (xs[-1],)), maps, data, tuple(s)))

    @staticmethod
    def from_uniform_data(n: int, data: Sequence[Sequence], s: Sequence,
                          mode: str = "translation") -> "FractalFunction":
        """Data polynomials on [0, n], coefficients low degree first, with
        uniform translation or reflection maps."""
        polys = [{(k,): c for k, c in enumerate(poly)} for poly in data]
        return FractalFunction(SurfaceSpec(((0,), (n,)), uniform_maps(n, mode), polys, tuple(s)))

    def _with_data(self, data: Sequence) -> "FractalFunction":
        """A function on the same maps, scalings and shared system with other data."""
        f = copy.copy(self)
        SelfAffine.__init__(f, self.spec.with_data(data))
        return f

    # -- cell lookup ------------------------------------------------------------

    def cell_index(self, x) -> int:
        x = _frac(x)
        a, b = self.domain
        if not a <= x <= b:
            raise ValueError("point outside the domain")
        # b, the last boundary, belongs to the last cell
        return min(bisect.bisect_right(self.boundaries, x) - 1, len(self.spec.maps) - 1)

    # -- evaluation ---------------------------------------------------------------

    # the right-hand cell at an interior knot: it decides the one-sided values
    _cell = cell_index

    def _inverse(self, z: Fraction, i: int) -> Fraction:
        inv = self.spec._inverses[i]
        return inv.linear.rows[0][0] * z + inv.shift[0]

    def _data(self, i: int, z: Fraction):
        return surfaces.poly_val(self.spec.data[i], (z,))

    def evaluate(self, x, depth: int = 48) -> EvalResult:
        """Exact where the pull-back orbit closes; certified interval otherwise."""
        return self._evaluate(_frac(x), depth)

    def knot_values(self) -> list:
        """Values at the cell-boundary points.

        At a boundary shared by two cells the fixed point may be one-sided;
        the value is reported from an orientation-preserving neighbor cell
        (a map of positive slope) when one exists (left cell otherwise),
        which matches the anchored interpolation data in both the translation
        and reflection layouts.
        """
        maps = self.spec.maps
        values = []
        for j, t in enumerate(self.boundaries):
            adjacent = [i for i in (j - 1, j) if 0 <= i < len(maps)]
            pick = next((i for i in adjacent if maps[i].linear.rows[0][0] > 0), adjacent[0])
            values.append(self._resolve_chain(t, 64, first_cell=pick))
        return values

    # -- meshes -------------------------------------------------------------------

    def mesh(self, depth: int):
        """Exact values on the orbit mesh, reported cell-by-cell.

        Returns (points, values) as parallel lists, where the points are the
        left endpoints of the depth-level leaf cells followed by the right
        endpoint of the domain, each with the value propagated through its
        own cell chain (one-sided at interior boundaries).

        The points are the shared system's (`_orbit`), in a new list.  The
        values run from the end knots through the integer level step of the
        surface meshes (`surfaces._level`), each level joined in cell order
        (`_join`), and become Fractions once, at the end, one Fraction per
        distinct numerator (`surfaces._fractions`).
        """
        kv = self.knot_values()
        levels, points = self._orbit(depth)
        dv, vals = surfaces._numerators([kv[0], kv[-1]])
        for pts, dp in levels:
            _, _, dv, values = surfaces._level(self.spec, [pts], dp, vals, dv)
            vals = self._join(values)
        return list(points), surfaces._fractions(dv, vals)[0]

    def _orbit(self, depth: int) -> tuple:
        """([(numerators, dp) per level before the last], last points as Fractions),
        once per system, by the integer level step without values."""
        orbits = self.spec._system.orbits
        if depth not in orbits:
            dp, pts = surfaces._numerators(self.domain)
            levels = []
            for _ in range(depth):
                levels.append((pts, dp))
                dp, images, _, _ = surfaces._level(self.spec, [pts], dp)
                pts = self._join(cols[0] for cols in images)
            orbits[depth] = (levels, surfaces._fractions(dp, pts)[0])
        return orbits[depth]

    def _join(self, segments) -> list:
        """One column per cell, in one list from left to right: the cells tile
        the domain, so the column of a map of negative slope is reversed, and
        each column after the first drops its first entry, where the cell
        before ends."""
        out = []
        for i, (u, seg) in enumerate(zip(self.spec.maps, segments)):
            if u.linear.rows[0][0] < 0:
                seg.reverse()
            out.extend(seg[1:] if i else seg)
        return out

    def operator_iterates(self, depth: int, steps: int) -> list[np.ndarray]:
        """Transfer-operator iterates from zero, sampled on the depth mesh."""
        return self._iterates({p: self._cell(p) for p in self._orbit(depth)[1]}, steps)


def uniform_maps(n: int, mode: str) -> list[AffineMap]:
    """The maps of [0, n] onto its unit cells, left to right.

    translation: u_i(x) = x/n + (i-1).
    reflection:  the subdivision of the figure [0, n] (`reflections.subdivide`):
    u_1 = x/n, and consecutive cells are mirror images.
    """
    if mode == "translation":
        return [AffineMap(Mat([[Fraction(1, n)]]), Vec((Fraction(i),))) for i in range(n)]
    if mode == "reflection":
        return subdivide(box_figure("interval", [(0, n)]), n)
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

    The domain midpoint is pushed through all depth-level words; nodes, cell
    widths and the values of every function are cascaded level by level as
    float64 arrays, the images under each cell concatenated in cell order.
    """
    base = functions[0]
    for f in functions[1:]:
        surfaces._check_shared_domain(base, f)
    a, b = base.domain
    mid = (a + b) / 2
    nodes = np.array([float(mid)])
    widths = np.array([float(b - a)])
    vals = np.array([[float(f.evaluate(mid, depth=80).value)] for f in functions])
    # per cell: slope, intercept, data coefficients [function, power] padded
    # with zeros (a zero leading coefficient leaves Horner's floats unchanged)
    # and scalings [function, 1]
    width = 1 + max(surfaces.poly_degree(p) for f in functions for p in f.spec.data)
    cells = []
    for ci, u in enumerate(base.spec.maps):
        coeffs = np.zeros((len(functions), width))
        for fi, f in enumerate(functions):
            for (k,), c in f.spec.data[ci].items():
                coeffs[fi, k] = float(c)
        scal = np.array([[float(f.spec._scalings[ci])] for f in functions])
        cells.append((float(u.linear.rows[0][0]), float(u.shift[0]), coeffs, scal))
    for _ in range(depth):
        new_nodes, new_widths, new_vals = [], [], []
        for m, q, coeffs, scal in cells:
            new_nodes.append(m * nodes + q)
            new_widths.append(abs(m) * widths)
            acc = np.zeros_like(vals)
            for k in reversed(range(width)):
                acc = acc * nodes + coeffs[:, k:k + 1]
            new_vals.append(acc + scal * vals)
        nodes = np.concatenate(new_nodes)
        widths = np.concatenate(new_widths)
        vals = np.concatenate(new_vals, axis=1)
    # the matmul rounds (v_i w) v_j and (v_j w) v_i apart; averaging with the
    # transpose keeps the result exactly symmetric
    g = (vals * widths) @ vals.T
    return (g + g.T) / 2


def cardinal_basis(xs: Sequence, s: Sequence) -> list[FractalFunction]:
    """Fractal functions interpolating the Kronecker data at the knots."""
    kronecker = [[Fraction(int(j == i)) for j in range(len(xs))] for i in range(len(xs))]
    first = FractalFunction.from_interpolation(xs, kronecker[0], s)
    return [first] + [first._with_data(_interpolation(xs, ys, s)[1]) for ys in kronecker[1:]]


def uniform_cardinal_basis(n: int, s, mode: str = "translation") -> list[FractalFunction]:
    """Cardinal functions at the integer knots of [0, n] for either layout.

    The affine data on each cell is pinned by the endpoint relations
    f(u_i(0)) = p_i(0) + s f(0) and f(u_i(n)) = p_i(n) + s f(n).  The
    functions share one system.
    """
    s = _frac(s)
    maps = uniform_maps(n, mode)
    family = []
    for j in range(n + 1):
        y = [Fraction(1) if k == j else Fraction(0) for k in range(n + 1)]
        data = []
        for u in maps:
            m, q = u.linear.rows[0][0], u.shift[0]
            v0 = y[int(q)] - s * y[0]
            vn = y[int(m * n + q)] - s * y[n]
            data.append((v0, Fraction(vn - v0, n)))
        family.append(data)
    first = FractalFunction(SurfaceSpec(((0,), (n,)), maps, family[0], (s,) * n))
    return [first] + [first._with_data(d) for d in family[1:]]


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
    raise KeyError(f"unknown function fixture: {name}")


def orthonormalize(gram) -> np.ndarray:
    """Coefficients Q with Q^T G Q = I (inverse transpose Cholesky factor)."""
    g = np.array([[float(x) for x in row] for row in gram])
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol).T
