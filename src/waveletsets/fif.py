"""Fractal interpolation functions on an interval.

A fractal function is the fixed point of f(x) = p_i(u_i^{-1}(x)) + s_i *
f(u_i^{-1}(x)) on the i-th cell, where the u_i are affine contractions
mapping the domain onto the cells and the p_i are polynomial data.  All
data is exact (Fractions); evaluation is exact on orbit points and returns
certified intervals elsewhere.

An interval tiles the line by reflections in its endpoints, so a fractal
function is the 1-D case of a self-affine surface: `FractalFunction` holds
the `waveletsets.surfaces` spec of its system and shares that module's
pull-back evaluation, moment solve, inner-product formula and integer mesh
level step.  It keeps its own cell layout, its one-sided knot values, the
ordered join of its mesh (a list with one-sided values at interior knots,
where the surface mesh is a dict) and its per-system mesh points.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import surfaces
from .geometry import AffineMap, Mat, Vec
from .surfaces import EvalResult, SelfAffine, SurfaceSpec


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_eval(coeffs: Sequence[Fraction], x):
    value = 0
    for c in reversed(tuple(coeffs)):
        value = value * x + c
    return value


@dataclass(frozen=True)
class CellMap:
    """One cell of the interpolation system: u(x) = m x + q plus data."""

    m: Fraction
    q: Fraction
    data: tuple  # polynomial coefficients, low degree first
    s: Fraction

    def u(self, x):
        return self.m * x + self.q

    def u_inv(self, x):
        return (x - self.q) / self.m

    @property
    def preserves_orientation(self) -> bool:
        return self.m > 0


def _spec_data(cells: Sequence[CellMap]) -> tuple:
    return tuple({(k,): co for k, co in enumerate(c.data)} for c in cells)


def _interpolation_cells(xs: Sequence, ys: Sequence, s: Sequence) -> list[CellMap]:
    """The cells of the affine interpolation through (x_i, y_i)."""
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
    cells = []
    for i in range(1, n + 1):
        ai = (xs[i] - xs[i - 1]) / span
        alpha = (b * xs[i - 1] - a * xs[i]) / span
        ci = (ys[i] - ys[i - 1] - s[i - 1] * (ys[-1] - ys[0])) / span
        beta = (b * ys[i - 1] - a * ys[i] - s[i - 1] * (b * ys[0] - a * ys[-1])) / span
        cells.append(CellMap(m=ai, q=alpha, data=(beta, ci), s=s[i - 1]))
    return cells


class FractalFunction(SelfAffine):
    """Fixed point of the cell-wise affine transfer operator."""

    def __init__(self, domain: tuple, cells: Sequence[CellMap]):
        a, b = _frac(domain[0]), _frac(domain[1])
        if not a < b:
            raise ValueError("empty domain")
        self.domain = (a, b)
        self.cells = list(cells)
        super().__init__(SurfaceSpec(
            ((a,), (b,)),
            tuple(AffineMap(Mat([[c.m]]), Vec((c.q,))) for c in self.cells),
            _spec_data(self.cells),
            tuple(c.s for c in self.cells)))
        # cell images must tile the domain left to right
        boundaries = [a]
        for c in self.cells:
            lo, hi = sorted((c.u(a), c.u(b)))
            if lo != boundaries[-1]:
                raise ValueError("cells do not tile the domain")
            boundaries.append(hi)
        if boundaries[-1] != b:
            raise ValueError("cells do not tile the domain")
        self.boundaries = boundaries

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_interpolation(xs: Sequence, ys: Sequence, s: Sequence) -> "FractalFunction":
        """Affine fractal interpolation through (x_i, y_i) with scalings s_i."""
        cells = _interpolation_cells(xs, ys, s)
        return FractalFunction((xs[0], xs[-1]), cells)

    @staticmethod
    def from_uniform_data(n: int, data: Sequence[Sequence], s: Sequence,
                          mode: str = "translation") -> "FractalFunction":
        """Data polynomials on [0, n] with uniform translation or reflection maps."""
        maps = uniform_maps(n, mode)
        s = [_frac(v) for v in s]
        cells = [
            CellMap(m=m, q=q, data=tuple(_frac(c) for c in poly), s=si)
            for (m, q), poly, si in zip(maps, data, s)
        ]
        return FractalFunction((Fraction(0), Fraction(n)), cells)

    def _with_data(self, data: Sequence[Sequence]) -> "FractalFunction":
        """A function on the same cells, scalings and shared system with other data."""
        f = copy.copy(self)
        f.cells = [CellMap(m=c.m, q=c.q, data=tuple(_frac(v) for v in poly), s=c.s)
                   for c, poly in zip(self.cells, data, strict=True)]
        SelfAffine.__init__(f, self.spec.with_data(_spec_data(f.cells)))
        return f

    # -- cell lookup ------------------------------------------------------------

    def cell_index(self, x) -> int:
        x = _frac(x)
        a, b = self.domain
        if not a <= x <= b:
            raise ValueError("point outside the domain")
        if x == b:
            return len(self.cells) - 1
        i = bisect.bisect_right(self.boundaries, x) - 1
        return min(i, len(self.cells) - 1)

    # -- evaluation ---------------------------------------------------------------

    # the right-hand cell at an interior knot: it decides the one-sided values
    _cell = cell_index

    def _inverse(self, z: Fraction, i: int) -> Fraction:
        return self.cells[i].u_inv(z)

    def _data(self, i: int, z: Fraction):
        return poly_eval(self.cells[i].data, z)

    def bound(self) -> Fraction:
        """A uniform bound on |f| over the domain.

        This is not the surfaces `data_bound`: tuple data are bounded by their
        coefficients here, and the error bounds of `evaluate` rest on it.
        """
        a, b = self.domain
        peak = Fraction(0)
        smax = Fraction(0)
        for c in self.cells:
            corners = [abs(poly_eval(c.data, a)), abs(poly_eval(c.data, b))]
            # affine data attains its extremes at the endpoints; for higher
            # degree fall back to a coarse coefficient bound
            if len(c.data) > 2:
                corners.append(sum(abs(co) * max(abs(a), abs(b), 1) ** k
                                   for k, co in enumerate(c.data)))
            peak = max(peak, *corners)
            smax = max(smax, abs(c.s))
        return peak / (1 - smax)

    def evaluate(self, x, depth: int = 48) -> EvalResult:
        """Exact where the pull-back orbit closes; certified interval otherwise."""
        return self._evaluate(_frac(x), depth)

    def knot_values(self) -> list:
        """Values at the cell-boundary points.

        At a boundary shared by two cells the fixed point may be one-sided;
        the value is reported from an orientation-preserving neighbor cell
        when one exists (left cell otherwise), which matches the anchored
        interpolation data in both the translation and reflection layouts.
        """
        values = []
        for j, t in enumerate(self.boundaries):
            adjacent = []
            if j > 0:
                adjacent.append(j - 1)
            if j < len(self.cells):
                adjacent.append(j)
            pick = next((i for i in adjacent if self.cells[i].preserves_orientation), adjacent[0])
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
        the domain, so a flipping cell's column is reversed, and each column
        after the first drops its first entry, where the cell before ends."""
        out = []
        for i, (cell, seg) in enumerate(zip(self.cells, segments)):
            if not cell.preserves_orientation:
                seg.reverse()
            out.extend(seg[1:] if i else seg)
        return out

    def operator_iterates(self, depth: int, steps: int) -> list[np.ndarray]:
        """Transfer-operator iterates from zero, sampled on the depth mesh."""
        return self._iterates({p: self._cell(p) for p in self._orbit(depth)[1]}, steps)


def uniform_maps(n: int, mode: str) -> list[tuple]:
    """(slope, intercept) pairs for the uniform maps on [0, n].

    translation: u_i(x) = x/n + (i-1).
    reflection:  u_1 = x/n and u_i = R_{i-1} o u_{i-1} with R_k(x) = 2k - x,
    so consecutive cells are mirror images.
    """
    if mode == "translation":
        return [(Fraction(1, n), Fraction(i)) for i in range(n)]
    if mode == "reflection":
        maps = [(Fraction(1, n), Fraction(0))]
        for i in range(1, n):
            m, q = maps[-1]
            # R_i(x) = 2i - x applied after the previous map
            maps.append((-m, 2 * i - q))
        return maps
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
    width = max(len(c.data) for f in functions for c in f.cells)
    cells = []
    for ci, cell in enumerate(base.cells):
        coeffs = np.zeros((len(functions), width))
        for fi, f in enumerate(functions):
            data = f.cells[ci].data
            coeffs[fi, :len(data)] = [float(x) for x in data]
        scal = np.array([[float(f.cells[ci].s)] for f in functions])
        cells.append((float(cell.m), float(cell.q), coeffs, scal))
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
    basis = [FractalFunction.from_interpolation(xs, ys, s) for ys in kronecker[:1]]
    return basis + [basis[0]._with_data([c.data for c in _interpolation_cells(xs, ys, s)])
                    for ys in kronecker[1:]]


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
        for m, q in maps:
            v0 = y[int(q)] - s * y[0]
            vn = y[int(m * n + q)] - s * y[n]
            data.append((v0, Fraction(vn - v0, n)))
        family.append(data)
    first = FractalFunction.from_uniform_data(n, family[0], [s] * n, mode)
    return [first] + [first._with_data(d) for d in family[1:]]


def fixture(name: str, mode: str = "translation") -> FractalFunction:
    """Named example functions selectable from the command line."""
    if name == "ex3.3":
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
