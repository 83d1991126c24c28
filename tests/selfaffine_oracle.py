"""Reference computations for the differential tests of `waveletsets.fif`,
`waveletsets.surfaces`, `waveletsets.mra` and the exact solver in
`waveletsets.geometry`.

These are implementations the library used before:
- meshes as lists or dicts of normalized Fractions, each inner product
  solving both moment systems again, the quadrature as a Python loop over
  its cells^depth nodes (before the integer-numerator mesh cascades, the
  one-solve-per-surface Gram matrices, and the quadrature's vectorized node
  cascade and then its moment recursion, which builds no node);
- `FractalFunction` and `FractalSurface` with a pull-back chain and a
  truncated evaluation each, walked by every object on its own (before the
  surface mesh became a cascade of integer columns that makes one Fraction
  per distinct numerator, and before the one evaluation loop of
  `surfaces.SelfAffine`, which also resolves a chain that closes, or meets
  a known value, at exactly `depth` pull-backs, where the chain rule here
  looks at the points 0..depth-1 only), the 1-D moment recursion and pair
  formula of `fif`, and a Gaussian elimination in each of `fif.moments`,
  `surfaces._solve_exact`, `reflections._rank` and `Mat.inverse` (before
  one self-affine engine in `surfaces` and one elimination in `geometry`);
- the cofactor expansion of `Mat.det` and the Fraction L D L^T of
  `fif._exact_ldl`, from before one forward elimination on integer rows in
  `geometry` gave the determinant, the rank, the inverse and the L D L^T
  of `fif.orthonormalize`.  Every determinant and inverse taken here is
  `mat_det` or `mat_inverse`, so no oracle result runs that elimination.

At the end of the module is the geometry from before one affine-map type: the separate
`AffineIsometry` and `AffineMap` classes and the mirror formulas
`reflect_root` and `affine_reflect` of `waveletsets.reflections`, each with
its own arithmetic, and `mra.scaled_cell_word`, which converted between the
two classes.  The oracle's own surfaces use this `AffineMap`;
`tests/test_geometry.py`, `tests/test_reflections.py` and `tests/test_mra.py`
compare the library's maps, mirrors and filter words with these.

`fif_operator_iterates` and `surface_operator_iterates` are the two
transfer-operator iterations from before one iteration on
`surfaces.SelfAffine`; they run on the classes here, whose `mesh` is
`fif_mesh` and whose `_pull` is the one each used.

`centroid_samples` is the Fraction push loop of `mra.centroid_samples` from
before it ran the one integer mesh cascade of `surfaces`; it takes the
`MultiresolutionBasis` as `self`.

`interpolation` and `uniform_cardinal_data` are the data formulas of `fif`
from before every cardinal family forced its data through one rule: the
hand-solved affine data of an interpolation function and the endpoint loop
of the uniform cardinal bases; `interpolation`'s maps are the `AffineMap`
at the end of this module.

The `cell_surface_*` functions are the library's surface moment solve and
pair formula from before specs shared one system (`SurfaceSpec.with_data`),
which also take a scaling per cell; `tests/test_shared_system.py` and
`tests/test_integer_moments.py` use them.  `forced_data` is the forced-data
rule from before it became integer products over one denominator, kept
for `tests/test_integer_moments.py`.

`poly_add`, `poly_mul` and `poly_compose_affine` are the dict-polynomial
composer that `surfaces` carried until `fif.gram_matrix_quadrature`
recentred its data through the integer composer `surfaces._compositions`;
the oracle's own moment solves compose with it, and the tests use it to
build composed data and as the oracle for the recentred quadrature data.

They are slow but simple, and `tests/test_selfaffine_oracle.py` uses them as
the oracle for identical Fractions (and for floats within 1e-12).  The
bodies are kept verbatim: only names differ (some methods became functions
of the object, `Mat.inverse` is `mat_inverse`, `Mat.det` is `mat_det`,
`fif._exact_ldl` is `exact_ldl`, and the 1-D `poly_mul` is `poly_mul_1d`).
The classes here are the earlier `FractalFunction` and `FractalSurface`,
reduced to their constructors and evaluation methods, with memos of their
own, so nothing here runs the library's evaluation code; build them from a
library object's `domain` and `cells`, or its `spec`.  Only unchanged
library helpers are imported (`Mat` and `Vec` as containers, and the
multivariate polynomial helpers the library keeps); the cells and specs read
here are the library's.  Keep these bodies unchanged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from waveletsets.geometry import Mat, Vec
from waveletsets.surfaces import (
    ONE,
    ZERO,
    _monomials_upto,
    _standard_simplex_integral,
    as_poly,
    level_one_vertices,
    poly_degree,
    poly_val,
)


# ---------------------------------------------------------------------------
# the dict-polynomial composer, from before the quadrature recentred its data
# through the integer composer `surfaces._compositions`
# ---------------------------------------------------------------------------


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


def poly_compose_affine(p: dict, amap: AffineMap) -> dict:
    """p(Ax + b) expanded in the monomial basis."""
    n = amap.linear.nrows
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


# ---------------------------------------------------------------------------
# fractal functions: the earlier class, moment recursion and pair formula
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_eval(coeffs: Sequence[Fraction], x):
    value = 0
    for c in reversed(tuple(coeffs)):
        value = value * x + c
    return value


def poly_mul_1d(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_integral(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


@dataclass
class EvalResult:
    value: Fraction | float
    error_bound: float  # zero means exact


class FractalFunction:
    """Fixed point of the cell-wise affine transfer operator."""

    def __init__(self, domain: tuple, cells: Sequence[CellMap]):
        a, b = _frac(domain[0]), _frac(domain[1])
        if not a < b:
            raise ValueError("empty domain")
        self.domain = (a, b)
        self.cells = list(cells)
        for c in self.cells:
            if abs(c.s) >= 1:
                raise ValueError("vertical scaling must satisfy |s| < 1")
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
        self._memo: dict = {}

    def cell_index(self, x) -> int:
        x = _frac(x)
        a, b = self.domain
        if not a <= x <= b:
            raise ValueError("point outside the domain")
        if x == b:
            return len(self.cells) - 1
        i = bisect.bisect_right(self.boundaries, x) - 1
        return min(i, len(self.cells) - 1)

    def _resolve_chain(self, x: Fraction, max_chain: int, first_cell: Optional[int] = None):
        """Exact value via the pull-back chain; None when no cycle is reached."""
        if x in self._memo:
            return self._memo[x]
        chain = []  # (point, A_k, s_k)
        index_of = {}
        z = x
        for step in range(max_chain):
            if z in self._memo:
                value = self._memo[z]
                break
            if z in index_of:
                # cycle: f(z) = C + S f(z)
                j = index_of[z]
                C, S = Fraction(0), Fraction(1)
                for _, A, sk in chain[j:]:
                    C = C + S * A
                    S = S * sk
                value = C / (1 - S)
                self._memo[z] = value
                break
            index_of[z] = step
            i = first_cell if (step == 0 and first_cell is not None) else self.cell_index(z)
            cell = self.cells[i]
            z_next = cell.u_inv(z)
            chain.append((z, poly_eval(cell.data, z_next), cell.s))
            z = z_next
        else:
            return None
        # unwind the prefix of the chain down to the resolved point
        for pt, A, sk in reversed(chain[: index_of.get(z, len(chain))]):
            value = A + sk * value
            self._memo[pt] = value
        return self._memo[x]

    def bound(self) -> Fraction:
        """A uniform bound on |f| over the domain."""
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
        x = _frac(x)
        exact = self._resolve_chain(x, depth)
        if exact is not None:
            return EvalResult(exact, 0.0)
        # unroll the chain `depth` times and bound the tail
        z = x
        A, S = Fraction(0), Fraction(1)
        for _ in range(depth):
            cell = self.cells[self.cell_index(z)]
            z_next = cell.u_inv(z)
            A = A + S * poly_eval(cell.data, z_next)
            S = S * cell.s
            z = z_next
        return EvalResult(A, float(abs(S) * self.bound()))

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


def _check_shared_system(functions: Sequence[FractalFunction]):
    first = functions[0]
    for f in functions[1:]:
        if f.domain != first.domain or len(f.cells) != len(first.cells):
            raise ValueError("functions must share the interpolation system")
        for c, d in zip(f.cells, first.cells):
            if (c.m, c.q, c.s) != (d.m, d.q, d.s):
                raise ValueError("functions must share maps and scalings")


def moments(f: FractalFunction, max_degree: int) -> list[Fraction]:
    """Exact moments integral of f(x) x^m over the domain, m = 0..max_degree."""
    a, b = f.domain
    k = max_degree + 1
    # M = T M + rhs with T from the scalings and the powers of u_i
    T = [[Fraction(0)] * k for _ in range(k)]
    rhs = [Fraction(0)] * k
    for cell in f.cells:
        ai = abs(cell.m)
        mono = (Fraction(1),)
        for m in range(k):
            # mono = coefficients of u_i(z)^m in z
            rhs[m] += ai * poly_integral(poly_mul_1d(cell.data, mono), a, b)
            for j, cj in enumerate(mono):
                T[m][j] += ai * cell.s * cj
            mono = poly_mul_1d(mono, (cell.q, cell.m))
    # solve (I - T) M = rhs exactly
    n = k
    aug = [[(Fraction(1) if i == j else Fraction(0)) - T[i][j] for j in range(n)] + [rhs[i]]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                fct = aug[r][col]
                aug[r] = [x - fct * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# fractal functions: the hand-solved interpolation formulas and the endpoint
# loop of the cardinal bases, from before every cardinal family forced its
# data through `surfaces._forced_data`
# ---------------------------------------------------------------------------


def interpolation(xs: Sequence, ys: Sequence, s: Sequence) -> tuple:
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


def uniform_cardinal_data(n: int, s, maps: Sequence) -> list:
    """The affine data (constant, slope) per cell of each cardinal function on
    the uniform maps of [0, n]: the endpoint loop of the earlier
    `uniform_cardinal_basis`, which built the functions from these."""
    s = _frac(s)
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
    return family


# ---------------------------------------------------------------------------
# fractal functions: mesh as Fraction lists, per-pair inner products, loop
# quadrature
# ---------------------------------------------------------------------------


def fif_mesh(self, depth: int):
    """Exact values on the orbit mesh, reported cell-by-cell.

    Returns (points, values, weights) as parallel lists, where the points
    are the left endpoints of the depth-level leaf cells followed by the
    right endpoint of the domain, each with the value propagated through
    its own cell chain (one-sided at interior boundaries).
    """
    a, b = self.domain
    kv = self.knot_values()
    pts = [a, b]
    vals = [kv[0], kv[-1]]
    for _ in range(depth):
        new_pts, new_vals = [], []
        for cell in self.cells:
            seg_p = [cell.u(p) for p in pts]
            seg_v = [poly_eval(cell.data, p) + cell.s * v for p, v in zip(pts, vals)]
            if not cell.preserves_orientation:
                seg_p.reverse()
                seg_v.reverse()
            if new_pts and new_pts[-1] == seg_p[0]:
                seg_p, seg_v = seg_p[1:], seg_v[1:]
            new_pts.extend(seg_p)
            new_vals.extend(seg_v)
        pts, vals = new_pts, new_vals
    return pts, vals


def fif_inner_product(f: FractalFunction, g: FractalFunction) -> Fraction:
    """Exact L2 inner product over the domain, via the moment recursion."""
    _check_shared_system([f, g])
    a, b = f.domain
    deg = max(max(len(c.data) for c in f.cells), max(len(c.data) for c in g.cells)) - 1
    mf = moments(f, deg)
    mg = moments(g, deg)
    total = Fraction(0)
    s_quad = Fraction(0)
    for cf, cg in zip(f.cells, g.cells):
        ai = abs(cf.m)
        total += ai * poly_integral(poly_mul_1d(cf.data, cg.data), a, b)
        total += ai * cf.s * sum(c * mg[j] for j, c in enumerate(cf.data))
        total += ai * cf.s * sum(c * mf[j] for j, c in enumerate(cg.data))
        s_quad += ai * cf.s * cf.s
    if s_quad >= 1:
        raise ValueError("inner products need sum a_i s_i^2 < 1")
    return total / (1 - s_quad)


def fif_gram_matrix(functions: Sequence[FractalFunction]) -> list[list[Fraction]]:
    _check_shared_system(functions)
    n = len(functions)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = fif_inner_product(functions[i], functions[j])
            g[i][j] = val
            g[j][i] = val
    return g


def fif_gram_matrix_quadrature(functions: Sequence[FractalFunction], depth: int = 12) -> np.ndarray:
    """Composite midpoint quadrature on the shared orbit mesh (float oracle)."""
    _check_shared_system(functions)
    base = functions[0]
    # midpoint nodes: push the domain midpoint through all depth-level words
    a, b = base.domain
    mid = (a + b) / 2
    nodes = [mid]
    widths = [float(b - a)]
    value_sets = []
    for f in functions:
        v0 = f.evaluate(mid, depth=80)
        value_sets.append([float(v0.value)])
    for _ in range(depth):
        new_nodes = []
        new_widths = []
        new_values = [[] for _ in functions]
        for ci, cell in enumerate(base.cells):
            m = float(cell.m)
            q = float(cell.q)
            for k, z in enumerate(nodes):
                new_nodes.append(m * z + q)
                new_widths.append(abs(m) * widths[k])
            for fi, f in enumerate(functions):
                c = f.cells[ci]
                s = float(c.s)
                data = [float(x) for x in c.data]
                for k, z in enumerate(nodes):
                    acc = 0.0
                    for co in reversed(data):
                        acc = acc * z + co
                    new_values[fi].append(acc + s * value_sets[fi][k])
        nodes = new_nodes
        widths = new_widths
        value_sets = new_values
    w = np.array(widths)
    vals = [np.array(v) for v in value_sets]
    n = len(functions)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = float((w * vals[i] * vals[j]).sum())
    return g


# ---------------------------------------------------------------------------
# surfaces: the earlier class, solver and vertex basis
# ---------------------------------------------------------------------------


def _solve_exact(rows: list, rhs: list) -> list:
    """Gaussian elimination over Fractions for a square system."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def affine_from_values(points: Sequence, values: Sequence) -> dict:
    """The affine polynomial through (point, value) pairs; dim+1 points."""
    dim = len(points[0])
    if len(points) != dim + 1 or len(values) != dim + 1:
        raise ValueError("affine interpolation needs dim+1 samples")
    rows = [[ONE] + list(p) for p in points]
    coeffs = _solve_exact(rows, list(values))
    return as_poly(coeffs, dim)


class FractalSurface:
    """Fixed point of the cell-wise transfer operator over the domain."""

    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        self._memo: dict = {}

    def bound(self) -> Fraction:
        return self.spec.data_bound() / (1 - abs(self.spec.scaling))

    def _resolve_chain(self, x: Vec, max_chain: int):
        """Exact value via the pull-back chain; None when no cycle closes."""
        if x in self._memo:
            return self._memo[x]
        chain = []  # (point, data value at pulled point)
        index_of: dict = {}
        s = self.spec.scaling
        z = x
        for step in range(max_chain):
            if z in self._memo:
                value = self._memo[z]
                break
            if z in index_of:
                j = index_of[z]
                C, S = Fraction(0), Fraction(1)
                for _, A in chain[j:]:
                    C = C + S * A
                    S = S * s
                value = C / (1 - S)
                self._memo[z] = value
                break
            index_of[z] = step
            i = self.spec.cell_of(z)
            z_next = self.spec._inverses[i].apply(z)
            chain.append((z, poly_val(self.spec.data[i], z_next)))
            z = z_next
        else:
            return None
        for pt, A in reversed(chain[: index_of.get(z, len(chain))]):
            value = A + s * value
            self._memo[pt] = value
        return self._memo[x]

    def evaluate(self, x: Sequence, depth: int = 64) -> EvalResult:
        """Exact where the pull-back orbit closes; certified interval otherwise."""
        x = Vec(Fraction(a) for a in x)
        if not self.spec.contains(x):
            raise ValueError("point is outside the domain")
        exact = self._resolve_chain(x, depth)
        if exact is not None:
            return EvalResult(exact, 0.0)
        s = self.spec.scaling
        z = x
        A, S = Fraction(0), Fraction(1)
        for _ in range(depth):
            i = self.spec.cell_of(z)
            z = self.spec._inverses[i].apply(z)
            A = A + S * poly_val(self.spec.data[i], z)
            S = S * s
        return EvalResult(A, float(abs(S) * self.bound()))

    def value_at(self, x: Sequence) -> Fraction:
        res = self.evaluate(x)
        if res.error_bound != 0.0:
            raise ArithmeticError("pull-back orbit did not close at this point")
        return res.value

    def vertex_values(self) -> dict:
        """Exact values at the domain vertices, cross-checked over all cells."""
        vals = {v: self.value_at(v) for v in self.spec.vertices}
        s = self.spec.scaling
        for i, u in enumerate(self.spec.maps):
            for v in self.spec.vertices:
                w = u.apply(v)
                expect = poly_val(self.spec.data[i], v) + s * vals[v]
                if w in vals and vals[w] != expect:
                    raise ArithmeticError("cell relations disagree at a vertex")
        return vals


def basis_surfaces(spec: SurfaceSpec) -> dict:
    """Cardinal surfaces, one per outer or inner vertex of the refinement.

    The data function on each cell is forced by affine interpolation of the
    prescribed vertex values; this is available for simplex domains where
    dim+1 vertex conditions pin an affine function exactly.
    """
    if len(spec.vertices) != spec.dim + 1:
        raise ValueError("vertex basis construction needs a simplex domain")
    pts = level_one_vertices(spec)
    s = spec.scaling
    out = {}
    for nu in pts:
        zvals = {p: (ONE if p == nu else ZERO) for p in pts}
        data = []
        for u in spec.maps:
            samples = [zvals[u.apply(v)] - s * zvals[v] for v in spec.vertices]
            data.append(affine_from_values(spec.vertices, samples))
        surf = FractalSurface(spec.with_data(data))
        surf.mesh(1)  # consistency check at the refinement vertices
        out[nu] = surf
    return out


# ---------------------------------------------------------------------------
# surfaces: mesh as a Fraction dict, per-pair inner products
# ---------------------------------------------------------------------------


def surface_mesh(self, depth: int) -> dict:
    """Exact values on the depth-times refined vertex set.

    Raises when two cells force different values at a shared point, so a
    successful build doubles as a continuity consistency check.
    """
    cur = self.vertex_values()
    s = self.spec.scaling
    for _ in range(depth):
        nxt: dict = {}
        for i, u in enumerate(self.spec.maps):
            lam = self.spec.data[i]
            for p, val in cur.items():
                q = u.apply(p)
                nv = poly_val(lam, p) + s * val
                old = nxt.get(q)
                if old is not None and old != nv:
                    raise ArithmeticError("inconsistent values at a shared mesh point")
                nxt[q] = nv
        cur = nxt
    return cur


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


def domain_integral(p: dict, vertices: Sequence) -> Fraction:
    """Exact integral of a polynomial over a simplex or an axis box."""
    verts = [Vec(Fraction(a) for a in v) for v in vertices]
    dim = len(verts[0])
    if len(verts) == dim + 1:
        edges = Mat([[verts[k + 1][i] - verts[0][i] for k in range(dim)] for i in range(dim)])
        chart = AffineMap(edges, verts[0])
        q = poly_compose_affine(p, chart)
        vol = abs(mat_det(edges))
        return vol * sum((c * _standard_simplex_integral(expo) for expo, c in q.items()), ZERO)
    box = _box_bounds(verts)
    if box is not None:
        total = Fraction(0)
        for expo, c in p.items():
            term = c
            for (lo, hi), e in zip(box, expo):
                term *= Fraction(hi ** (e + 1) - lo ** (e + 1), e + 1)
            total += term
        return total
    raise ValueError("domain must be a simplex or an axis-aligned box")


def surface_moments(surface: FractalSurface, degree: int) -> dict:
    """Exact integrals of the surface against monomials up to a degree."""
    spec = surface.spec
    degree = max(degree, max(poly_degree(p) for p in spec.data))
    expos = _monomials_upto(spec.dim, degree)
    pos = {e: k for k, e in enumerate(expos)}
    n = len(expos)
    dets = [abs(mat_det(u.linear)) for u in spec.maps]
    if sum(dets) != 1:
        raise ValueError("cells must tile the domain")
    s = spec.scaling
    # M_p = sum_i det_i * ( integral(lambda_i * p(u_i .)) + s * M_{p(u_i .)} )
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    rhs = [ZERO] * n
    for r, e in enumerate(expos):
        mono = {e: ONE}
        for i, u in enumerate(spec.maps):
            comp = poly_compose_affine(mono, u)
            rhs[r] += dets[i] * domain_integral(poly_mul(spec.data[i], comp), spec.vertices)
            for ce, cc in comp.items():
                rows[r][pos[ce]] -= dets[i] * s * cc
    sol = _solve_exact(rows, rhs)
    return {e: sol[pos[e]] for e in expos}


def surface_inner_product(f: FractalSurface, g: FractalSurface) -> Fraction:
    """Exact L2 inner product over the domain; same similitudes required."""
    sf, sg = f.spec, g.spec
    if sf.maps != sg.maps or sf.vertices != sg.vertices:
        raise ValueError("surfaces must share domain and similitudes")
    degree = max(max(poly_degree(p) for p in sf.data), max(poly_degree(p) for p in sg.data))
    mf = surface_moments(f, degree)
    mg = surface_moments(g, degree)
    dets = [abs(mat_det(u.linear)) for u in sf.maps]
    total = Fraction(0)
    for i in range(len(sf.maps)):
        lam_f, lam_g = sf.data[i], sg.data[i]
        term = domain_integral(poly_mul(lam_f, lam_g), sf.vertices)
        term += sg.scaling * sum((c * mg[e] for e, c in lam_f.items()), ZERO)
        term += sf.scaling * sum((c * mf[e] for e, c in lam_g.items()), ZERO)
        total += dets[i] * term
    return total / (1 - sf.scaling * sg.scaling)


def surface_gram_matrix(surfaces) -> list:
    family = list(surfaces.values() if isinstance(surfaces, dict) else surfaces)
    n = len(family)
    g = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g[a][b] = g[b][a] = surface_inner_product(family[a], family[b])
    return g


# ---------------------------------------------------------------------------
# surfaces with a scaling per cell: one moment solve per surface
# ---------------------------------------------------------------------------
#
# The library's `moments` and `_inner_from_moments` as they were before specs
# shared a system: each surface builds and solves its own moment system, and
# every integral composes with the domain chart again.  Only the reads of the
# spec differ: the cell determinants and per-cell scalings are computed here
# from its maps and `scaling`, and the integrals use `domain_integral` above.


def _cell_scalings(spec: SurfaceSpec) -> tuple:
    if isinstance(spec.scaling, tuple):
        return spec.scaling
    return (spec.scaling,) * len(spec.maps)


def cell_surface_moments(surface, degree: int) -> dict:
    """Exact integrals of the surface against monomials up to a degree."""
    spec = surface.spec
    degree = max(degree, max(poly_degree(p) for p in spec.data))
    expos = _monomials_upto(spec.dim, degree)
    pos = {e: k for k, e in enumerate(expos)}
    n = len(expos)
    dets = [abs(mat_det(u.linear)) for u in spec.maps]
    scalings = _cell_scalings(spec)
    if sum(dets) != 1:
        raise ValueError("cells must tile the domain")
    # M_p = sum_i det_i * ( integral(lambda_i * p(u_i .)) + s_i * M_{p(u_i .)} )
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    rhs = [ZERO] * n
    for r, e in enumerate(expos):
        mono = {e: ONE}
        for i, u in enumerate(spec.maps):
            comp = poly_compose_affine(mono, u)
            rhs[r] += dets[i] * domain_integral(poly_mul(spec.data[i], comp), spec.vertices)
            for ce, cc in comp.items():
                rows[r][pos[ce]] -= dets[i] * scalings[i] * cc
    sol = _solve_exact(rows, rhs)
    return {e: sol[pos[e]] for e in expos}


def cell_surface_inner_product(f, g) -> Fraction:
    """<f, g> from the cell data and both surfaces' moments, each solved anew."""
    sf, sg = f.spec, g.spec
    if sf.maps != sg.maps or sf.vertices != sg.vertices:
        raise ValueError("surfaces must share domain and similitudes")
    degree = max(max(poly_degree(p) for p in sf.data), max(poly_degree(p) for p in sg.data))
    mf, mg = cell_surface_moments(f, degree), cell_surface_moments(g, degree)
    dets = [abs(mat_det(u.linear)) for u in sf.maps]
    scal_f, scal_g = _cell_scalings(sf), _cell_scalings(sg)
    total = Fraction(0)
    for i, det in enumerate(dets):
        lam_f, lam_g = sf.data[i], sg.data[i]
        if not (lam_f or lam_g):
            continue
        term = domain_integral(poly_mul(lam_f, lam_g), sf.vertices)
        term += scal_g[i] * sum((c * mg[e] for e, c in lam_f.items()), ZERO)
        term += scal_f[i] * sum((c * mf[e] for e, c in lam_g.items()), ZERO)
        total += det * term
    s_quad = sum((d * a * b for d, a, b in zip(dets, scal_f, scal_g)), ZERO)
    return total / (1 - s_quad)


def cell_surface_gram_matrix(family) -> list:
    n = len(family)
    g = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g[a][b] = g[b][a] = cell_surface_inner_product(family[a], family[b])
    return g


def forced_data(spec: SurfaceSpec, tables: Sequence) -> list:
    """The library's `_forced_data` and `_System.interpolate` from before
    the integer tables: each cell's affine data through the Fraction inverse
    of the rows (1, v), one sum of Fraction products per coefficient."""
    interpolation = mat_inverse(Mat([[ONE, *v] for v in spec.vertices])).rows
    images = [[u.apply(v) for v in spec.vertices] for u in spec.maps]

    def interpolate(values: Sequence) -> dict:
        return as_poly([sum((a * b for a, b in zip(row, values)), ZERO)
                        for row in interpolation], spec.dim)

    return [[interpolate([f[w] - s * f[v] for w, v in zip(ws, spec.vertices)])
             for ws, s in zip(images, spec._scalings)] for f in tables]


FractalSurface.mesh = surface_mesh


# ---------------------------------------------------------------------------
# transfer-operator iterates: the loops of `fif` and `surfaces` from before
# one iteration on `surfaces.SelfAffine`, with the `_pull` each one used
# ---------------------------------------------------------------------------


def fif_pull(self, z: Fraction, i: int) -> tuple:
    cell = self.cells[i]
    z_next = cell.u_inv(z)
    return z_next, poly_eval(cell.data, z_next), cell.s


def fif_operator_iterates(self, depth: int, steps: int) -> list[np.ndarray]:
    """Transfer-operator iterates from zero, sampled on the depth mesh."""
    pts, _ = self.mesh(depth)
    pts_idx = {p: k for k, p in enumerate(pts)}
    pulled = []
    for p in pts:
        z, A, s = self._pull(p, self.cell_index(p))
        if z not in pts_idx:
            # boundary point parametrized from the other side
            z, A, s = self._pull(p, max(self.cell_index(p) - 1, 0))
        pulled.append((pts_idx[z], float(A), float(s)))
    values = np.zeros(len(pts))
    out = [values]
    for _ in range(steps):
        nxt = np.empty_like(values)
        for k, (src, A, s) in enumerate(pulled):
            nxt[k] = A + s * values[src]
        values = nxt
        out.append(values)
    return out


def surface_pull(self, z: Vec, i: int) -> tuple:
    z_next = self.spec._inverses[i].apply(z)
    return z_next, poly_val(self.spec.data[i], z_next), self.spec._scalings[i]


def surface_operator_iterates(self, depth: int, steps: int) -> list:
    """Sup-norm gaps of successive transfer-operator iterates from zero."""
    maps = self.spec.maps
    cur = set(self.spec.vertices)
    parent: dict = {}
    for _ in range(depth):
        nxt: dict = {}
        for i, u in enumerate(maps):
            for p in cur:
                nxt.setdefault(u.apply(p), (i, p))
        parent = nxt
        cur = set(nxt)
    pts = sorted(cur)
    index = {p: k for k, p in enumerate(pts)}
    pulled = []
    for p in pts:
        i, src = parent.get(p, (None, None))
        if src is None or src not in index:
            i = self.spec.cell_of(p)
        src, lam, s = self._pull(p, i)
        pulled.append((float(lam), index[src], float(s)))
    g = [0.0] * len(pts)
    gaps = []
    for _ in range(steps):
        ng = [lam + s * g[k] for lam, k, s in pulled]
        gaps.append(max(abs(a - b) for a, b in zip(ng, g)))
        g = ng
    return gaps


FractalFunction.mesh = fif_mesh
FractalFunction._pull = fif_pull
FractalSurface._pull = surface_pull


# ---------------------------------------------------------------------------
# MRA centroid samples: the Fraction push loop of `mra.centroid_samples` from
# before it ran the integer mesh cascade of `surfaces`
# ---------------------------------------------------------------------------


def centroid_samples(self, depth: int):
    """Cell centroids at the given depth with exact atom values there.

    Returns (points, values[natoms, npts], cell weight); the values
    propagate level by level through the exact cell relations.

    The loop reads each atom's cell data from its spec, where the earlier
    library read the same dicts from its own list of atom data.
    """
    atom_data = [a.spec.data for a in self.atoms]
    centroid = Vec(Fraction(lo + hi, 2) for lo, hi in self.domain.box)
    base = [a.value_at(centroid) for a in self.atoms]
    leaves = [(centroid, base)]
    s = self.config.scaling
    for _ in range(depth):
        nxt = []
        for pt, vals in leaves:
            for j, u in enumerate(self.maps):
                pushed = [
                    poly_val(atom_data[c][j], pt) + s * vals[c]
                    for c in range(len(vals))
                ]
                nxt.append((u.apply(pt), pushed))
        leaves = nxt
    pts = [pt for pt, _ in leaves]
    values = np.array([[float(v) for v in vals] for _, vals in leaves]).T
    measure = 1.0
    for lo, hi in self.domain.box:
        measure *= float(hi - lo)
    return pts, values, measure / len(leaves)


# ---------------------------------------------------------------------------
# the exact solves: Mat.inverse, reflections._rank, the cofactor Mat.det and
# fif._exact_ldl
# ---------------------------------------------------------------------------


def mat_det(self: Mat):
    if self.nrows != self.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = self.nrows
    if n == 1:
        return self.rows[0][0]
    if n == 2:
        (a, b), (c, d) = self.rows
        return a * d - b * c
    total = None
    for j in range(n):
        minor = Mat([r[:j] + r[j + 1 :] for r in self.rows[1:]])
        term = self.rows[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def exact_ldl(gram) -> tuple[np.ndarray, np.ndarray]:
    """L^-1 and D, as floats, of the exact G = L D L^T with L unit lower triangular."""
    n = len(gram)
    a = [[Fraction(x) for x in row[: i + 1]] for i, row in enumerate(gram)]
    for k in range(n):  # a[k][k] becomes D_k, and a[i][k] (i > k) becomes L_ik
        if a[k][k] <= 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        col = [a[i][k] for i in range(k + 1, n)]
        for i in range(k + 1, n):
            a[i][k] = lik = col[i - k - 1] / a[k][k]
            for j in range(k + 1, i + 1):
                a[i][j] -= lik * col[j - k - 1]
    inv = [[Fraction(int(i == j)) for j in range(i + 1)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum((a[i][k] * inv[k][j] for k in range(j, i)), Fraction(0))
    inv_lower = np.zeros((n, n))
    for i, row in enumerate(inv):
        inv_lower[i, : i + 1] = [float(x) for x in row]
    return inv_lower, np.array([float(a[k][k]) for k in range(n)])


def mat_inverse(self: Mat) -> Mat:
    """Gauss-Jordan inverse; exact when entries support exact division."""
    if self.nrows != self.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = self.nrows
    work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
    work = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in work]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return Mat([row[n:] for row in work])


def _rank(vectors: Sequence[Vec]) -> int:
    work = [list(v) for v in vectors]
    if not work:
        return 0
    cols = len(work[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pv = work[row][col]
        work[row] = [Fraction(a) / pv for a in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# affine maps and mirror formulas: AffineIsometry, AffineMap, reflect_root
# and affine_reflect, and mra's scaled_cell_word over them, from before one
# affine-map type
# ---------------------------------------------------------------------------

# the float tolerance of the orthogonality check, once `geometry.DEFAULT_TOL`
DEFAULT_TOL = 1e-10


class AffineIsometry:
    """x -> Ax + b with A orthogonal; composes and inverts exactly."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: Mat, shift: Vec, check: bool = True, tol: float = DEFAULT_TOL):
        if linear.nrows != linear.ncols:
            raise ValueError("linear part must be square")
        if linear.nrows != len(shift):
            raise ValueError("shift dimension mismatch")
        if check:
            gram = linear.transpose().matmul(linear)
            n = linear.nrows
            for i in range(n):
                for j in range(n):
                    want = 1 if i == j else 0
                    entry = gram.rows[i][j]
                    if abs(float(entry) - want) > tol:
                        raise ValueError("linear part is not orthogonal")
        self.linear = linear
        self.shift = Vec(shift)

    @staticmethod
    def identity(n: int) -> "AffineIsometry":
        return AffineIsometry(Mat.identity(n), Vec([Fraction(0)] * n), check=False)

    @staticmethod
    def translation(shift: Sequence) -> "AffineIsometry":
        return AffineIsometry(Mat.identity(len(shift)), Vec(shift), check=False)

    @property
    def dim(self) -> int:
        return self.linear.nrows

    def apply(self, x: Sequence) -> Vec:
        return self.linear.matvec(x) + self.shift

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        """Returns self after other, i.e. x -> self(other(x))."""
        return AffineIsometry(
            self.linear.matmul(other.linear),
            self.linear.matvec(other.shift) + self.shift,
            check=False,
        )

    def inverse(self) -> "AffineIsometry":
        inv = mat_inverse(self.linear)
        return AffineIsometry(inv, -inv.matvec(self.shift), check=False)

    def is_identity(self) -> bool:
        n = self.dim
        return self.linear == Mat.identity(n) and all(s == 0 for s in self.shift)

    def key(self):
        return (self.linear.rows, tuple(self.shift))

    def __eq__(self, other):
        return isinstance(other, AffineIsometry) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AffineIsometry(linear={self.linear!r}, shift={self.shift!r})"


class AffineMap:
    """x -> Ax + b without any orthogonality requirement (e.g. similitudes)."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: Mat, shift: Sequence):
        if linear.nrows != len(tuple(shift)):
            raise ValueError("shift dimension mismatch")
        self.linear = linear
        self.shift = Vec(shift)

    @property
    def dim(self) -> int:
        return self.linear.nrows

    def apply(self, x: Sequence) -> Vec:
        return self.linear.matvec(x) + self.shift

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Returns self after other, i.e. x -> self(other(x))."""
        return AffineMap(
            self.linear.matmul(other.linear),
            self.linear.matvec(other.shift) + self.shift,
        )

    def inverse(self) -> "AffineMap":
        inv = mat_inverse(self.linear)
        return AffineMap(inv, -inv.matvec(self.shift))

    def key(self):
        return (self.linear.rows, tuple(self.shift))

    def __eq__(self, other):
        return isinstance(other, AffineMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AffineMap(linear={self.linear!r}, shift={self.shift!r})"


def reflect_root(root: Sequence, x: Sequence) -> Vec:
    """Reflection across the hyperplane through the origin orthogonal to root."""
    root = Vec(Fraction(a) for a in root)
    x = Vec(x)
    rr = root.dot(root)
    if rr == 0:
        raise ValueError("zero root")
    return x - root.scale(2 * root.dot(x) / rr)


def affine_reflect(root: Sequence, level, x: Sequence) -> Vec:
    """Reflection across {y : <y, root> = level}.

    Equals the linear reflection followed by a translation along the coroot:
    rho_{r,k}(x) = rho_r(x) + k * coroot(r).
    """
    root = Vec(Fraction(a) for a in root)
    x = Vec(x)
    rr = root.dot(root)
    if rr == 0:
        raise ValueError("zero root")
    return x - root.scale(2 * (root.dot(x) - level) / rr)


def scaled_cell_word(r: AffineIsometry, u: AffineMap, kappa: int) -> AffineIsometry:
    """The isometry kappa * (r o u) for a similitude u with ratio 1/kappa."""
    comp = AffineMap(r.linear, r.shift).compose(u)
    return AffineIsometry(comp.linear.scale(Fraction(kappa)), comp.shift.scale(Fraction(kappa)))
