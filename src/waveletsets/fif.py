"""Fractal interpolation functions on an interval.

A fractal function is the fixed point of f(x) = p_i(u_i^{-1}(x)) + s_i *
f(u_i^{-1}(x)) on the i-th cell, where the u_i are affine contractions
mapping the domain onto the cells and the p_i are polynomial data.  All
data is exact (Fractions); evaluation is exact on orbit points and returns
certified intervals elsewhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import AffineMap, Mat, Vec


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_eval(coeffs: Sequence[Fraction], x):
    value = 0
    for c in reversed(tuple(coeffs)):
        value = value * x + c
    return value


def poly_compose_affine(coeffs: Sequence[Fraction], m: Fraction, q: Fraction) -> tuple:
    """Coefficients of p(m*x + q)."""
    result = [Fraction(0)]
    for c in reversed(tuple(coeffs)):
        # result = result*(m x + q) + c
        new = [Fraction(0)] * (len(result) + 1)
        for k, a in enumerate(result):
            new[k + 1] += a * m
            new[k] += a * q
        new[0] += c
        result = new
        while len(result) > 1 and result[-1] == 0:
            result.pop()
    return tuple(result)


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
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

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_interpolation(xs: Sequence, ys: Sequence, s: Sequence) -> "FractalFunction":
        """Affine fractal interpolation through (x_i, y_i) with scalings s_i."""
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
        return FractalFunction((a, b), cells)

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

    # -- meshes -------------------------------------------------------------------

    def mesh(self, depth: int):
        """Exact values on the orbit mesh, reported cell-by-cell.

        Returns (points, values) as parallel lists, where the points are the
        left endpoints of the depth-level leaf cells followed by the right
        endpoint of the domain, each with the value propagated through its
        own cell chain (one-sided at interior boundaries).

        Each level is held as integer numerators: points over one common
        denominator dp, values over one common denominator dv.  A level maps
        a point P/dp to (L m P + dp L q)/(dp L), with L the lcm of the map
        denominators, and a value to an integer Horner sum over
        dv' = lcm(dv den(s), den(data) dp^deg), so the cascade and the seam
        de-duplication run on plain ints.  Points and values become Fractions
        once, at the end.
        """
        a, b = self.domain
        kv = [_frac(v) for v in self.knot_values()]
        dp = math.lcm(a.denominator, b.denominator)
        dv = math.lcm(kv[0].denominator, kv[-1].denominator)
        pts = [a.numerator * (dp // a.denominator), b.numerator * (dp // b.denominator)]
        vals = [kv[0].numerator * (dv // kv[0].denominator),
                kv[-1].numerator * (dv // kv[-1].denominator)]
        data = [tuple(_frac(c) for c in cell.data) or (Fraction(0),) for cell in self.cells]
        scalings = [_frac(cell.s) for cell in self.cells]
        map_den = math.lcm(*(_frac(v).denominator for cell in self.cells for v in (cell.m, cell.q)))
        data_den = math.lcm(*(c.denominator for poly in data for c in poly))
        deg = max(len(poly) for poly in data) - 1
        for _ in range(depth):
            dp_next = dp * map_den
            dv_next = math.lcm(*(dv * si.denominator for si in scalings), data_den * dp ** deg)
            new_pts, new_vals = [], []
            for cell, poly, si in zip(self.cells, data, scalings):
                m = int(cell.m * map_den)
                q = int(cell.q * dp_next)
                seg_p = [m * p + q for p in pts]
                # poly(P/dp) * dv_next = sum_k (c_k dv_next / dp^k) P^k, by Horner
                coeffs = [int(c * dv_next / dp ** k) for k, c in enumerate(poly)]
                acc = [coeffs[-1]] * len(pts)
                for c in reversed(coeffs[:-1]):
                    acc = [h * p + c for h, p in zip(acc, pts)]
                carry = si.numerator * (dv_next // (dv * si.denominator))
                seg_v = [h + carry * v for h, v in zip(acc, vals)]
                if not cell.preserves_orientation:
                    seg_p.reverse()
                    seg_v.reverse()
                if new_pts and new_pts[-1] == seg_p[0]:
                    seg_p, seg_v = seg_p[1:], seg_v[1:]
                new_pts.extend(seg_p)
                new_vals.extend(seg_v)
            pts, vals, dp, dv = new_pts, new_vals, dp_next, dv_next
        return [Fraction(p, dp) for p in pts], [Fraction(v, dv) for v in vals]

    def operator_iterates(self, depth: int, steps: int) -> list[np.ndarray]:
        """Transfer-operator iterates from zero, sampled on the depth mesh."""
        pts, _ = self.mesh(depth)
        pts_idx = {p: k for k, p in enumerate(pts)}
        pulled = []
        for k, p in enumerate(pts):
            cell = self.cells[self.cell_index(p)]
            z = cell.u_inv(p)
            if z not in pts_idx:
                # boundary point parametrized from the other side
                cell = self.cells[max(self.cell_index(p) - 1, 0)]
                z = cell.u_inv(p)
            pulled.append((pts_idx[z], float(poly_eval(cell.data, z)), float(cell.s)))
        values = np.zeros(len(pts))
        out = [values]
        for _ in range(steps):
            nxt = np.empty_like(values)
            for k, (src, A, s) in enumerate(pulled):
                nxt[k] = A + s * values[src]
            values = nxt
            out.append(values)
        return out

    # -- graph maps --------------------------------------------------------------

    def graph_maps(self) -> list[AffineMap]:
        """The plane maps T_i(x, y) = (u_i(x), p_i(x) + s_i y)."""
        return [graph_map_from_cell(c) for c in self.cells]


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
# graph maps as plane contractions
# ---------------------------------------------------------------------------


def graph_map_from_cell(cell: CellMap) -> AffineMap:
    """T(x, y) = (u(x), p(x) + s y) for affine data p."""
    if len(cell.data) > 2:
        raise ValueError("graph maps require affine data")
    beta = cell.data[0]
    ci = cell.data[1] if len(cell.data) > 1 else Fraction(0)
    return AffineMap(Mat([[cell.m, Fraction(0)], [ci, cell.s]]), Vec((cell.q, beta)))


def lipschitz_bound(amap: AffineMap) -> float:
    """Largest singular value of the linear part."""
    return float(np.linalg.norm(amap.linear.to_numpy(), 2))


def hutchinson_step(maps: Sequence[AffineMap], points: Sequence[tuple]) -> list[tuple]:
    """One Hutchinson iteration applied to a finite point set."""
    out = []
    for m in maps:
        for p in points:
            out.append(tuple(m.apply(p)))
    return out


def hausdorff_distance(a: Sequence[tuple], b: Sequence[tuple]) -> float:
    """Hausdorff distance between finite plane point sets."""
    pa = np.array([[float(x) for x in p] for p in a])
    pb = np.array([[float(x) for x in p] for p in b])
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


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
            rhs[m] += ai * poly_integral(poly_mul(cell.data, mono), a, b)
            for j, cj in enumerate(mono):
                T[m][j] += ai * cell.s * cj
            mono = poly_mul(mono, (cell.q, cell.m))
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


def _inner_from_moments(f: FractalFunction, g: FractalFunction, mf: list, mg: list) -> Fraction:
    """<f, g> from the cell data and each function's moments up to the data degree."""
    a, b = f.domain
    total = Fraction(0)
    s_quad = Fraction(0)
    for cf, cg in zip(f.cells, g.cells):
        ai = abs(cf.m)
        total += ai * poly_integral(poly_mul(cf.data, cg.data), a, b)
        total += ai * cf.s * sum(c * mg[j] for j, c in enumerate(cf.data))
        total += ai * cf.s * sum(c * mf[j] for j, c in enumerate(cg.data))
        s_quad += ai * cf.s * cf.s
    if s_quad >= 1:
        raise ValueError("inner products need sum a_i s_i^2 < 1")
    return total / (1 - s_quad)


def _data_degree(functions: Sequence[FractalFunction]) -> int:
    return max(len(c.data) for f in functions for c in f.cells) - 1


def inner_product(f: FractalFunction, g: FractalFunction) -> Fraction:
    """Exact L2 inner product over the domain, via the moment recursion."""
    _check_shared_system([f, g])
    deg = _data_degree([f, g])
    return _inner_from_moments(f, g, moments(f, deg), moments(g, deg))


def gram_matrix(functions: Sequence[FractalFunction]) -> list[list[Fraction]]:
    """Exact Gram matrix; one moment solve per function, at the family's data
    degree (the moment system is triangular, so a higher degree changes no
    lower moment)."""
    _check_shared_system(functions)
    deg = _data_degree(functions)
    mom = [moments(f, deg) for f in functions]
    n = len(functions)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = _inner_from_moments(functions[i], functions[j], mom[i], mom[j])
            g[i][j] = val
            g[j][i] = val
    return g


def gram_matrix_quadrature(functions: Sequence[FractalFunction], depth: int = 12) -> np.ndarray:
    """Composite midpoint quadrature on the shared orbit mesh (float oracle).

    The domain midpoint is pushed through all depth-level words; nodes, cell
    widths and the values of every function are cascaded level by level as
    float64 arrays, the images under each cell concatenated in cell order.
    """
    _check_shared_system(functions)
    base = functions[0]
    a, b = base.domain
    mid = (a + b) / 2
    nodes = np.array([float(mid)])
    widths = np.array([float(b - a)])
    vals = np.array([[float(f.evaluate(mid, depth=80).value)] for f in functions])
    # per cell: slope, intercept, data coefficients [function, power] padded
    # with zeros (a zero leading coefficient leaves Horner's floats unchanged)
    # and scalings [function, 1]
    width = _data_degree(functions) + 1
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
    xs = [_frac(v) for v in xs]
    n = len(xs)
    basis = []
    for i in range(n):
        ys = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        basis.append(FractalFunction.from_interpolation(xs, ys, s))
    return basis


def uniform_cardinal_basis(n: int, s, mode: str = "translation") -> list[FractalFunction]:
    """Cardinal functions at the integer knots of [0, n] for either layout.

    The affine data on each cell is pinned by the endpoint relations
    f(u_i(0)) = p_i(0) + s f(0) and f(u_i(n)) = p_i(n) + s f(n).
    """
    s = _frac(s)
    maps = uniform_maps(n, mode)
    basis = []
    for j in range(n + 1):
        y = [Fraction(1) if k == j else Fraction(0) for k in range(n + 1)]
        data = []
        for m, q in maps:
            v0 = y[int(q)] - s * y[0]
            vn = y[int(m * n + q)] - s * y[n]
            data.append((v0, Fraction(vn - v0, n)))
        basis.append(FractalFunction.from_uniform_data(n, data, [s] * n, mode))
    return basis


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
