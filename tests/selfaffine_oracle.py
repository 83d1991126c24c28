"""Reference self-affine computations for the differential tests of
`waveletsets.fif`, `waveletsets.surfaces` and `waveletsets.mra`.

These are the implementations the library used before its integer-numerator
mesh cascades, its one-solve-per-surface Gram matrices and its vectorized
quadrature: each mesh level is a list or dict of normalized Fractions, each
inner product solves both surfaces' moment systems again, and the quadrature
is a Python loop over its nodes.  They are slow but simple, and
`tests/test_selfaffine_oracle.py` uses them as the oracle for identical
Fractions (and for floats within 1e-12).  The bodies are kept verbatim:
only names differ (methods became functions of the object, and the 1-D
`poly_mul` is imported as `poly_mul_1d`).  The 1-D moment solve
`waveletsets.fif.moments` and the polynomial helpers are the library's own,
which these implementations shared.  Keep them unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from waveletsets.fif import FractalFunction, _check_shared_system, moments, poly_eval, poly_integral
from waveletsets.fif import poly_mul as poly_mul_1d
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.surfaces import (
    ONE,
    ZERO,
    FractalSurface,
    _monomials_upto,
    _solve_exact,
    _standard_simplex_integral,
    poly_compose_affine,
    poly_degree,
    poly_mul,
    poly_val,
)


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
        vol = abs(edges.det())
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
    dets = [abs(u.linear.det()) for u in spec.maps]
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
    dets = [abs(u.linear.det()) for u in sf.maps]
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
