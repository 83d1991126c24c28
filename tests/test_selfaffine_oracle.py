"""Differential tests of the self-affine layer against `selfaffine_oracle.py`.

The integer-numerator mesh cascades must give the identical Fraction lists
and dicts (dict order included), the one-solve-per-member Gram matrices the
identical Fractions, and the quadrature's moment recursion (the same
midpoint sums, reassociated over a few moments per level) the node loop's
floats within 1e-12 of the entries' size.  The fractal functions, now a front end over the
surfaces engine, must give the earlier moments, inner products, Gram
matrices, knot values and evaluations (value and error bound) exactly, and
the one elimination in `geometry` the earlier ranks, inverses and
determinants, and the exact L D L^T behind `fif.orthonormalize` the floats
of the earlier one.
The earlier functions are built from the spec of the function under test
(`_old`): its maps, its scalings and its data coefficients up to the top
nonzero one.  The one transfer-operator iteration must give the identical
floats of the earlier loops of `fif` and `surfaces`.  The evaluation now
also resolves a chain that closes, or meets a known value, at exactly
`depth` pull-backs, where the earlier one returned an interval; so an
evaluation at depth d is compared with the earlier one at d + 1 where that
is exact.  Members of one system must have the values of their data on a
system of its own, whichever member is built first, and meshes must walk
the same chains at every depth; a function's knot values, values at its
knots and mesh must be those of a fresh object, whatever it computed
before; the column cascade must keep the oracle's point order, its zero
values and its errors on inconsistent data, on int64 columns, on Python-int
columns and where a level's bound crosses 2**63, and the MRA's centroid
samples, one run of the same cascade per atom, the points, float bits and
cell weight of the earlier Fraction push loop.
Scalings are signed with |s| < 1 and denominators up to 2**64, so the common
denominators of the cascades grow to hundreds of bits.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import selfaffine_oracle as oracle
from waveletsets import fif, geometry, mra
from waveletsets import surfaces as sf
from waveletsets.reflections import box_figure, subdivide

MESHES = settings(max_examples=120, deadline=None)
SURFACES = settings(max_examples=60, deadline=None)
BUILDS = settings(max_examples=6, deadline=None)

modes = st.sampled_from(["translation", "reflection"])
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _signed(den):
    return st.integers(-den + 1, den - 1).map(lambda p: F(p, den))


# |s| < 1 over a small or a large denominator
scalings = st.one_of(st.integers(1, 12), st.integers(2, 2 ** 64)).flatmap(_signed)


@dataclass(frozen=True)
class CellMap:
    """The earlier `fif.CellMap`, the cell the oracle's functions read: the
    map u(x) = m x + q, the data coefficients low degree first, the scaling."""

    m: F
    q: F
    data: tuple
    s: F

    def u(self, x):
        return self.m * x + self.q

    def u_inv(self, x):
        return (x - self.q) / self.m

    @property
    def preserves_orientation(self) -> bool:
        return self.m > 0


def _old(f):
    """The earlier FractalFunction over the cells of f's spec, with a memo of
    its own.  Each cell's coefficients run up to its top nonzero one, as the
    spec keeps them."""
    cells = [CellMap(u.linear.rows[0][0], u.shift[0],
                     tuple(lam.get((k,), F(0)) for k in range(sf.poly_degree(lam) + 1)), s)
             for u, lam, s in zip(f.spec.maps, f.spec.data, f.spec._scalings)]
    return oracle.FractalFunction(f.domain, cells)


def _olds(family):
    return [_old(f) for f in family]


def _same_outcome(run_new, run_old):
    """Both return equal results, or both raise the same error and message."""
    try:
        old = run_old()
    except ArithmeticError as exc:
        with pytest.raises(type(exc), match=str(exc)):
            run_new()
        return None
    new = run_new()
    assert list(new.items()) == list(old.items())
    return new


# -- fractal functions ---------------------------------------------------------


@MESHES
@given(n=st.integers(1, 5), mode=modes, s=scalings, depth=st.integers(0, 5), data=st.data())
def test_uniform_cardinal_mesh_and_gram_match_oracle(n, mode, s, depth, data):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    f = basis[data.draw(st.integers(0, n), label="member")]
    assert f.mesh(depth) == oracle.fif_mesh(_old(f), depth)
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(_olds(basis))


@MESHES
@given(xs=st.lists(small_fracs, min_size=2, max_size=6, unique=True).map(sorted),
       depth=st.integers(0, 4), data=st.data())
def test_interpolation_mesh_and_gram_match_oracle(xs, depth, data):
    n = len(xs) - 1
    ys = data.draw(st.lists(small_fracs, min_size=n + 1, max_size=n + 1), label="ys")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_interpolation(xs, ys, s)
    assert f.mesh(depth) == oracle.fif_mesh(_old(f), depth)
    basis = fif.cardinal_basis(xs, s)
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(_olds(basis))


@MESHES
@given(xs=st.lists(small_fracs, min_size=2, max_size=5, unique=True).map(sorted),
       depth=st.integers(0, 4), data=st.data())
def test_surface_engine_meshes_an_interpolation_function_alike(xs, depth, data):
    # an interpolation function is continuous, so the surface mesh over its
    # 1-D spec (a scaling per cell) holds the values of the fif mesh
    n = len(xs) - 1
    ys = data.draw(st.lists(small_fracs, min_size=n + 1, max_size=n + 1), label="ys")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_interpolation(xs, ys, s)
    pts, vals = oracle.fif_mesh(_old(f), depth)
    assert sf.FractalSurface(f.spec).mesh(depth) == {(x,): v for x, v in zip(pts, vals)}


# constant (1 coefficient) or quadratic (3 coefficients) data per cell
polys = st.one_of(st.lists(small_fracs, min_size=1, max_size=1),
                  st.lists(small_fracs, min_size=3, max_size=3))


@MESHES
@given(n=st.integers(1, 4), mode=modes, depth=st.integers(0, 4), data=st.data())
def test_constant_and_quadratic_data_match_oracle(n, mode, depth, data):
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    family = [fif.FractalFunction.from_uniform_data(
        n, data.draw(st.lists(polys, min_size=n, max_size=n), label="data"), s, mode)
        for _ in range(data.draw(st.integers(1, 3), label="members"))]
    for f in family:
        assert f.mesh(depth) == oracle.fif_mesh(_old(f), depth)
    # members of mixed data degree: the moments are solved once, at the
    # family's largest degree, for every member
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix(_olds(family))


@MESHES
@given(n=st.integers(1, 4), mode=modes, s=scalings, depth=st.integers(0, 6))
def test_quadrature_matches_loop(n, mode, s, depth):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    got = fif.gram_matrix_quadrature(basis, depth)
    want = oracle.fif_gram_matrix_quadrature(_olds(basis), depth)
    # 1e-12 relative to the entries: near |s| = 1 they reach 3e4, where one
    # ulp is 3.6e-12 and the two summation orders may differ by it
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.array_equal(got, got.T)


@MESHES
@given(n=st.integers(1, 4), mode=modes, far=st.booleans(), per_cell=st.booleans(), data=st.data())
def test_quadrature_recentres_data_like_the_dict_composer(n, mode, far, per_cell, data):
    # the cell data about the domain midpoint, as the quadrature rounds them,
    # on [0, n] in either layout or on [1000, 1002]; data of degree 0-3 or none
    if far:
        xs = [F(1000) + F(2 * k, n) for k in range(n + 1)]
        domain, maps = ((xs[0],), (xs[-1],)), fif.cardinal_basis(xs, [0] * n)[0].spec.maps
    else:
        domain, maps = ((F(0),), (F(n),)), fif.uniform_maps(n, mode)
    s = data.draw(st.lists(scalings, min_size=n, max_size=n).map(tuple) if per_cell else scalings,
                  label="s")
    cell = st.lists(small_fracs, max_size=4).map(lambda cs: {(k,): c for k, c in enumerate(cs)})
    family = [fif.FractalFunction(sf.SurfaceSpec(domain, maps, data.draw(
        st.lists(cell, min_size=n, max_size=n), label="data"), s))
        for _ in range(data.draw(st.integers(1, 3), label="members"))]
    mid = (domain[0][0] + domain[1][0]) / 2
    degree = max(sf.poly_degree(lam) for f in family for lam in f.spec.data)
    den, rows = fif._centred_rows(family, mid, degree)
    to_mid = geometry.AffineMap(geometry.Mat([[1]]), geometry.Vec((mid,)))
    for f, cells in zip(family, rows):
        for i, lam in enumerate(f.spec.data):
            want = oracle.poly_compose_affine(lam, to_mid)
            assert [F(c, den) for c in cells.get(i, [0] * (degree + 1))] == \
                [want.get((k,), F(0)) for k in range(degree + 1)]


# -- cardinal data: one forced-data rule -------------------------------------------

# increasing knots near 0, or on [1000, 1002], far from it
knots = st.one_of(
    st.lists(small_fracs, min_size=2, max_size=6, unique=True),
    st.lists(st.fractions(min_value=1000, max_value=1002, max_denominator=12),
             min_size=2, max_size=6, unique=True).map(lambda xs: xs + [F(1000), F(1002)]),
).map(lambda xs: sorted(set(xs)))


def _items(data) -> list:
    """Each cell's data as its monomial terms in order, so that equal data
    means the same Fractions in the same places."""
    return [list(sf.as_poly(d, 1).items()) for d in data]


@MESHES
@given(xs=knots, data=st.data())
def test_interpolation_data_equal_the_hand_solved_formulas(xs, data):
    n = len(xs) - 1
    ys = data.draw(st.lists(small_fracs, min_size=n + 1, max_size=n + 1), label="ys")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_interpolation(xs, ys, s)
    maps, want = oracle.interpolation(xs, ys, s)
    assert [u.key() for u in f.spec.maps] == [u.key() for u in maps]
    assert _items(f.spec.data) == _items(want)
    basis = fif.cardinal_basis(xs, s)
    kronecker = [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]
    assert [_items(g.spec.data) for g in basis] \
        == [_items(oracle.interpolation(xs, ys, s)[1]) for ys in kronecker]
    assert all(g.spec._system is basis[0].spec._system for g in basis)
    for g in basis:
        assert [u.key() for u in g.spec.maps] == [u.key() for u in maps]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), mode=modes, s=scalings)
def test_uniform_cardinal_data_equal_the_endpoint_loop(n, mode, s):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    maps = fif.uniform_maps(n, mode)
    assert all([u.key() for u in f.spec.maps] == [u.key() for u in maps] for f in basis)
    want = oracle.uniform_cardinal_data(n, s, maps)
    assert [_items(f.spec.data) for f in basis] == [_items(d) for d in want]
    assert all(f.spec._system is basis[0].spec._system for f in basis)
    if mode == "translation":
        same = fif.cardinal_basis(range(n + 1), [s] * n)
        assert len(same) == len(basis)
        for f, g in zip(basis, same):
            assert f.domain == g.domain and f.spec.scaling == g.spec.scaling
            assert [u.key() for u in f.spec.maps] == [u.key() for u in g.spec.maps]
            assert _items(f.spec.data) == _items(g.spec.data)


def _spec_outcome(run):
    """("raises", message) of a ValueError, or ("data", the cell data)."""
    try:
        return "data", _items(run().data)
    except ValueError as exc:
        return "raises", str(exc)


def _earlier(xs, ys, s):
    """The spec the earlier `from_interpolation` built, raising as it did."""
    maps, data = oracle.interpolation(xs, ys, s)
    return sf.SurfaceSpec(((xs[0],), (xs[-1],)), maps, data, tuple(s))


def _raises_like_the_earlier_formulas(xs, ys, s):
    want = _spec_outcome(lambda: _earlier(xs, ys, s))
    assert _spec_outcome(lambda: fif.FractalFunction.from_interpolation(xs, ys, s).spec) == want
    kronecker = [int(j == 0) for j in range(len(xs))]
    assert _spec_outcome(lambda: fif.cardinal_basis(xs, s)[0].spec) \
        == _spec_outcome(lambda: _earlier(xs, kronecker, s))
    return want


# the lengths are checked first, then the order of the knots, then the scalings
@pytest.mark.parametrize("xs, ys, s, message", [
    ([0, 1], [0], [F(1, 2)], "need N+1 points and N scalings"),
    ([0, 0], [0, 1, 2], [F(3, 2)], "need N+1 points and N scalings"),
    ([1, 0], [0, 1], [F(1, 2)], "abscissae must increase"),
    ([1, 0], [0, 1], [2], "abscissae must increase"),
    ([0, 1], [0, 1], [F(-1)], "vertical scaling must satisfy |s| < 1"),
    ([F(1, 2)], [1], [], "degenerate domain: the interval [1/2, 1/2] has zero length"),
])
def test_interpolation_checks_come_in_the_earlier_order(xs, ys, s, message):
    assert _raises_like_the_earlier_formulas(xs, ys, s) == ("raises", message)


# knots in any order, lengths off by one, and scalings of either size
@settings(max_examples=300, deadline=None)
@given(xs=st.lists(small_fracs, min_size=1, max_size=5), data=st.data())
def test_interpolation_raises_like_the_earlier_formulas(xs, data):
    n = len(xs) - 1
    ys = data.draw(st.lists(small_fracs, min_size=max(n, 0), max_size=n + 2), label="ys")
    s = data.draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                           min_size=max(n - 1, 0), max_size=n + 1), label="s")
    _raises_like_the_earlier_formulas(xs, ys, s)


# -- fractal functions over the surfaces engine -------------------------------------


@st.composite
def systems(draw):
    """Fractal functions sharing one system: an interpolation family with
    non-uniform knots and a scaling per cell, a uniform cardinal basis in
    either mode, or uniform data tuples ending in zeros with a scaling per
    cell."""
    kind = draw(st.sampled_from(["interpolation", "cardinal", "padded"]), label="kind")
    members = st.integers(1, 3)
    if kind == "interpolation":
        xs = sorted(draw(st.lists(small_fracs, min_size=2, max_size=5, unique=True), label="xs"))
        n = len(xs) - 1
        s = draw(st.lists(scalings, min_size=n, max_size=n), label="s")
        ys = st.lists(small_fracs, min_size=n + 1, max_size=n + 1)
        return [fif.FractalFunction.from_interpolation(xs, draw(ys, label="ys"), s)
                for _ in range(draw(members, label="members"))]
    n = draw(st.integers(1, 4), label="n")
    mode = draw(modes, label="mode")
    if kind == "cardinal":
        return fif.uniform_cardinal_basis(n, draw(scalings, label="s"), mode)
    s = draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    padded = st.tuples(st.lists(small_fracs, min_size=1, max_size=3),
                       st.integers(1, 2)).map(lambda cz: tuple(cz[0]) + (F(0),) * cz[1])
    data = st.lists(padded, min_size=n, max_size=n)
    return [fif.FractalFunction.from_uniform_data(n, draw(data, label="data"), s, mode)
            for _ in range(draw(members, label="members"))]


@MESHES
@given(family=systems(), degree=st.integers(0, 3), data=st.data())
def test_function_moments_and_grams_match_parent(family, degree, data):
    for f in family:
        assert fif.moments(f, degree) == oracle.moments(_old(f), degree)
    f, g = (family[data.draw(st.integers(0, len(family) - 1), label=k)] for k in "fg")
    assert fif.inner_product(f, g) == oracle.fif_inner_product(_old(f), _old(g))
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix(_olds(family))
    for f in family:
        assert f.knot_values() == _old(f).knot_values()


@MESHES
@given(family=systems(), depth=st.integers(1, 48), data=st.data())
def test_function_evaluation_matches_parent(family, depth, data):
    f = family[data.draw(st.integers(0, len(family) - 1), label="member")]
    a, b = f.domain
    # several points in turn on one object, each against a fresh parent
    # object, so no value the parent memoized for one point serves the next
    points = st.lists(st.fractions(min_value=a, max_value=b, max_denominator=10 ** 6),
                      min_size=1, max_size=4)
    for x in data.draw(points, label="points"):
        # the earlier rule missed a chain that resolves at exactly depth
        # pull-backs; it resolves x, and memoizes it, one step later
        old = _old(f)
        new, want = f.evaluate(x, depth), old.evaluate(x, depth + 1)
        if x not in old._memo:
            want = _old(f).evaluate(x, depth)
        assert (new.value, new.error_bound) == (want.value, want.error_bound)
    assert f.bound() == _old(f).bound()


@pytest.mark.parametrize("mode", ["translation", "reflection"])
def test_function_evaluation_at_the_default_depth_matches_parent(mode):
    # the chain of 1/1009 does not close within the default 48 pull-backs:
    # the default call returns the earlier truncated sum and tail bound
    f = fif.uniform_cardinal_basis(4, F(2, 5), mode)[1]
    new, want = f.evaluate(F(1, 1009)), _old(f).evaluate(F(1, 1009), 48)
    assert (new.value, new.error_bound) == (want.value, want.error_bound)
    assert new.error_bound == 1.320469375237739e-19


def test_chains_that_resolve_at_exactly_depth_are_exact():
    # each chain closes after 2 pull-backs; the earlier rule returned
    # 56/75 +- 0.42 and 61/125 +- 0.45 here
    f = fif.fixture("ex3.3")
    assert f.evaluate(F(1, 3), depth=2) == fif.EvalResult(F(56, 57), 0.0)
    assert _old(f).evaluate(F(1, 3), depth=2).error_bound > 0
    surf = sf.fixed_point(sf.fixture("ex5.2"))
    assert surf.evaluate((F(1, 5), F(2, 5)), depth=2) == sf.EvalResult(F(61, 80), 0.0)
    assert oracle.FractalSurface(surf.spec).evaluate((F(1, 5), F(2, 5)), 2).error_bound > 0


def test_function_bound_follows_the_data_degree():
    # a zero top coefficient leaves the data affine: the spec drops it, and
    # the bound is the one of the endpoint values, the surfaces' bound (the
    # earlier rule counted coefficients and gave 9/2 here)
    f = fif.FractalFunction.from_uniform_data(2, [(1, -1, 0), (0, 1, 0)], [F(1, 3), F(1, 4)])
    assert f.bound() == _old(f).bound() == sf.FractalSurface(f.spec).bound() == 3
    # quadratic data take the coarse coefficient bound, 1 + 2 + 4 on [0, 2]
    g = fif.FractalFunction.from_uniform_data(2, [(1, -1, 1), (0, 1, 0)], [F(1, 3), F(1, 4)])
    assert g.bound() == _old(g).bound() == F(21, 2)


# -- surfaces --------------------------------------------------------------------

EX52 = sf.fixture("ex5.2").data


@SURFACES
@given(s=scalings, depth=st.integers(0, 4), data=st.data())
def test_surface_mesh_and_basis_gram_match_oracle(s, depth, data):
    spec = sf.triangle_spec(EX52, s)
    surf = sf.FractalSurface(spec)
    _same_outcome(lambda: surf.mesh(depth),
                  lambda: oracle.surface_mesh(oracle.FractalSurface(spec), depth))
    basis = list(sf.basis_surfaces(spec).values())
    assert [b.spec.data for b in basis] == [b.spec.data for b in oracle.basis_surfaces(spec).values()]
    member = basis[data.draw(st.integers(0, len(basis) - 1), label="member")]
    _same_outcome(lambda: member.mesh(depth),
                  lambda: oracle.surface_mesh(oracle.FractalSurface(member.spec), depth))
    assert sf.gram_matrix(basis) == oracle.surface_gram_matrix(basis)


@settings(max_examples=20, deadline=None)
@given(s=scalings, depth=st.integers(0, 4))
def test_per_cell_scalings_equal_to_one_scaling_change_nothing(s, depth):
    shared, per_cell = sf.triangle_spec(EX52, s), sf.triangle_spec(EX52, (s, s, s, s))
    assert per_cell.scaling == (s, s, s, s)
    _same_outcome(lambda: sf.FractalSurface(per_cell).mesh(depth),
                  lambda: sf.FractalSurface(shared).mesh(depth))
    assert sf.moments(sf.FractalSurface(per_cell), 3) == sf.moments(sf.FractalSurface(shared), 3)
    # the shared-scaling Gram is checked against the oracle above
    assert sf.gram_matrix(sf.basis_surfaces(per_cell)) == sf.gram_matrix(sf.basis_surfaces(shared))


@SURFACES
@given(s=scalings, t=scalings, data=st.data())
def test_surfaces_with_different_scalings_match_oracle(s, t, data):
    basis = list(sf.basis_surfaces(sf.triangle_spec(EX52, t)).values())
    f = sf.FractalSurface(sf.triangle_spec(EX52, s))
    g = basis[data.draw(st.integers(0, len(basis) - 1), label="member")]
    assert sf.inner_product(f, g) == oracle.surface_inner_product(f, g)


def test_inconsistent_surface_data_still_raises():
    # the vertex relations of these data agree; the level-2 mesh does not
    data = [(1, F(1, 2), F(1, 5)), (-3, -3, F(2, 5)),
            (F(-1, 5), 0, F(-3, 5)), (F(1, 5), F(1, 5), 0)]
    surf = sf.FractalSurface(sf.triangle_spec(data, F(4, 5)))
    surf.vertex_values()
    for mesh in (surf.mesh, lambda d: oracle.surface_mesh(oracle.FractalSurface(surf.spec), d)):
        with pytest.raises(ArithmeticError, match="inconsistent values at a shared mesh point"):
            mesh(2)


@MESHES
@given(s=scalings, cell=st.integers(0, 3), bump=st.lists(small_fracs, min_size=3, max_size=3),
       depth=st.integers(1, 3))
def test_perturbed_surface_data_raise_alike(s, cell, bump, depth):
    # affine data as (c0, cx, cy)
    data = [[p.get((0, 0), 0), p.get((1, 0), 0), p.get((0, 1), 0)] for p in EX52]
    data[cell] = [a + b for a, b in zip(data[cell], bump)]
    surf = sf.FractalSurface(sf.triangle_spec(data, s))
    _same_outcome(lambda: surf.mesh(depth),
                  lambda: oracle.surface_mesh(oracle.FractalSurface(surf.spec), depth))


# -- members of one system and the column cascade ---------------------------------------


@SURFACES
@given(s=scalings, depth=st.integers(0, 2), kappa=st.integers(2, 3),
       widths=st.sampled_from([(1, 1), (2, F(1, 3))]),
       g=st.lists(small_fracs, min_size=6, max_size=6))
def test_surface_mesh_keeps_the_oracle_order(s, depth, kappa, widths, g):
    # the triangle meshes above have diagonal maps and affine data; here the
    # mirrored maps of a subdivided box carry the data lambda_i = g o u_i - s g
    # of a quadratic g, whose surface is g itself, so the mesh exists.  The
    # cascade must insert its points in the oracle's order: cells outer,
    # coarser points inner, each point where it first occurs
    figure = box_figure([(0, w) for w in widths])
    corners = [(x, y) for x in (0, widths[0]) for y in (0, widths[1])]
    maps = subdivide(figure, kappa)
    g = dict(zip([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], g))
    lam = [oracle.poly_add(oracle.poly_compose_affine(g, u), {e: -s * c for e, c in g.items()})
           for u in maps]
    surf = sf.FractalSurface(sf.SurfaceSpec(corners, maps, lam, s))
    # `_same_outcome` compares the items as lists, so in order
    mesh = _same_outcome(lambda: surf.mesh(depth),
                         lambda: oracle.surface_mesh(oracle.FractalSurface(surf.spec), depth))
    assert all(v == sf.poly_val(g, p) for p, v in mesh.items())


def _triangle_points(draw):
    """Rational points of the closed right triangle."""
    coords = st.fractions(min_value=0, max_value=1, max_denominator=40)
    return [(x, y) for x, y in draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
                                    label="points") if x + y <= 1]


def _fresh(spec):
    """The same spec built anew, on a system of its own."""
    return sf.SurfaceSpec(spec.vertices, spec.maps, spec.data, spec.scaling)


@SURFACES
@given(s=scalings, depth=st.integers(0, 3), data=st.data())
def test_surface_members_equal_fresh_specs_in_any_build_order(s, depth, data):
    # the members of a basis share one system; whichever member is built
    # first, every member's values must be those of its data on a system of
    # its own, so the system holds geometry and never data
    spec = sf.triangle_spec(EX52, s)
    members = [sf.FractalSurface(spec)] + list(sf.basis_surfaces(spec).values())
    points = _triangle_points(data.draw)
    for k in data.draw(st.permutations(range(len(members))), label="order"):
        member, fresh = members[k], sf.FractalSurface(_fresh(members[k].spec))
        for x in points:
            new, want = member.evaluate(x, 24), fresh.evaluate(x, 24)
            assert (new.value, new.error_bound) == (want.value, want.error_bound)
        assert list(member.vertex_values().items()) == list(fresh.vertex_values().items())
        assert list(member.mesh(depth).items()) == list(fresh.mesh(depth).items())
    assert all(m.spec._system is spec._system for m in members)


@MESHES
@given(n=st.integers(1, 4), mode=modes, s=scalings, depth=st.integers(0, 4), data=st.data())
def test_function_members_equal_fresh_functions_in_any_build_order(n, mode, s, depth, data):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    points = data.draw(st.lists(st.fractions(min_value=0, max_value=n, max_denominator=50),
                                min_size=1, max_size=4), label="points")
    for k in data.draw(st.permutations(range(n + 1)), label="order"):
        f = basis[k]
        polys = [c.data for c in _old(f).cells]
        fresh = fif.FractalFunction.from_uniform_data(n, polys, [s] * n, mode)
        assert f.knot_values() == fresh.knot_values()
        for x in points:
            new, want = f.evaluate(x, 32), fresh.evaluate(x, 32)
            assert (new.value, new.error_bound) == (want.value, want.error_bound)
        assert f.mesh(depth) == fresh.mesh(depth)


def _order_free_calls(f):
    """knot_values(), evaluate(t) at every knot and mesh(3) of f, by key."""
    calls = {"knots": f.knot_values, "mesh": lambda: f.mesh(3)}
    calls.update({t: (lambda t=t: f.evaluate(t)) for t in f.boundaries})
    return calls


def _assert_free_of_call_order(f, orders):
    """Each call, made on one object after the calls before it in an order,
    gives its value on a fresh object on a system of its own."""
    def fresh():
        return _order_free_calls(fif.FractalFunction(_fresh(f.spec)))

    want = {key: fresh()[key]() for key in _order_free_calls(f)}
    for order in orders:
        calls = fresh()
        for key in order:
            assert calls[key]() == want[key], (order, key)


@MESHES
@given(n=st.integers(1, 4), mode=modes, data=st.data())
def test_discontinuous_function_values_do_not_depend_on_call_order(n, mode, data):
    # data unrelated to the knots: the function jumps there, so the one-sided
    # knot values differ from the values of `evaluate` at the knots
    polys = data.draw(st.lists(st.lists(small_fracs, min_size=1, max_size=3),
                               min_size=n, max_size=n), label="data")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_uniform_data(n, polys, s, mode)
    keys = list(_order_free_calls(f))
    order = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2 * len(keys)),
                      label="order")
    _assert_free_of_call_order(f, [order])


@pytest.mark.parametrize("mode", ["translation", "reflection"])
@pytest.mark.parametrize("make", [
    lambda mode: fif.fixture("ex3.5", mode),
    lambda mode: fif.FractalFunction.from_uniform_data(2, [(0, 1), (5, 1)], [F(1, 2)] * 2, mode),
], ids=["ex3.5", "jump"])
def test_known_function_values_do_not_depend_on_call_order(make, mode):
    # every call after every other one
    f = make(mode)
    _assert_free_of_call_order(f, itertools.permutations(_order_free_calls(f), 2))


def _all_fractions(values):
    return all(type(v) is F for v in values)  # a 0 too, not int 0


@MESHES
@given(n=st.integers(1, 4), mode=modes, s=st.one_of(st.just(F(0)), scalings),
       depth=st.integers(0, 4), data=st.data())
def test_meshes_with_zero_values_match_the_oracle(n, mode, s, depth, data):
    # zero data on a drawn set of cells (every cell when s is drawn 0 too):
    # each 0 must come out as Fraction(0), in place, like any other value
    zero = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="zero cells")
    polys = [[F(0)] if z else data.draw(st.lists(small_fracs, min_size=1, max_size=2), label="data")
             for z in zero]
    f = fif.FractalFunction.from_uniform_data(n, polys, [s] * n, mode)
    pts, vals = f.mesh(depth)
    assert (pts, vals) == oracle.fif_mesh(_old(f), depth)
    assert _all_fractions(pts) and _all_fractions(vals) and F(0) in pts
    basis = fif.uniform_cardinal_basis(n, s, mode)
    pts, vals = basis[0].mesh(depth)
    assert (pts, vals) == oracle.fif_mesh(_old(basis[0]), depth)
    assert _all_fractions(vals) and F(0) in vals
    # a surface with zero data on drawn cells, and the zero surface
    cells = data.draw(st.lists(st.booleans(), min_size=4, max_size=4), label="zero surface cells")
    for spec in (sf.triangle_spec([{} if z else p for z, p in zip(cells, EX52)], s),
                 sf.triangle_spec([{}] * 4, s)):
        surf = sf.FractalSurface(spec)
        new = _same_outcome(lambda: surf.mesh(depth),
                            lambda: oracle.surface_mesh(oracle.FractalSurface(spec), depth))
        if new is not None:
            assert _all_fractions(new.values()) and all(_all_fractions(p) for p in new)
    assert set(sf.FractalSurface(sf.triangle_spec([{}] * 4, s)).mesh(depth).values()) == {0}


@MESHES
@given(s=scalings, cell=st.integers(0, 3), bump=st.lists(small_fracs, min_size=3, max_size=3),
       depth=st.integers(1, 3), points=st.data())
def test_inconsistent_data_raise_after_the_template_is_built(s, cell, bump, depth, points):
    # the template builds its mesh and values at some points first, on the
    # system a member built with `with_data` shares; the member's own data
    # must still fail the vertex relations or the shared mesh points alike
    template = sf.triangle_spec(EX52, s)
    surf = sf.FractalSurface(template)
    surf.mesh(depth)
    for x in _triangle_points(points.draw):
        surf.evaluate(x, 24)
    data = [[p.get((0, 0), 0), p.get((1, 0), 0), p.get((0, 1), 0)] for p in EX52]
    data[cell] = [a + b for a, b in zip(data[cell], bump)]
    member = sf.FractalSurface(template.with_data(data))
    _same_outcome(lambda: member.mesh(depth),
                  lambda: oracle.surface_mesh(oracle.FractalSurface(member.spec), depth))


def test_known_inconsistent_data_raise_after_the_template_is_built():
    data = [(1, F(1, 2), F(1, 5)), (-3, -3, F(2, 5)),
            (F(-1, 5), 0, F(-3, 5)), (F(1, 5), F(1, 5), 0)]
    template = sf.triangle_spec(EX52, F(4, 5))
    sf.FractalSurface(template).mesh(3)
    member = sf.FractalSurface(template.with_data(data))
    with pytest.raises(ArithmeticError, match="inconsistent values at a shared mesh point"):
        member.mesh(2)
    bumped = template.with_data([(1, 0, 0)] + list(template.data[1:]))
    with pytest.raises(ArithmeticError, match="cell relations disagree at a vertex"):
        sf.FractalSurface(bumped).mesh(1)
    with pytest.raises(ArithmeticError, match="cell relations disagree at a vertex"):
        oracle.surface_mesh(oracle.FractalSurface(bumped), 1)


def _counting_walks(obj):
    """Record the start point of every `_evaluate` call of obj; each call
    walks its own chain."""
    walks = set()
    evaluate = obj._evaluate

    def counted(x, depth):
        walks.add(x)
        return evaluate(x, depth)

    obj._evaluate = counted
    return walks


def test_meshes_walk_the_same_chains_at_every_depth():
    # meshes and operator iterates pull every mesh point back one step, but
    # walk a chain only from the domain vertices or ends: a fresh object
    # starts its walks at the same points at every depth, after its first
    # build and after its second
    for make in (lambda: sf.FractalSurface(sf.triangle_spec(EX52, F(3, 5))),
                 lambda: fif.uniform_cardinal_basis(4, F(2, 7), "reflection")[1]):
        starts = []
        for depth in range(1, 7):
            obj = make()
            walks = _counting_walks(obj)
            for _ in range(2):
                obj.mesh(depth)
                obj.operator_iterates(depth, 4)
                starts.append(set(walks))
        assert starts[0] and all(walks == starts[0] for walks in starts)


# -- transfer-operator iterates ------------------------------------------------------


def _same_iterates(new, old):
    assert len(new) == len(old)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(new, old))


@MESHES
@given(n=st.integers(1, 5), mode=modes, s=scalings, depth=st.integers(0, 5), data=st.data())
def test_cardinal_function_iterates_match_oracle(n, mode, s, depth, data):
    f = fif.uniform_cardinal_basis(n, s, mode)[data.draw(st.integers(0, n), label="member")]
    _same_iterates(f.operator_iterates(depth, 12), oracle.fif_operator_iterates(_old(f), depth, 12))


@MESHES
@given(n=st.integers(1, 4), mode=modes, depth=st.integers(0, 5), data=st.data())
def test_discontinuous_function_iterates_match_oracle(n, mode, depth, data):
    # data unrelated to the knots: the function jumps at the interior knots
    polys = data.draw(st.lists(st.lists(small_fracs, min_size=1, max_size=3),
                               min_size=n, max_size=n), label="data")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_uniform_data(n, polys, s, mode)
    _same_iterates(f.operator_iterates(depth, 12), oracle.fif_operator_iterates(_old(f), depth, 12))


@pytest.mark.parametrize("name, mode", [("ex3.3", "translation"), ("ex3.5", "translation"),
                                        ("ex3.5", "reflection")])
@pytest.mark.parametrize("depth", [0, 1, 4, 8])
def test_fixture_function_iterates_match_oracle(name, mode, depth):
    f = fif.fixture(name, mode)
    _same_iterates(f.operator_iterates(depth, 20), oracle.fif_operator_iterates(_old(f), depth, 20))


@SURFACES
@given(s=scalings, depth=st.integers(0, 4), data=st.data())
def test_surface_iterate_gaps_match_oracle(s, depth, data):
    spec = sf.triangle_spec(EX52, s)
    basis = list(sf.basis_surfaces(spec).values())
    for surf in (sf.FractalSurface(spec), basis[data.draw(st.integers(0, len(basis) - 1))]):
        gaps = surf.operator_iterates(depth, 12)
        assert all(type(g) is float for g in gaps)
        assert gaps == oracle.surface_operator_iterates(oracle.FractalSurface(surf.spec), depth, 12)


@pytest.mark.parametrize("depth", [0, 1, 2, 4])
def test_surface_iterates_of_inconsistent_data_match_oracle(depth):
    # data that disagree at a shared mesh point have no exact mesh, but the
    # iterates walk the points without values and pull each back through the
    # first cell that makes it, as the oracle does
    data = [(1, F(1, 2), F(1, 5)), (-3, -3, F(2, 5)),
            (F(-1, 5), 0, F(-3, 5)), (F(1, 5), F(1, 5), 0)]
    surf = sf.FractalSurface(sf.triangle_spec(data, F(4, 5)))
    with pytest.raises(ArithmeticError, match="inconsistent values at a shared mesh point"):
        surf.mesh(2)
    gaps = surf.operator_iterates(depth, 12)
    assert gaps == oracle.surface_operator_iterates(oracle.FractalSurface(surf.spec), depth, 12)


# -- MRA atoms ---------------------------------------------------------------------


@BUILDS
@given(kappa=st.integers(2, 3), degree=st.integers(0, 2), s=scalings,
       square=st.booleans())
@example(kappa=2, degree=2, s=F(1, 2), square=True)
@example(kappa=3, degree=1, s=F(-2, 7), square=True)
@example(kappa=2, degree=1, s=F(562949953416193, 562949954066132), square=False)  # |s| near 1
def test_mra_atom_gram_matches_oracle(kappa, degree, s, square):
    if kappa == 3 and square:
        degree = min(degree, 1)  # the oracle takes seconds beyond this
    figure = (box_figure([(0, 1), (0, 1)]) if square
              else box_figure([(0, 1)]))
    basis = mra.build(mra.MRAConfig(figure=figure, kappa=kappa, degree=degree, scaling=s))
    assert basis.atom_gram == oracle.surface_gram_matrix(basis.atoms)


CENTROID_FIGURES = {"interval": [(0, 1)], "square": [(0, 1), (0, 1)],
                    "box": [(0, F(1, 3)), (0, F(2, 5))]}


@settings(max_examples=15, deadline=None)
@given(figure=st.sampled_from(sorted(CENTROID_FIGURES)), kappa=st.integers(2, 3),
       degree=st.integers(0, 2), depth=st.integers(0, 4), s=scalings)
@example(figure="square", kappa=3, degree=2, depth=4, s=F(-2, 7))
@example(figure="box", kappa=2, degree=2, depth=4, s=F(3, 5))
def test_centroid_samples_match_the_fraction_loop(figure, kappa, degree, depth, s):
    # the cascade keeps every leaf, leaves outer and cells inner, and starts
    # at the mean of the domain's vertices: the points, the floats of the
    # exact values and the cell weight must be those of the push loop
    config = mra.MRAConfig(figure=box_figure(CENTROID_FIGURES[figure]), kappa=kappa,
                           degree=degree, scaling=s)
    basis = mra.build(config)
    pts, values, weight = basis.centroid_samples(depth)
    want_pts, want_values, want_weight = oracle.centroid_samples(basis, depth)
    assert pts == want_pts and all(type(p) is geometry.Vec for p in pts)
    assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
    assert weight == want_weight


# -- one exact elimination ---------------------------------------------------------

# small entries with many zeros, so singular systems are common
entries = st.one_of(st.integers(-2, 2), small_fracs)


def _matrix(n, m):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


def _outcome(run):
    """The result, or the type and message of the error raised."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


square_systems = st.integers(1, 4).flatmap(
    lambda n: st.tuples(_matrix(n, n), st.lists(entries, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(system=square_systems)
@example(system=([[1, 2], [2, 4]], [1, 2]))  # singular
@example(system=([[0, 1, 2], [0, 3, 4], [0, F(1, 2), 7]], [0, 0, 0]))  # a zero column
@example(system=([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [0, 0, 0]))  # pivots from rows 2, 1, 0
def test_solve_and_inverse_match_parent(system):
    rows, _ = system
    mat = geometry.Mat(rows)
    assert _outcome(mat.inverse) == _outcome(lambda: oracle.mat_inverse(mat))
    # the signed product of the pivots against the cofactor expansion,
    # singular matrices (determinant 0) included
    assert _outcome(mat.det) == _outcome(lambda: oracle.mat_det(mat))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 5), d=st.integers(1, 4), data=st.data())
def test_rank_matches_parent(k, d, data):
    vectors = [geometry.Vec(row) for row in data.draw(_matrix(k, d), label="vectors")]
    assert geometry.rank(vectors) == oracle._rank(vectors)


def _orthonormal_oracle(gram):
    """Q = L^-T D^-1/2 from the oracle's Fraction L D L^T."""
    inv_lower, diag = oracle.exact_ldl(gram)
    return inv_lower.T / np.sqrt(diag)[None, :]


def _atom_gram(kappa, degree, s):
    return mra.build(mra.MRAConfig(kappa=kappa, degree=degree, scaling=s)).atom_gram


def test_exact_fallback_matches_parent_where_the_float_cholesky_fails():
    near_singular = [[F(1), F(1)], [F(1), 1 + F(1, 10 ** 20)]]  # its float copy is singular
    cap = _atom_gram(4, 4, F(16777215, 16777216))
    for gram in (near_singular, cap):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array(gram, dtype=float))
        assert np.array_equal(fif.orthonormalize(gram), _orthonormal_oracle(gram))


@pytest.mark.parametrize("kappa, degree", [(2, 1), (3, 2)])
def test_exact_ldl_matches_parent_on_atom_grams(kappa, degree):
    # floats of the exact factors, whose float Cholesky passes: the exact
    # path is taken directly
    gram = _atom_gram(kappa, degree, F(2, 7))
    inv_lower, diag = geometry._ldl(gram)
    q = np.array(inv_lower, dtype=float).T / np.sqrt(np.array(diag, dtype=float))[None, :]
    assert np.array_equal(q, _orthonormal_oracle(gram))
    # and they are exact: L^-1 G L^-T = D
    n = len(gram)
    lg = [[sum(a * b for a, b in zip(row, col)) for col in zip(*gram)] for row in inv_lower]
    assert all(sum(a * b for a, b in zip(lg[i], inv_lower[j])) == (diag[i] if i == j else 0)
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("gram", [
    [[1, 2], [2, 4]],  # singular positive semidefinite
    [[1, 1, 0], [1, 2, 1], [0, 1, 1]],  # singular positive semidefinite, last pivot 0
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # singular positive semidefinite, middle pivot 0
    [[1, 2], [2, 1]],  # indefinite, a negative pivot
    [[0, 1], [1, 0]],  # indefinite, a zero pivot with a nonzero row below
])
def test_exact_fallback_rejects_what_is_not_positive_definite(gram):
    gram = [[F(x) for x in row] for row in gram]
    for factor in (fif.orthonormalize, oracle.exact_ldl):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            factor(gram)


# -- the column cascade on int64 and on Python ints ------------------------------


def _value_dtypes(monkeypatch):
    """The dtype of every value array `surfaces._level` returns, in order."""
    seen, level = [], sf._level

    def spy(*args):
        out = level(*args)
        if out[3] is not None:
            seen.append(out[3].dtype)
        return out

    monkeypatch.setattr(sf, "_level", spy)
    return seen


def _scaling_of_bits(bits):
    """Signed scalings |s| < 1 whose denominator has exactly this many bits."""
    return st.integers(2 ** (bits - 1) + 1, 2 ** bits).flatmap(_signed)


INT64, PYTHON_INTS = np.dtype(np.int64), np.dtype(object)


@MESHES
@given(bits=st.integers(1, 64), n=st.integers(1, 4), mode=modes, depth=st.integers(1, 6),
       data=st.data())
def test_column_meshes_match_the_oracle_on_both_dtypes(bits, n, mode, depth, data):
    # the denominators grow by a factor of the scaling's every level, so a
    # scaling of b bits crosses the int64 bound after about 63 / b levels:
    # small ones stay in int64, 64-bit ones go to Python ints at once, the
    # ones between switch within the mesh; each must equal the oracle
    s = data.draw(_scaling_of_bits(bits), label="s")
    f = fif.uniform_cardinal_basis(n, s, mode)[data.draw(st.integers(0, n), label="member")]
    surf = sf.FractalSurface(sf.triangle_spec(EX52, s))
    with pytest.MonkeyPatch.context() as mp:
        seen = _value_dtypes(mp)
        assert f.mesh(depth) == oracle.fif_mesh(_old(f), depth)
        _same_outcome(lambda: surf.mesh(min(depth, 4)),
                      lambda: oracle.surface_mesh(oracle.FractalSurface(surf.spec), min(depth, 4)))
    assert set(seen) <= {INT64, PYTHON_INTS}


@pytest.mark.parametrize("s, want", [
    (F(2, 7), [INT64] * 6),
    (F(-(2 ** 63 + 12345), 2 ** 64 - 59), [PYTHON_INTS] * 6),
    (F(3, 2 ** 20 + 7), [INT64, INT64, PYTHON_INTS, PYTHON_INTS, PYTHON_INTS, PYTHON_INTS]),
])
def test_value_columns_leave_int64_where_the_bound_crosses(monkeypatch, s, want):
    f = fif.uniform_cardinal_basis(3, s, "reflection")[1]
    seen = _value_dtypes(monkeypatch)
    assert f.mesh(6) == oracle.fif_mesh(_old(f), 6)
    assert seen == want


def _level_by_fractions(spec, cols, dp, vals, dv, dp_next, dv_next):
    """The level step of `surfaces._level` in Fractions: each image and value
    over its new denominator.  The images are transposed with `zip`, which
    keeps Python ints (a numpy transpose of ints at or above 2**63 makes
    them float64)."""
    points = [geometry.Vec(F(x, dp) for x in p) for p in zip(*cols)]
    images = [[[int(c * dp_next) for c in u.apply(p)] for p in points] for u in spec.maps]
    values = [[int((sf.poly_val(lam, p) + s * F(v, dv)) * dv_next) for p, v in zip(points, vals)]
              for lam, s in zip(spec.data, spec._scalings)]
    return [[list(row) for row in zip(*m)] for m in images], values


def _level_matches_fractions(spec, cols, dp, vals, dv):
    dp_next, images, dv_next, values = sf._level(spec, np.array(cols, dtype=object), dp,
                                                 np.array(vals, dtype=object), dv)
    want_images, want_values = _level_by_fractions(spec, cols, dp, vals, dv, dp_next, dv_next)
    assert images.tolist() == want_images and values.tolist() == want_values


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), mode=modes, s=scalings, data=st.data(),
       top_bits=st.integers(1, 64), size=st.integers(1, 6))
def test_level_step_is_exact_on_both_sides_of_the_int64_bound(n, mode, s, data, top_bits, size):
    # column entries up to 2**top_bits, so the bound of a level falls on
    # either side of 2**63 and near it: each entry must be the exact integer
    # of the level step, whichever dtype the bound picked
    polys = data.draw(st.lists(st.lists(small_fracs, min_size=1, max_size=3), min_size=n,
                               max_size=n), label="data")
    spec = fif.FractalFunction.from_uniform_data(n, polys, [s] * n, mode).spec
    entries = st.integers(-2 ** top_bits, 2 ** top_bits)
    cols = [data.draw(st.lists(entries, min_size=size, max_size=size), label="points")]
    vals = data.draw(st.lists(entries, min_size=size, max_size=size), label="values")
    dp, dv = data.draw(st.integers(1, 2 ** 20), label="dp"), data.draw(st.integers(1, 2 ** 40), label="dv")
    _level_matches_fractions(spec, cols, dp, vals, dv)


def test_level_step_images_above_int64_are_exact():
    # the last map of [0, 3] sends 9223372036848484353 / 2**20 to an image
    # of numerator 9223372036854775809 over 3 * 2**20, above 2**63: the
    # Python-int images must equal the oracle's exactly
    spec = fif.FractalFunction.from_uniform_data(3, [[0]] * 3, [0] * 3, "translation").spec
    _level_matches_fractions(spec, [[0, 9223372036848484353]], 2 ** 20, [0, 0], 1)


@pytest.mark.parametrize("top, dtype", [(2 ** 63 - 3, INT64), (2 ** 63 - 2, PYTHON_INTS)])
def test_level_step_at_the_edge_of_int64(top, dtype):
    # u_2(x) = x/2 + 1 over dp = 1 takes x = top to top + 2 over 2: the
    # bound top + 2 is exactly the largest image, the last int64 at 2**63 - 3
    spec = fif.FractalFunction.from_uniform_data(2, [[0], [0]], [0, 0], "translation").spec
    _, images, _, _ = sf._level(spec, np.array([[0, top]], dtype=object), 1,
                                np.array([0, 0], dtype=object), 1)
    assert images.dtype == dtype
    assert images.tolist() == [[[0, top]], [[2, top + 2]]]
