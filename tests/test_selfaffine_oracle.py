"""Differential tests of the self-affine layer against `selfaffine_oracle.py`.

The integer-numerator mesh cascades must give the identical Fraction lists
and dicts (dict order included), the one-solve-per-member Gram matrices the
identical Fractions, and the vectorized quadrature the loop's floats within
1e-12 of the entries' size.  The fractal functions, now a front end over the
surfaces engine, must give the earlier moments, inner products, Gram
matrices, knot values and evaluations (value and error bound) exactly, and
the one elimination in `geometry` the earlier solutions, ranks and inverses.
The one transfer-operator iteration must give the identical floats of the
earlier loops of `fif` and `surfaces`.
Scalings are signed with |s| < 1 and denominators up to 2**64, so the common
denominators of the cascades grow to hundreds of bits.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import selfaffine_oracle as oracle
from waveletsets import fif, geometry, mra
from waveletsets import surfaces as sf
from waveletsets.reflections import box_figure

MESHES = settings(max_examples=120, deadline=None)
SURFACES = settings(max_examples=60, deadline=None)
BUILDS = settings(max_examples=6, deadline=None)

modes = st.sampled_from(["translation", "reflection"])
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _signed(den):
    return st.integers(-den + 1, den - 1).map(lambda p: F(p, den))


# |s| < 1 over a small or a large denominator
scalings = st.one_of(st.integers(1, 12), st.integers(2, 2 ** 64)).flatmap(_signed)


def _old(f):
    """The earlier FractalFunction over the same cells, with a memo of its own."""
    return oracle.FractalFunction(f.domain, f.cells)


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
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(basis)


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
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(basis)


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
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix(family)


@MESHES
@given(n=st.integers(1, 4), mode=modes, s=scalings, depth=st.integers(0, 6))
def test_quadrature_matches_loop(n, mode, s, depth):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    got = fif.gram_matrix_quadrature(basis, depth)
    want = oracle.fif_gram_matrix_quadrature([_old(f) for f in basis], depth)
    # 1e-12 relative to the entries: near |s| = 1 they reach 3e4, where one
    # ulp is 3.6e-12 and the two summation orders may differ by it
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.array_equal(got, got.T)


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
        assert fif.moments(f, degree) == oracle.moments(f, degree)
    f, g = (family[data.draw(st.integers(0, len(family) - 1), label=k)] for k in "fg")
    assert fif.inner_product(f, g) == oracle.fif_inner_product(f, g)
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix(family)
    for f in family:
        assert f.knot_values() == _old(f).knot_values()


@MESHES
@given(family=systems(), depth=st.integers(1, 48), data=st.data())
def test_function_evaluation_matches_parent(family, depth, data):
    f = family[data.draw(st.integers(0, len(family) - 1), label="member")]
    old = _old(f)
    a, b = f.domain
    # several points in turn, so values memoized by one chain serve the next
    points = st.lists(st.fractions(min_value=a, max_value=b, max_denominator=10 ** 6),
                      min_size=1, max_size=4)
    for x in data.draw(points, label="points"):
        new, want = f.evaluate(x, depth), old.evaluate(x, depth)
        assert (new.value, new.error_bound) == (want.value, want.error_bound)
    assert f.bound() == old.bound()


def test_function_bound_keeps_its_own_rule():
    # a trailing zero makes the coefficient rule apply; the surfaces rule
    # for the same spec would give 3
    f = fif.FractalFunction.from_uniform_data(2, [(1, -1, 0), (0, 1, 0)], [F(1, 3), F(1, 4)])
    assert f.bound() == _old(f).bound() == F(9, 2)
    assert sf.FractalSurface(f.spec).bound() == 3


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
def test_mra_atom_gram_matches_oracle(kappa, degree, s, square):
    if kappa == 3 and square:
        degree = min(degree, 1)  # the oracle takes seconds beyond this
    figure = (box_figure("unit-square", [(0, 1), (0, 1)]) if square
              else box_figure("unit-interval", [(0, 1)]))
    basis = mra.build(mra.MRAConfig(figure=figure, kappa=kappa, degree=degree, scaling=s))
    assert basis.atom_gram == oracle.surface_gram_matrix(basis.atoms)


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
def test_solve_and_inverse_match_parent(system):
    rows, _ = system
    mat = geometry.Mat(rows)
    assert _outcome(mat.inverse) == _outcome(lambda: oracle.mat_inverse(mat))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 5), d=st.integers(1, 4), data=st.data())
def test_rank_matches_parent(k, d, data):
    vectors = [geometry.Vec(row) for row in data.draw(_matrix(k, d), label="vectors")]
    assert geometry.rank(vectors) == oracle._rank(vectors)
