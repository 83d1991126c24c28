"""Differential tests of the self-affine layer against `selfaffine_oracle.py`.

The integer-numerator mesh cascades must give the identical Fraction lists
and dicts (dict order included), the one-solve-per-member Gram matrices the
identical Fractions, and the vectorized quadrature the loop's floats within
1e-12 of the entries' size.  Scalings are signed with |s| < 1 and
denominators up to 2**64, so the common denominators of the cascades grow
to hundreds of bits.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import selfaffine_oracle as oracle
from waveletsets import fif, mra
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
    assert f.mesh(depth) == oracle.fif_mesh(f, depth)
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(basis)


@MESHES
@given(xs=st.lists(small_fracs, min_size=2, max_size=6, unique=True).map(sorted),
       depth=st.integers(0, 4), data=st.data())
def test_interpolation_mesh_and_gram_match_oracle(xs, depth, data):
    n = len(xs) - 1
    ys = data.draw(st.lists(small_fracs, min_size=n + 1, max_size=n + 1), label="ys")
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    f = fif.FractalFunction.from_interpolation(xs, ys, s)
    assert f.mesh(depth) == oracle.fif_mesh(f, depth)
    basis = fif.cardinal_basis(xs, s)
    assert fif.gram_matrix(basis) == oracle.fif_gram_matrix(basis)


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
        assert f.mesh(depth) == oracle.fif_mesh(f, depth)
    # members of mixed data degree: the moments are solved once, at the
    # family's largest degree, for every member
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix(family)


@MESHES
@given(n=st.integers(1, 4), mode=modes, s=scalings, depth=st.integers(0, 6))
def test_quadrature_matches_loop(n, mode, s, depth):
    basis = fif.uniform_cardinal_basis(n, s, mode)
    got = fif.gram_matrix_quadrature(basis, depth)
    want = oracle.fif_gram_matrix_quadrature(basis, depth)
    # 1e-12 relative to the entries: near |s| = 1 they reach 3e4, where one
    # ulp is 3.6e-12 and the two summation orders may differ by it
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.array_equal(got, got.T)


# -- surfaces --------------------------------------------------------------------

EX52 = sf.fixture("ex5.2").data


@SURFACES
@given(s=scalings, depth=st.integers(0, 4), data=st.data())
def test_surface_mesh_and_basis_gram_match_oracle(s, depth, data):
    spec = sf.triangle_spec(EX52, s)
    surf = sf.FractalSurface(spec)
    _same_outcome(lambda: surf.mesh(depth), lambda: oracle.surface_mesh(surf, depth))
    basis = list(sf.basis_surfaces(spec).values())
    member = basis[data.draw(st.integers(0, len(basis) - 1), label="member")]
    _same_outcome(lambda: member.mesh(depth), lambda: oracle.surface_mesh(member, depth))
    assert sf.gram_matrix(basis) == oracle.surface_gram_matrix(basis)


def test_inconsistent_surface_data_still_raises():
    # the vertex relations of these data agree; the level-2 mesh does not
    data = [(1, F(1, 2), F(1, 5)), (-3, -3, F(2, 5)),
            (F(-1, 5), 0, F(-3, 5)), (F(1, 5), F(1, 5), 0)]
    surf = sf.FractalSurface(sf.triangle_spec(data, F(4, 5)))
    surf.vertex_values()
    for mesh in (surf.mesh, lambda d: oracle.surface_mesh(surf, d)):
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
    _same_outcome(lambda: surf.mesh(depth), lambda: oracle.surface_mesh(surf, depth))


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
