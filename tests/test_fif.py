import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from waveletsets import fif
from waveletsets import surfaces as sf
from waveletsets.fif import (
    FractalFunction,
    cardinal_basis,
    gram_matrix,
    gram_matrix_quadrature,
    inner_product,
    moments,
    orthonormalize,
    uniform_cardinal_basis,
    uniform_maps,
)
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import box_figure, subdivide


@pytest.fixture
def two_cell():
    # interpolation through (0,0), (1/2, 7/10), (1,0) with s = (3/5, 2/5)
    return FractalFunction.from_interpolation(
        [0, F(1, 2), 1], [0, F(7, 10), 0], [F(3, 5), F(2, 5)]
    )


def _slopes_and_intercepts(maps):
    return [(u.linear.rows[0][0], u.shift[0]) for u in maps]


def _coefficients(data):
    """An affine data polynomial as (constant, slope)."""
    return tuple(data.get((k,), 0) for k in range(2))


def test_coefficients_from_interpolation(two_cell):
    assert two_cell.cells is two_cell.spec.maps
    assert _slopes_and_intercepts(two_cell.spec.maps) == [(F(1, 2), 0), (F(1, 2), F(1, 2))]
    p1, p2 = two_cell.spec.data
    assert _coefficients(p1) == (0, F(7, 10))
    assert _coefficients(p2) == (F(7, 10), F(-7, 10))


def test_exact_orbit_value(two_cell):
    r = two_cell.evaluate(F(1, 4))
    assert r.error_bound == 0.0
    assert r.value == F(77, 100)


def test_interpolation_property(two_cell):
    assert two_cell.knot_values() == [0, F(7, 10), 0]


def test_interval_evaluation_certified(two_cell):
    # the orbit of 1/3 closes after three pull-backs
    assert two_cell.evaluate(F(1, 3), depth=4).error_bound == 0.0
    irr = two_cell.evaluate(F(12345, 65536), depth=20)
    assert irr.error_bound < 1e-4
    deeper = two_cell.evaluate(F(12345, 65536), depth=40)
    assert abs(float(irr.value) - float(deeper.value)) <= irr.error_bound


def test_uniform_translation_and_reflection_layouts():
    t = uniform_maps(3, "translation")
    assert _slopes_and_intercepts(t) == [(F(1, 3), 0), (F(1, 3), 1), (F(1, 3), 2)]
    r = uniform_maps(3, "reflection")
    assert _slopes_and_intercepts(r) == [(F(1, 3), 0), (F(-1, 3), 2), (F(1, 3), 2)]


@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_layout_is_the_subdivision_of_the_interval(n):
    # u_1 = x/n and u_i = R_{i-1} o u_{i-1} with the mirror R_k(x) = 2k - x
    mirrored = [(F(1, n), F(0))]
    for i in range(1, n):
        m, q = mirrored[-1]
        mirrored.append((-m, 2 * i - q))
    maps = uniform_maps(n, "reflection")
    assert _slopes_and_intercepts(maps) == mirrored
    assert maps == subdivide(box_figure("interval", [(0, n)]), n)


def _interval_spec(lo, hi, maps):
    return sf.SurfaceSpec(((lo,), (hi,)), maps, [(0, 1)] * len(maps), F(1, 2))


def _map(slope, intercept):
    return AffineMap(Mat([[F(slope)]]), Vec((F(intercept),)))


def test_function_needs_a_spec_on_an_interval_tiled_by_its_cells():
    halves = [_map(F(1, 2), 0), _map(F(-1, 2), 1)]
    f = FractalFunction(_interval_spec(0, 1, halves))
    assert f.domain == (0, 1) and f.boundaries == [0, F(1, 2), 1]
    for maps in ([_map(F(1, 2), 0), _map(F(1, 2), 0)],                     # overlap
                 [_map(F(1, 3), 0), _map(F(1, 3), F(2, 3))],               # gap
                 [_map(F(1, 2), F(1, 2)), _map(F(1, 2), 0)],               # right to left
                 [_map(F(1, 2), 0)]):                                      # short
        with pytest.raises(ValueError, match="cells do not tile the domain"):
            FractalFunction(_interval_spec(0, 1, maps))
    with pytest.raises(ValueError, match="empty domain"):
        FractalFunction(_interval_spec(1, 0, [_map(1, 0)]))
    with pytest.raises(ValueError, match="needs a spec on an interval"):
        FractalFunction(sf.fixture("ex5.2"))


def test_knot_values_translation_mode():
    lam = [(0, F(1, 12)), (1, F(-5, 12)), (F(1, 2), F(1, 12))]
    f = FractalFunction.from_uniform_data(3, lam, [F(1, 2)] * 3, "translation")
    assert f.knot_values() == [0, 1, F(1, 2), F(3, 2)]


def test_knot_values_reflection_mode():
    lam = [(0, F(1, 12)), (1, F(-1, 12)), (F(1, 2), F(1, 12))]
    g = FractalFunction.from_uniform_data(3, lam, [F(1, 2)] * 3, "reflection")
    assert g.knot_values() == [0, 1, F(1, 2), F(3, 2)]


def test_one_sided_rules_at_the_jumps_of_ex35_reflection():
    # ex3.5 in the reflection layout jumps at 1 and 2: `evaluate` takes a
    # knot from its right cell, `knot_values` from an orientation-preserving
    # neighbour and the mesh from the left cell's column
    f = fif.fixture("ex3.5", "reflection")
    mesh = dict(zip(*f.mesh(3)))
    assert f.knot_values() == [0, 1, F(1, 2), F(3, 2)]
    assert [f.evaluate(t).value for t in f.boundaries] == [0, F(3, 2), F(1, 2), F(3, 2)]
    assert [mesh[t] for t in f.boundaries] == [0, 1, 1, F(3, 2)]


def test_evaluate_depends_on_what_its_object_resolved_before():
    # the chain of 1/1009 does not close within 48 steps, but it passes
    # through 4/1009, whose chain closes within 20,000: once that is
    # resolved, 1/1009 is exact too (knot and mesh values have no history)
    fresh = fif.uniform_cardinal_basis(4, F(2, 5))[1].evaluate(F(1, 1009))
    assert 1e-19 < fresh.error_bound < 2e-19
    member = fif.uniform_cardinal_basis(4, F(2, 5))[1]
    assert member.evaluate(F(4, 1009), depth=20_000).error_bound == 0
    after = member.evaluate(F(1, 1009))
    assert after.error_bound == 0 and after.value != fresh.value
    assert abs(after.value - fresh.value) <= fresh.error_bound


def test_basis_dimension_and_partition_of_unity():
    xs = [0, F(1, 2), 1]
    s = [F(3, 5), F(2, 5)]
    basis = cardinal_basis(xs, s)
    assert len(basis) == len(xs)
    for j, x in enumerate(xs):
        vals = [b.knot_values()[j] for b in basis]
        assert vals == [1 if i == j else 0 for i in range(len(xs))]
    # sum of the cardinal functions interpolates the constant 1 and the
    # fixed point of the summed data is the constant function
    total = FractalFunction.from_interpolation(xs, [1, 1, 1], s)
    for x in (F(1, 4), F(3, 8), F(7, 8)):
        parts = sum(b.evaluate(x).value for b in basis)
        assert parts == total.evaluate(x).value


def test_moments_match_quadrature(two_cell):
    m = moments(two_cell, 1)
    assert m[0] == F(7, 10)
    assert m[1] == F(49, 150)
    pts = gram_matrix_quadrature([two_cell], depth=12)
    assert abs(pts[0, 0] - float(inner_product(two_cell, two_cell))) < 1e-6


def test_gram_exact_vs_quadrature_oracle():
    basis = cardinal_basis([0, F(1, 2), 1], [F(3, 5), F(2, 5)])
    g = gram_matrix(basis)
    gq = gram_matrix_quadrature(basis, depth=12)
    ge = np.array([[float(x) for x in row] for row in g])
    assert abs(gq - ge).max() < 1e-6
    assert g[0][1] == g[1][0]


def _quadrature_families():
    for mode in ("translation", "reflection"):
        for s in (F(1, 3), F(-1, 2), F(2, 7)):
            yield pytest.param(uniform_cardinal_basis(4, s, mode), id=f"{mode}-{s}")
        yield pytest.param([fif.fixture("ex3.5", mode)], id=f"ex3.5-{mode}")
    yield pytest.param(cardinal_basis([0, F(1, 3), F(1, 2), 1], [F(1, 3), F(-2, 5), F(1, 4)]),
                       id="cardinal")
    # far from 0: the moments are taken about the domain midpoint, so the
    # binomial expansion of the cell maps keeps its digits (about 0 they are
    # off by 4e-11 here)
    yield pytest.param(
        cardinal_basis([1000, F(3001, 3), 1001, 1002], [F(1, 3), F(-2, 5), F(1, 4)]),
        id="cardinal-at-1000")
    # quadratic data with one scaling per cell
    yield pytest.param(
        [FractalFunction.from_uniform_data(3, data, [F(1, 3), F(-1, 4), F(1, 5)])
         for data in ([(1, -1, F(1, 2)), (0, 2, -1), (F(1, 3), 0, 1)],
                      [(0, 1), (F(1, 2), 0, F(-1, 3)), (2, -1, F(1, 4))])],
        id="quadratic")


@pytest.mark.parametrize("family", list(_quadrature_families()))
def test_deep_quadrature_meets_the_exact_gram(family):
    # depth 48 has 4**48 midpoint nodes on the 4-cell bases; the moment
    # recursion reaches it, and the midpoint error is far below 1e-12 there
    exact = np.array([[float(x) for x in row] for row in gram_matrix(family)])
    quad = gram_matrix_quadrature(family, depth=48)
    assert np.abs(quad - exact).max() < 1e-12
    assert np.array_equal(quad, quad.T)


def test_quadrature_memory_does_not_grow_with_the_node_count():
    # the depth-12 midpoint rule has 4**12 = 16.8 M nodes per function; the
    # recursion keeps a few moments per function, never the nodes
    basis = uniform_cardinal_basis(4, F(1, 3))
    tracemalloc.start()
    try:
        gram_matrix_quadrature(basis, depth=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

def test_orthonormalize():
    basis = cardinal_basis([0, F(1, 2), 1], [F(3, 5), F(2, 5)])
    g = gram_matrix(basis)
    q = orthonormalize(g)
    ge = np.array([[float(x) for x in row] for row in g])
    assert abs(q.T @ ge @ q - np.eye(3)).max() < 1e-12


def test_orthonormalize_factors_exactly_when_the_float_copy_is_not_positive_definite():
    g = [[F(1), F(1)], [F(1), 1 + F(1, 10 ** 20)]]  # its float copy is singular
    q = orthonormalize(g)
    qe = [[F(x) for x in row] for row in q.tolist()]
    prod = [[sum(qe[k][i] * g[k][l] * qe[l][j] for k in range(2) for l in range(2))
             for j in range(2)] for i in range(2)]
    assert max(abs(prod[i][j] - (i == j)) for i in range(2) for j in range(2)) < 1e-12
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        orthonormalize([[F(1), F(2)], [F(2), F(4)]])


def test_mesh_refines_and_keeps_knots(two_cell):
    pts, vals = two_cell.mesh(3)
    assert pts == [F(k, 8) for k in range(9)]
    assert vals[0] == 0 and vals[4] == F(7, 10) and vals[8] == 0
    assert vals[2] == F(77, 100)


@pytest.fixture
def cardinal():
    return uniform_cardinal_basis(4, F(1, 3))[1]


def test_function_mesh_refuses_a_negative_depth(cardinal):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        cardinal.mesh(-1)
    assert cardinal.mesh(0) == ([F(0), F(4)], [F(0), F(0)])


def test_function_evaluate_refuses_a_negative_depth(cardinal):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        cardinal.evaluate(F(1, 7), depth=-1)
    assert cardinal.evaluate(F(1, 7), depth=0) == sf.EvalResult(F(0), 1.5)


def test_function_operator_iterates_refuse_a_negative_depth(cardinal):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        cardinal.operator_iterates(-1, 2)
    assert [it.tolist() for it in cardinal.operator_iterates(0, 2)] == [[0.0, 0.0]] * 3


def test_operator_iteration_converges(two_cell):
    iters = two_cell.operator_iterates(depth=6, steps=40)
    pts, vals = two_cell.mesh(6)
    target = np.array([float(v) for v in vals])
    errs = [abs(it - target).max() for it in iters]
    assert errs[-1] < 1e-8
    assert errs[-1] < errs[5] < errs[0]


def test_rejects_bad_scaling():
    with pytest.raises(ValueError):
        FractalFunction.from_interpolation([0, 1], [0, 0], [F(3, 2)])
