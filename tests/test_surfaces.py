"""Self-affine surface oracles: fixture values, face validation, bases,
and the Fractions the meshes are made of."""

import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import selfaffine_oracle as oracle
from waveletsets import surfaces as sf
from waveletsets.fif import FractalFunction
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import right_triangle_figure

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# |s| < 1 over a small or a large denominator
scalings = st.one_of(st.integers(1, 12), st.integers(2, 2 ** 64)).flatmap(
    lambda den: st.integers(-den + 1, den - 1).map(lambda p: F(p, den)))


@pytest.fixture(scope="module")
def spec():
    return sf.fixture("ex5.2")


@pytest.fixture(scope="module")
def surf(spec):
    return sf.fixed_point(spec)


def test_fixture_satisfies_face_condition(spec):
    report = sf.validate_condition_star(spec)
    assert report.valid and not report.violations


def test_perturbed_data_flags_adjacent_faces(spec):
    bad = list(spec.data)
    bad[2] = dict(bad[2])
    bad[2][(0, 0)] = F(1)
    report = sf.validate_condition_star(spec.with_data(bad))
    assert not report.valid
    assert sorted({v.cells for v in report.violations}) == [(1, 2), (2, 3)]


def test_identical_constant_data_passes(spec):
    const = [{(0, 0): F(7)}] * 4
    assert sf.validate_condition_star(spec.with_data(const)).valid


def test_outer_vertices_vanish(surf):
    assert all(v == 0 for v in surf.vertex_values().values())


def test_inner_vertex_values(surf):
    lv = surf.mesh(1)
    assert lv[(F(1, 2), F(0))] == F(1, 5)
    assert lv[(F(1, 2), F(1, 2))] == F(1, 2)
    assert lv[(F(0), F(1, 2))] == F(3, 10)


def test_mesh_matches_pointwise_evaluation(surf):
    mesh = surf.mesh(2)
    assert len(mesh) == 15
    for q, val in mesh.items():
        assert surf.value_at(q) == val


def test_surface_mesh_refuses_a_negative_depth(surf):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        surf.mesh(-2)
    assert surf.mesh(0) == surf.vertex_values()


def test_surface_evaluate_refuses_a_negative_depth(spec):
    surf, x = sf.fixed_point(spec), (F(1, 7), F(1, 9))
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        surf.evaluate(x, depth=-1)
    assert surf.evaluate(x, depth=0) == sf.EvalResult(F(0), 1.25)


def test_surface_operator_iterates_refuse_a_negative_depth(surf):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        surf.operator_iterates(-1, 2)
    assert surf.operator_iterates(0, 2) == [0.0, 0.0]


def test_zero_scaling_gives_the_data_patchwork(spec):
    flat = sf.fixed_point(spec.with_data(spec.data).with_data(spec.data))
    spec0 = sf.SurfaceSpec(spec.vertices, spec.maps, spec.data, 0)
    s0 = sf.fixed_point(spec0)
    pt = (F(3, 8), F(1, 8))
    i = spec0.cell_of(pt)
    pulled = spec0._inverses[i].apply(pt)
    assert s0.value_at(pt) == sf.poly_val(spec0.data[i], pulled)
    assert flat is not None


def test_contraction_on_refined_mesh(surf):
    gaps = surf.operator_iterates(6, 12)
    s = abs(float(surf.spec.scaling))
    for a, b in zip(gaps, gaps[1:]):
        if a > 1e-13:
            assert b <= s * a + 1e-12


def test_one_sided_face_values_agree(spec, surf):
    rng = random.Random(7)
    faces = sf.shared_faces(spec)
    checked = 0
    while checked < 100:
        i, j, pts = faces[rng.randrange(len(faces))]
        t = F(rng.randrange(1, 512), 512)
        p = pts[0] + (pts[1] - pts[0]).scale(t)
        sides = []
        for cell in (i, j):
            y = spec._inverses[cell].apply(p)
            sides.append(sf.poly_val(spec.data[cell], y) + spec.scaling * surf.value_at(y))
        assert abs(float(sides[0] - sides[1])) < 1e-9
        checked += 1


def test_linearity_of_data_to_surface(spec):
    other = sf.basis_surfaces(spec)[(F(1, 2), F(1, 2))].spec.data
    combo = [oracle.poly_add(a, oracle.poly_add(b, b)) for a, b in zip(spec.data, other)]
    m1 = sf.FractalSurface(spec).mesh(2)
    m2 = sf.FractalSurface(spec.with_data(other)).mesh(2)
    m3 = sf.FractalSurface(spec.with_data(combo)).mesh(2)
    assert all(m3[q] == m1[q] + 2 * m2[q] for q in m3)


# -- vertex basis -----------------------------------------------------------


@pytest.fixture(scope="module")
def basis(spec):
    return sf.basis_surfaces(spec)


def test_basis_has_one_surface_per_vertex(spec, basis):
    assert len(basis) == 6
    assert set(basis) == set(sf.level_one_vertices(spec))


def test_basis_is_cardinal(spec, basis):
    pts = sf.level_one_vertices(spec)
    for nu, b in basis.items():
        for p in pts:
            assert b.value_at(p) == (1 if p == nu else 0)


def test_all_ones_combination_is_one_at_vertices(spec, basis):
    for p in sf.level_one_vertices(spec):
        assert sum(b.value_at(p) for b in basis.values()) == 1


def test_basis_reproduces_the_fixture_surface(surf, basis):
    z = surf.mesh(1)
    for q, val in surf.mesh(3).items():
        assert sum(z[nu] * b.value_at(q) for nu, b in basis.items()) == val


def test_basis_gram_is_exact_and_nonsingular(basis):
    g = sf.gram_matrix(basis)
    assert all(g[a][b] == g[b][a] for a in range(6) for b in range(6))
    det = np.linalg.det(np.array([[float(v) for v in row] for row in g]))
    assert abs(det) > 1e-12


def test_gram_matrix_solves_one_moment_system_per_surface(basis, monkeypatch):
    solved = []
    moments = sf.moments

    def counting(f, degree):
        solved.append(f)
        return moments(f, degree)

    monkeypatch.setattr(sf, "moments", counting)
    sf.gram_matrix(basis)
    assert len(solved) == 6 and len({id(f) for f in solved}) == 6


@settings(max_examples=40, deadline=None)
@given(linear=st.lists(small_fracs, min_size=4, max_size=4), shift=st.lists(small_fracs, min_size=2,
       max_size=2), s=scalings)
@example(linear=[1, 0, 0, 1], shift=[0, 0], s=F(3, 5))
def test_basis_members_mesh_to_their_kronecker_tables(linear, shift, s):
    # basis_surfaces checks each member's forced data against its table
    # instead of building mesh(1); the level-1 mesh must still be that table,
    # on the right triangle moved by any invertible affine chart
    a, b, c, d = linear
    if a * d == b * c:
        return
    chart = AffineMap(Mat([[a, b], [c, d]]), Vec(shift))
    back = chart.inverse()
    spec = sf.SurfaceSpec([chart.apply(v) for v in right_triangle_figure().vertices],
                          [chart.compose(u).compose(back) for u in sf.quarter_triangle_maps()],
                          [{}] * 4, s)
    pts = sf.level_one_vertices(spec)
    for nu, member in sf.basis_surfaces(spec).items():
        assert member.mesh(1) == {p: int(p == nu) for p in pts}


def test_basis_check_rejects_tampered_data(spec, monkeypatch):
    # data that miss one vertex relation lambda_i(v) + s T(v) = T(u_i(v))
    # raise, as the level-1 mesh they replace did
    forced = sf._forced_data

    def tampered(spec, tables):
        out = forced(spec, tables)
        out[2][1] = oracle.poly_add(out[2][1], {(0, 0): F(1, 1000)})
        return out

    monkeypatch.setattr(sf, "_forced_data", tampered)
    with pytest.raises(ArithmeticError, match="cell relations disagree at a vertex"):
        sf.basis_surfaces(spec)


def test_basis_build_evaluates_no_point(spec, monkeypatch):
    def refuse(self, x, depth=64):
        raise AssertionError("basis_surfaces evaluated a point")

    monkeypatch.setattr(sf.FractalSurface, "evaluate", refuse)
    assert len(sf.basis_surfaces(spec)) == 6


def test_basis_refuses_different_scalings_per_cell(spec):
    # with these scalings every member passed the level-1 check but broke at
    # mesh(2) ("inconsistent values at a shared mesh point")
    mixed = sf.triangle_spec(spec.data, (F(1, 2), F(-1, 2), F(1, 4), F(1, 2)))
    with pytest.raises(ValueError, match="one vertical scaling"):
        sf.basis_surfaces(mixed)
    # the same scaling given once per cell is one scaling
    same = sf.triangle_spec(spec.data, (F(1, 2),) * 4)
    assert all(isinstance(b.mesh(2), dict) for b in sf.basis_surfaces(same).values())



@pytest.mark.parametrize("vertices,message", [
    (((0,), (0,)), r"the interval \[0, 0\] has zero length"),
    (((F(1, 2),), (F(1, 2),)), r"the interval \[1/2, 1/2\] has zero length"),
    (((0, 0), (1, 1), (2, 2)), r"the simplex \(0, 0\), \(1, 1\), \(2, 2\) is flat"),
    (((0, 0), (0, 1), (0, 0), (0, 1)), r"the box \[0, 0\] x \[0, 1\] is flat"),
])
def test_degenerate_domain_is_named(vertices, message):
    # before, the simplex chart's inverse raised "singular matrix"
    dim = len(vertices[0])
    identity = AffineMap(Mat([[int(i == j) for j in range(dim)] for i in range(dim)]),
                         Vec((0,) * dim))
    with pytest.raises(ValueError, match="degenerate domain: " + message):
        sf.SurfaceSpec(vertices, [identity], [{}], 0)

def test_inner_product_with_unshared_per_cell_scalings():
    # two interpolation functions on one interval, each with its own scaling
    # per cell, through the 1-D specs they hold; the trapezoid rule on their
    # depth-10 meshes is within 5e-6 of the exact value
    knots = [0, F(1, 3), 1]
    f = FractalFunction.from_interpolation(knots, [0, 1, F(1, 2)], [F(1, 2), F(-1, 3)])
    g = FractalFunction.from_interpolation(knots, [1, 0, 1], [F(-1, 4), F(2, 5)])
    exact = sf.inner_product(f, g)
    (xs, fv), (_, gv) = f.mesh(10), g.mesh(10)
    x = np.array([float(v) for v in xs])
    y = np.array([float(a * b) for a, b in zip(fv, gv)])
    assert abs(float(np.sum((y[1:] + y[:-1]) / 2 * np.diff(x))) - float(exact)) < 1e-4


def test_exact_surface_integral(surf):
    assert sf.moments(surf, 0)[(0, 0)] == F(5, 16)


# -- the Fractions of a mesh ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-2 ** 130, 2 ** 130), den=st.integers(1, 2 ** 90))
@example(n=0, den=1)
@example(n=0, den=12)
@example(n=-7, den=1)
@example(n=5, den=1)
@example(n=-6, den=4)
@example(n=2 ** 64 + 1, den=2 ** 64)
def test_coprime_fraction_is_the_fraction_it_fills(n, den):
    # the slots filled by `_coprime` (through `_fractions`, which reduces by
    # one gcd) must give a Fraction in every respect, on every Python the
    # project supports
    g = math.gcd(n, den)
    want = F(n, den)
    for got in (sf._coprime(n // g, den // g), sf._fractions(den, np.array([n], dtype=object))[0][0]):
        assert type(got) is F
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert str(got) == str(want) and repr(got) == repr(want)
        back = pickle.loads(pickle.dumps(got))
        assert type(back) is F and back == want
        assert got + want == 2 * want and got - want == 0 and got * 3 == want * 3
        assert -got == -want and abs(got) == abs(want) and float(got) == float(want)
        assert (got < 1) == (want < 1) and (got == float(want)) == (want == float(want))
        if want:
            assert got / want == 1 and 1 / got == 1 / want


def test_fractions_share_one_object_per_value_in_order():
    col = np.array([4, -2, 4, 0, 6, -2], dtype=np.int64)
    (made,) = sf._fractions(4, col)
    assert made == [1, F(-1, 2), 1, 0, F(3, 2), F(-1, 2)]
    assert made[0] is made[2] and made[1] is made[5]
    assert all(type(v) is F for v in made)
