"""Self-affine surface oracles: fixture values, face validation, bases."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from waveletsets import surfaces as sf
from waveletsets.fif import FractalFunction


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
    lv = surf.level1_values()
    assert lv[(F(1, 2), F(0))] == F(1, 5)
    assert lv[(F(1, 2), F(1, 2))] == F(1, 2)
    assert lv[(F(0), F(1, 2))] == F(3, 10)


def test_mesh_matches_pointwise_evaluation(surf):
    mesh = surf.mesh(2)
    assert len(mesh) == 15
    for q, val in mesh.items():
        assert surf.value_at(q) == val


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
    combo = [sf.poly_add(a, sf.poly_add(b, b)) for a, b in zip(spec.data, other)]
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
    z = surf.level1_values()
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


def test_basis_refuses_different_scalings_per_cell(spec):
    # with these scalings every member passed the level-1 check but broke at
    # mesh(2) ("inconsistent values at a shared mesh point")
    mixed = sf.triangle_spec(spec.data, (F(1, 2), F(-1, 2), F(1, 4), F(1, 2)))
    with pytest.raises(ValueError, match="one vertical scaling"):
        sf.basis_surfaces(mixed)
    # the same scaling given once per cell is one scaling
    same = sf.triangle_spec(spec.data, (F(1, 2),) * 4)
    assert all(isinstance(b.mesh(2), dict) for b in sf.basis_surfaces(same).values())


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
