"""Root systems, affine reflections, folding, and subdivision."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import selfaffine_oracle as oracle

from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import (
    RootSystem,
    affine_reflection,
    box_figure,
    centered_square_figure,
    fold,
    klein_four_root_system,
    right_triangle_figure,
    subdivide,
    unit_square_figure,
)


def test_klein_four_group_order():
    w = klein_four_root_system().weyl_group()
    assert len(w) == 4
    rho1 = Mat([[-1, 0], [0, 1]])
    rho2 = Mat([[1, 0], [0, -1]])
    assert rho1.matmul(rho2).matmul(rho1.matmul(rho2)) == Mat.identity(2)


def test_invalid_root_systems_rejected():
    with pytest.raises(ValueError):
        RootSystem([(1, 0), (-1, 0)])  # does not span
    with pytest.raises(ValueError):
        RootSystem([(1, 0), (0, 1)])  # not symmetric
    with pytest.raises(ValueError):
        RootSystem([(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)])  # non-reduced


def test_parallel_affine_reflections_compose_to_lattice_translation():
    # two reflections in parallel mirrors <x, r> = k and <x, r> = l translate
    # by (k - l) times the coroot 2r/<r, r>, symbolically over the rationals
    for r in [(1, 0), (0, 2), (1, 1)]:
        coroot = Vec(r).scale(F(2, Vec(r).dot(Vec(r))))
        for k, l in [(0, 1), (2, -3), (5, 5)]:
            comp = affine_reflection(r, k).compose(affine_reflection(r, l))
            assert comp.linear == Mat.identity(2)
            assert comp.shift == coroot.scale(k - l)


def test_perpendicular_affine_reflections_compose_to_point_reflection():
    comp = affine_reflection((1, 0), 2).compose(affine_reflection((0, 1), 3))
    assert comp.linear == Mat([[-1, 0], [0, -1]])
    assert comp.shift == Vec((4, 6))


def test_affine_reflect_fixes_its_mirror():
    assert affine_reflection((1, 1), F(1, 2)).apply((F(1, 4), F(1, 4))) == (F(1, 4), F(1, 4))
    assert affine_reflection((0, 1), 0).apply((3, 5)) == (3, -5)


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=16)


def _outcome(fn):
    try:
        return "ok", fn()
    except ValueError:
        return ValueError, None


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_mirror_helpers_match_their_own_formulas(n, data):
    # roots of integers or fractions, the zero root included
    entries = st.one_of(st.integers(-3, 3), fracs)
    root = data.draw(st.one_of(st.lists(entries, min_size=n, max_size=n),
                               st.just([0] * n)), label="root")
    level = data.draw(st.one_of(st.integers(-3, 3), fracs), label="level")
    x = data.draw(st.lists(st.one_of(st.integers(-5, 5), fracs), min_size=n, max_size=n),
                  label="x")
    pairs = [(lambda: affine_reflection(root, level).apply(x),
              lambda: oracle.affine_reflect(root, level, x)),
             (lambda: affine_reflection(root, 0).apply(x), lambda: oracle.reflect_root(root, x))]
    for new, old in pairs:
        got, want = _outcome(new), _outcome(old)
        assert got == want
        if got[0] == "ok":
            assert type(got[1]) is Vec and all(type(a) is F for a in got[1])


def test_fold_lands_inside_and_isometry_inverts():
    fig = centered_square_figure()
    x = Vec((F(17, 5), F(-23, 7)))
    res = fold(fig, x)
    assert all(-1 <= a <= 1 for a in res.point)
    assert res.isometry.apply(res.point) == x


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_fold_of_a_box_is_the_triangle_wave_per_axis(n, data):
    sides = data.draw(st.lists(st.tuples(fracs, st.fractions(F(1, 4), 3, max_denominator=16)),
                               min_size=n, max_size=n), label="sides")
    x = Vec(data.draw(st.lists(st.fractions(-20, 20, max_denominator=16), min_size=n,
                               max_size=n), label="x"))
    res = fold(box_figure("box", [(lo, lo + w) for lo, w in sides]), x)
    assert res.point == tuple(lo + w - abs((a - lo) % (2 * w) - w) for (lo, w), a in zip(sides, x))
    assert res.isometry.apply(res.point) == x


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.fractions(-10, 10, max_denominator=16), min_size=2, max_size=2))
def test_fold_of_the_right_triangle_lands_inside_and_inverts(x):
    res = fold(right_triangle_figure(), x)
    a, b = res.point
    assert a >= 0 and b >= 0 and a + b <= 1
    assert res.isometry.apply(res.point) == tuple(x)


def test_fold_fixes_interior_points():
    fig = unit_square_figure()
    res = fold(fig, (F(1, 3), F(2, 5)))
    assert res.point == (F(1, 3), F(2, 5)) and res.word == []


def test_subdivision_tiles_the_figure():
    fig = unit_square_figure()
    maps = subdivide(fig, 2)
    assert len(maps) == 4
    corners = [Vec((F(a), F(b))) for a in (0, 1) for b in (0, 1)]
    cells = [frozenset(u.apply(v) for v in corners) for u in maps]
    assert len(set(cells)) == 4
    # the first map is the pure scaling
    assert maps[0].apply((1, 1)) == (F(1, 2), F(1, 2))
    # every half-integer grid vertex of the figure is hit
    hit = {p for c in cells for p in c}
    assert Vec((F(1, 2), F(1, 2))) in hit and Vec((F(1), F(1))) in hit


@pytest.mark.parametrize("fig", [box_figure("interval", [(0, 3)]), unit_square_figure(),
                                 box_figure("box", [(0, 2), (0, F(1, 3)), (0, 1)])])
def test_subdivision_by_one_is_the_identity(fig):
    identity = AffineMap(Mat.identity(fig.dim), Vec([F(0)] * fig.dim))
    assert subdivide(fig, 1) == [identity]
    with pytest.raises(ValueError, match="kappa must be at least 1"):
        subdivide(fig, 0)


def test_triangle_figure_folds_its_mirror_image():
    fig = right_triangle_figure()
    res = fold(fig, (F(3, 4), F(3, 4)))  # across the hypotenuse
    x, y = res.point
    assert x >= 0 and y >= 0 and x + y <= 1
    assert res.isometry.apply(res.point) == (F(3, 4), F(3, 4))

