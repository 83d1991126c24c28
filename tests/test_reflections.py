"""Root systems, affine reflections, folding, and subdivision."""

from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fold_oracle
import selfaffine_oracle as oracle

from waveletsets.geometry import AffineMap, Hyperplane, Mat, Vec
from waveletsets.reflections import (
    FoldableFigure,
    RootSystem,
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
            comp = Hyperplane(r, k).reflection().compose(Hyperplane(r, l).reflection())
            assert comp.linear == Mat.identity(2)
            assert comp.shift == coroot.scale(k - l)


def test_perpendicular_affine_reflections_compose_to_point_reflection():
    comp = Hyperplane((1, 0), 2).reflection().compose(Hyperplane((0, 1), 3).reflection())
    assert comp.linear == Mat([[-1, 0], [0, -1]])
    assert comp.shift == Vec((4, 6))


def test_affine_reflect_fixes_its_mirror():
    assert Hyperplane((1, 1), F(1, 2)).reflection().apply((F(1, 4), F(1, 4))) == (F(1, 4), F(1, 4))
    assert Hyperplane((0, 1), 0).reflection().apply((3, 5)) == (3, -5)


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
    pairs = [(lambda: Hyperplane(root, level).reflection().apply(x),
              lambda: oracle.affine_reflect(root, level, x)),
             (lambda: Hyperplane(root, 0).reflection().apply(x), lambda: oracle.reflect_root(root, x))]
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
    res = fold(box_figure([(lo, lo + w) for lo, w in sides]), x)
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


@pytest.mark.parametrize("intervals", [
    ((F(0), F(3)),),
    ((F(-1), F(1)), (F(0), F(1, 3))),
    ((F(0), F(2)), (F(1, 2), F(1, 2)), (F(-3), F(1))),
    ((F(0), F(0)),),
    ((F(2), F(2)), (F(0), F(0))),
])
def test_a_box_figure_reads_its_intervals_off_its_corners(intervals):
    assert box_figure(intervals).box == intervals


def test_a_hand_built_figure_has_the_box_of_its_corners():
    square = box_figure([(0, 1), (0, 1)])
    corners = tuple(reversed(square.vertices))
    assert FoldableFigure(corners, square.bounding).box == ((0, 1), (0, 1))
    triangle = right_triangle_figure()
    assert FoldableFigure(triangle.vertices, triangle.bounding).box is None


def test_the_box_of_a_figure_is_not_an_input():
    square = unit_square_figure()
    with pytest.raises(TypeError):
        FoldableFigure(square.vertices, square.bounding, box=((0, 1), (0, 1)))


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


@settings(max_examples=60, deadline=None)
@given(kappa=st.integers(1, 6), n=st.integers(1, 3), data=st.data())
def test_subdivision_lists_product_order_cells_as_folds(kappa, n, data):
    # map j takes the figure's centre to the centroid of the j-th cell of
    # the product order of the cell indices, and is x -> x/kappa followed by
    # the isometry that undoes the fold of that centroid into the cell at
    # the origin, its own figure
    widths = data.draw(st.lists(st.fractions(F(1, 16), 4, max_denominator=16),
                                min_size=n, max_size=n), label="widths")
    maps = subdivide(box_figure([(0, w) for w in widths]), kappa)
    centroids = [Vec((k + F(1, 2)) * w / kappa for k, w in zip(idx, widths))
                 for idx in product(range(kappa), repeat=n)]
    assert [u.apply([w / 2 for w in widths]) for u in maps] == centroids
    origin_cell = box_figure([(0, w / kappa) for w in widths])
    scaling = AffineMap(Mat.identity(n).scale(F(1, kappa)), [F(0)] * n)
    assert maps == [fold(origin_cell, c).isometry.compose(scaling) for c in centroids]


@pytest.mark.parametrize("fig", [box_figure([(0, 3)]), unit_square_figure(),
                                 box_figure([(0, 2), (0, F(1, 3)), (0, 1)])])
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


def _figure(data):
    """A box figure in 1-3 D or the right triangle, with a period (lo, w) per
    axis: lo + k w is a mirror for every integer k."""
    if data.draw(st.booleans(), label="triangle"):
        return right_triangle_figure(), [(F(0), F(1))] * 2
    n = data.draw(st.integers(1, 3), label="n")
    sides = data.draw(st.lists(st.tuples(fracs, st.fractions(F(1, 4), 3, max_denominator=16)),
                               min_size=n, max_size=n), label="sides")
    return box_figure([(lo, lo + w) for lo, w in sides]), sides


def _inside(figure, point):
    if figure.box is None:
        a, b = point
        return a >= 0 and b >= 0 and a + b <= 1
    return all(lo <= a <= hi for (lo, hi), a in zip(figure.box, point))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_fold_matches_the_interior_point_rule(data):
    # near points, points on mirrors and points up to 30 periods away, as
    # integers or Fractions: the point, the word and the isometry are those
    # of the rule that re-signed every mirror against a hand-picked theta
    figure, periods = _figure(data)
    x = []
    for lo, w in periods:
        k = data.draw(st.one_of(st.integers(-3, 3), st.integers(-30, 30)), label="k")
        t = data.draw(st.one_of(st.just(0), st.fractions(0, 1, max_denominator=16)), label="t")
        x.append(lo + w * (k + t))
    if figure.box is None and data.draw(st.booleans(), label="on a diagonal mirror"):
        odd = 2 * data.draw(st.integers(-15, 15), label="m") + 1
        x[1] = data.draw(st.sampled_from([odd - x[0], x[0] + odd]), label="y")
    x = [int(a) if a.denominator == 1 and data.draw(st.booleans(), label="int") else a
         for a in x]
    res = fold(figure, x)
    point, word, isometry = fold_oracle.fold(figure, x)
    assert (res.point, res.word, res.isometry) == (point, word, isometry)
    assert all(type(a) is F for a in res.point) and _inside(figure, res.point)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_reads_floats_exactly(data):
    # a float is read as its exact Fraction, so g(folded) == x exactly
    figure, periods = _figure(data)
    x = data.draw(st.lists(st.floats(-50, 50), min_size=len(periods), max_size=len(periods)),
                  label="x")
    res = fold(figure, x)
    assert all(type(a) is F for a in res.point) and _inside(figure, res.point)
    assert res.isometry.apply(res.point) == tuple(map(F, x))


@pytest.mark.parametrize("x, point", [
    ((0.1, 2.3), (F(0.1), F(2.3) - 2)),
    ((np.int64(7), np.float64(-2.5)), (F(1, 2), F(0))),
])
def test_fold_reads_floats_and_numpy_numbers_as_fractions(x, point):
    res = fold(right_triangle_figure(), x)
    assert res.point == point and all(type(a) is F for a in res.point)
    assert res.isometry.apply(res.point) == tuple(map(F, x))


def test_fold_refuses_a_flat_figure():
    with pytest.raises(ValueError, match="^flat figure: the mean of its vertices lies on a mirror$"):
        fold(box_figure([(0, 1), (2, 2)]), (F(1, 2), 3))
