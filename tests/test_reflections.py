"""Root systems, affine reflections, folding, and group enumeration."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import selfaffine_oracle as oracle

from waveletsets.geometry import AffineIsometry, AffineMap, Mat, Vec
from waveletsets.reflections import (
    RootSystem,
    affine_reflection,
    box_figure,
    centered_square_figure,
    enumerate_group,
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
    assert fig.contains(res.point)
    assert res.isometry.apply(res.point) == x


def test_fold_fixes_interior_points():
    fig = unit_square_figure()
    res = fold(fig, (F(1, 3), F(2, 5)))
    assert res.point == (F(1, 3), F(2, 5)) and res.word == []


def test_enumerate_group_counts():
    fig = unit_square_figure()
    only_cell = enumerate_group(fig, [(0, 1), (0, 1)])
    assert len(only_cell) == 1 and only_cell[0].isometry == AffineIsometry.identity(2)
    block = enumerate_group(fig, [(-1, 2), (-1, 2)])
    assert len(block) == 9
    keys = {c.isometry.key() for c in block}
    assert len(keys) == 9


def test_enumerate_group_reaches_a_far_interval():
    # the mirrors at -1 and 1 tile the line by [2k - 1, 2k + 1]; [5, 7] is
    # the image of the base cell under the mirrors at 1, then -1, then 1
    (cell,) = enumerate_group(box_figure("b", [(-1, 1)]), [(5, 6)])
    assert sorted(v[0] for v in cell.vertices) == [5, 7]
    assert cell.isometry.apply((F(-1, 2),)) == (F(13, 2),)


def test_enumerate_group_covers_a_far_region():
    region = [(F(15, 2), 11), (-13, F(-25, 3))]
    cells = enumerate_group(centered_square_figure(), region)
    measure = F(0)
    for cell in cells:
        part = F(1)
        for axis, (lo, hi) in enumerate(region):
            ends = [v[axis] for v in cell.vertices]
            part *= min(max(ends), hi) - max(min(ends), lo)
        assert part > 0
        measure += part
    assert measure == (11 - F(15, 2)) * (-F(25, 3) + 13)
    assert len(cells) == 4 * 5


def test_enumerate_group_skips_a_triangle_whose_bounding_box_meets_the_region():
    # [9/10, 1]^2 lies across the hypotenuse: the base triangle's bounding
    # box meets it, the triangle does not
    cells = enumerate_group(right_triangle_figure(), [(F(9, 10), 1), (F(9, 10), 1)])
    assert [c.word for c in cells] == [[2]]


def _clipped_area(triangle, region):
    """Exact area of a triangle inside a box, by clipping it against the four
    sides (Sutherland-Hodgman) and summing the shoelace terms."""
    pts = [tuple(v) for v in triangle]
    for axis, bound, keep in ((0, region[0][0], 1), (0, region[0][1], -1),
                              (1, region[1][0], 1), (1, region[1][1], -1)):
        out = []
        for p, q in zip(pts, pts[1:] + pts[:1]):
            dp, dq = keep * (p[axis] - bound), keep * (q[axis] - bound)
            if dp >= 0:
                out.append(p)
            if dp * dq < 0:
                t = dp / (dp - dq)
                out.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        pts = out
    return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1]))) / 2


def test_enumerate_group_triangles_tile_the_region():
    region = [(F(-1, 2), F(3, 2)), (F(-3, 10), F(7, 5))]
    cells = enumerate_group(right_triangle_figure(), region)
    areas = [_clipped_area(c.vertices, region) for c in cells]
    assert all(a > 0 for a in areas)
    assert sum(areas) == 2 * F(17, 10)


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
    assert fig.contains(res.point)
    assert res.isometry.apply(res.point) == (F(3, 4), F(3, 4))


def test_box_figure_cut_spacing_generators():
    fig = box_figure("strip", [(0, 2)], cut_spacings=[1])
    assert len(fig.hyperplanes) == 3
