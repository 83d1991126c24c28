"""Differential tests of the grid kernel of `DyadicBoxSet` against the
list-based reference implementation in `boxset_oracle.py`.

Every measure must be the identical `Fraction`, every set relation the
identical boolean, and every union, intersection and difference the grid of
the clipped algebra kept there as well.  Coordinates mix small denominators with denominators
above 2**64, so both the int64 and the Python-int measure paths run.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxset_oracle import (DyadicBoxSet as OracleBoxSet, clipped_intersect, clipped_subtract,
                           clipped_union, grid_boxes)
from waveletsets.tiles import DyadicBoxSet, build_w1, build_w2

MANY = settings(max_examples=500, deadline=None)

# A coordinate is a/12 + e/d: a point of a coarse grid, nudged by e/d for a
# denominator d drawn per box, so boxes with 71-bit denominators overlap
# boxes with small ones.  (Drawing integers keeps generation cheap.)
DENOMINATORS = (1, 2, 3, 8, 2 ** 70, 3 ** 45, 5 * 2 ** 65)
coords = st.builds(lambda a, e, d: F(a, 12) + F(e, d), st.integers(-48, 48),
                   st.integers(-1, 1), st.sampled_from(DENOMINATORS))
factors = st.sampled_from([F(-3), F(-2), F(-1, 2), F(-1), F(1, 3), F(2), F(5, 4)])


def _box(d, axes):
    return tuple(tuple(sorted((F(a, 12) + F(e, d), F(b, 12) + F(f, d)))) for a, b, e, f in axes)


nudge = st.integers(-1, 1)
axis_ends = st.tuples(st.integers(-48, 48), st.integers(-48, 48), nudge, nudge)
box_lists = {
    dim: st.lists(st.builds(_box, st.sampled_from(DENOMINATORS),
                            st.lists(axis_ends, min_size=dim, max_size=dim)), max_size=5)
    for dim in (1, 2, 3)
}


def both(dim, boxes):
    return DyadicBoxSet(dim, boxes), OracleBoxSet(dim, boxes)


two_sets = st.sampled_from([1, 2]).flatmap(
    lambda dim: st.tuples(st.just(dim), box_lists[dim], box_lists[dim]))


def _monomial(perm, coeffs):
    """The signed scaled permutation matrix with entry coeffs[i] at (i, perm[i])."""
    dim = len(perm)
    return [[coeffs[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]


monomial_maps = {
    dim: st.tuples(st.builds(_monomial, st.permutations(range(dim)),
                             st.lists(factors, min_size=dim, max_size=dim)),
                   st.lists(coords, min_size=dim, max_size=dim))
    for dim in (1, 2)
}


@MANY
@given(sets=two_sets)
def test_set_algebra_matches_oracle(sets):
    dim, boxes_a, boxes_b = sets
    a, oa = both(dim, boxes_a)
    b, ob = both(dim, boxes_b)
    assert a.measure == oa.measure
    # the grids, not only the measures, are those of the clipped algebra
    assert a.union(b) == clipped_union(a, b)
    assert a.intersect(b) == clipped_intersect(a, b)
    assert a.subtract(b) == clipped_subtract(a, b)
    assert a.union(b).measure == oa.union(ob).measure
    assert a.intersect(b).measure == oa.intersect(ob).measure
    assert a.subtract(b).measure == oa.subtract(ob).measure
    assert a.symmetric_difference_measure(b) == oa.symmetric_difference_measure(ob)
    assert a.equals_ae(b) == oa.equals_ae(ob)
    assert a.contains_ae(b) == oa.contains_ae(ob)
    assert b.contains_ae(a) == ob.contains_ae(oa)
    rebuilt = a.subtract(b).union(a.intersect(b))
    assert rebuilt.equals_ae(a) == oa.subtract(ob).union(oa.intersect(ob)).equals_ae(oa)
    # canonical form: the same set from a different construction has the same grid
    assert a.union(b).boxes == DyadicBoxSet(dim, boxes_b + boxes_a).boxes


@MANY
@given(sets=two_sets, data=st.data())
def test_monomial_maps_match_oracle(sets, data):
    dim, boxes_a, boxes_b = sets
    a, oa = both(dim, boxes_a)
    b, ob = both(dim, boxes_b)
    linear, shift = data.draw(monomial_maps[dim])
    factor = data.draw(factors)
    axis = data.draw(st.integers(0, dim - 1))
    level = data.draw(coords)
    pairs = [
        (a.transform(linear, shift), oa.transform(linear, shift)),
        (a.translate(shift), oa.translate(shift)),
        (a.scale(factor), oa.scale(factor)),
        # the mirror x_axis -> 2 level - x_axis, as a reflection and a translation
        (a.reflect_axis(axis).translate([2 * level if i == axis else 0 for i in range(dim)]),
         oa.reflect_axis(axis, level)),
    ]
    for image, oracle_image in pairs:
        assert image.measure == oracle_image.measure
        assert image.intersect(b).measure == oracle_image.intersect(ob).measure
        assert image.equals_ae(b) == oracle_image.equals_ae(ob)
        assert image.bounding_box() == oracle_image.bounding_box()


@MANY
@given(sets=two_sets)
def test_boxes_view_matches_oracle(sets):
    dim, boxes_a, boxes_b = sets
    a, oa = both(dim, boxes_a)
    diff, odiff = a.subtract(DyadicBoxSet(dim, boxes_b)), oa.subtract(OracleBoxSet(dim, boxes_b))
    for s, o in ((a, oa), (diff, odiff)):
        if dim == 1:
            assert s.boxes == o.boxes
        assert DyadicBoxSet(dim, s.boxes).equals_ae(s)
        assert sum(OracleBoxSet(dim, (box,)).measure for box in s.boxes) == o.measure
        assert DyadicBoxSet.from_json(s.to_json()).equals_ae(s)


@MANY
@given(dim=st.sampled_from([1, 2, 3]), data=st.data())
def test_boxes_view_equals_the_coordinate_sort(dim, data):
    a = DyadicBoxSet(dim, data.draw(box_lists[dim]))
    b = DyadicBoxSet(dim, data.draw(box_lists[dim]))
    for s in (a, a.subtract(b), a.union(b)):
        assert s.boxes == grid_boxes(s)


def _masks(shape):
    cells = math.prod(shape)
    return st.one_of(st.just(np.ones(shape, dtype=bool)), st.just(np.zeros(shape, dtype=bool)),
                     st.lists(st.booleans(), min_size=cells, max_size=cells).map(
                         lambda bits: np.array(bits, dtype=bool).reshape(shape)))


# 1-D to 4-D masks, all true, all false or random, some with a zero-length
# axis, on any increasing breakpoints: not only the canonical grids
masks = st.lists(st.integers(0, 5), min_size=1, max_size=4).flatmap(_masks)


@MANY
@given(mask=masks, den=st.sampled_from([1, 3, 2 ** 70]), data=st.data())
def test_boxes_of_any_mask_equal_the_oracle_recursion(mask, den, data):
    cuts = tuple(tuple(sorted(data.draw(st.lists(st.integers(-2 ** 65, 2 ** 65), unique=True,
                                                 min_size=n + 1, max_size=n + 1))))
                 for n in mask.shape)
    s = DyadicBoxSet._grid(mask.ndim, den, cuts, mask)
    assert s.boxes == grid_boxes(s)


@pytest.mark.parametrize("build", [build_w1, build_w2])
def test_fixture_boxes_equal_the_coordinate_sort(build):
    for depth in (*range(3, 11), 64):
        fx = build(depth)
        for s in (fx.wavelet_set, *fx.components.values()):
            assert s.boxes == grid_boxes(s)


def test_canonical_form_ignores_decomposition():
    halves = DyadicBoxSet(1, (((F(0), F(1)),), ((F(1), F(2)),)))
    whole = DyadicBoxSet.from_box((0, 2))
    assert halves.boxes == whole.boxes == (((F(0), F(2)),),)
    # an L shape cut along x and along y
    by_columns = DyadicBoxSet(2, (((0, 1), (0, 2)), ((1, 2), (0, 1))))
    by_rows = DyadicBoxSet(2, (((0, 2), (0, 1)), ((0, 1), (1, 2))))
    overlapping = DyadicBoxSet(2, (((0, 1), (0, 2)), ((0, 2), (0, 1)), ((F(1, 2), 1), (0, 1))))
    assert by_columns.boxes == by_rows.boxes == overlapping.boxes
    assert by_columns.equals_ae(by_rows)
