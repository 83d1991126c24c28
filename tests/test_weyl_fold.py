"""Differential tests of the mirror-fold kernel of `weyl_congruent` against
the greedy fold check kept in `boxset_oracle.py`.

The two claim free target mass in different orders (the kernel by grid cell,
the oracle by box), so where the folded source covers some target cells more
than once they may keep different parts of the source.  What does not depend
on the order must agree exactly: both residual measures and the target
residual.  On the planar fixtures both residual sets agree.

The kernel's order is pinned separately: the oracle's greedy assembly, given
one candidate per reflection word (a slab of the mirror grid on each axis)
in word order, must give the kernel's pieces, maps and residuals exactly.
So must the mirror-fold kernel that `weyl_congruent` was before the fold
became one group of the shared reduce-and-claim kernel, `grid_weyl_congruent`
in the oracle.

`is_fundamental_domain` counts the fold-group orbit copies of a candidate
over a region on the same kernel.  Its oracle applies to the candidate every
group element near the region, listed per axis in closed form.
"""

import math
from itertools import product

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import boxset_oracle as oracle
from waveletsets.reflections import box_figure, centered_square_figure
from waveletsets.tiles import (DyadicBoxSet, GroupSpec, PieceMap, build_w1, build_w2,
                               is_fundamental_domain, weyl_congruent)

# An interval [L, L + W] of the figure per axis, and box ends at L + W * u
# with u within three widths of 0, so boxes cross several mirrors and fall
# inside, across and outside the figure.  u is a multiple of 1/12 nudged by
# e/d, where d is drawn per end from small and 64-bit denominators.
intervals = st.builds(lambda a, q, b, r: (F(a, q), F(a, q) + F(b, r)),
                      st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]),
                      st.integers(1, 6), st.sampled_from([1, 2, 3]))
offsets = st.builds(lambda n, e, d: F(n, 12) + F(e, d), st.integers(-36, 36),
                    st.integers(-1, 1), st.sampled_from([1, 5, 2 ** 64, 3 ** 41]))


def draw_boxes(draw, figure, max_boxes):
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        box = []
        for lo, hi in figure:
            ends = sorted(lo + (hi - lo) * draw(offsets) for _ in range(2))
            box.append(tuple(ends))
        boxes.append(tuple(box))
    return DyadicBoxSet(len(figure), boxes)


@st.composite
def fold_cases(draw, dim, max_boxes):
    sides = [draw(intervals) for _ in range(dim)]
    source = draw_boxes(draw, sides, max_boxes)
    if draw(st.booleans()):
        # add the mirror image about a random mirror: a double cover of its fold
        axis = draw(st.integers(0, dim - 1))
        lo, hi = sides[axis]
        level = lo + draw(st.integers(-2, 2)) * (hi - lo)
        mirror = [2 * level if i == axis else 0 for i in range(dim)]
        source = source.union(source.reflect_axis(axis).translate(mirror))
    return source, box_figure(sides)


def assemble_by_word(source, figure):
    """The oracle's greedy assembly over the slabs of the source's bounding
    box, one candidate per reflection word, in word order."""
    sides = figure.box
    axis_options = [list(oracle._axis_fold_pieces(lo, hi, L, H))
                    for (lo, hi), (L, H) in zip(source.bounding_box(), sides)]
    candidates = [
        (DyadicBoxSet(source.dim, (tuple((c[0], c[1]) for c in combo),)),
         PieceMap.axis_affine([c[2] for c in combo], [c[3] for c in combo]))
        for combo in product(*axis_options)]
    return oracle._assemble(source, DyadicBoxSet(source.dim, (sides,)), candidates)


def check_against_oracle(source, figure):
    cert = weyl_congruent(source, figure)
    grid = oracle.grid_weyl_congruent(source, figure)
    assert [(g.linear, g.translation, g.label) for _, g in cert.pieces] \
        == [(g.linear, g.translation, g.label) for _, g in grid.pieces]
    for (piece, _), (grid_piece, _) in zip(cert.pieces, grid.pieces):
        assert piece.equals_ae(grid_piece)
    assert cert.source_residual.equals_ae(grid.source_residual)
    assert cert.target_residual.equals_ae(grid.target_residual)
    old = oracle.weyl_congruent(source, figure)
    assert cert.source_residual.measure == old.source_residual.measure
    assert cert.target_residual.measure == old.target_residual.measure
    assert cert.target_residual.equals_ae(old.target_residual)
    assert cert.verify().ok
    if not source.is_empty:
        by_word = assemble_by_word(source, figure)
        assert len(cert.pieces) == len(by_word.pieces)
        for (piece, g), (word_piece, h) in zip(cert.pieces, by_word.pieces):
            assert piece.equals_ae(word_piece)
            assert (g.linear, g.translation) == (h.linear, h.translation)
        assert cert.source_residual.equals_ae(by_word.source_residual)
    return cert, old


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from([1, 2]).flatmap(lambda dim: fold_cases(dim, 4)))
def test_fold_matches_oracle_in_one_and_two_dimensions(case):
    check_against_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(case=fold_cases(3, 3))
def test_fold_matches_oracle_in_three_dimensions(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fold_of_empty_set(dim):
    figure = box_figure([(-1, 1)] * dim)
    cert, _ = check_against_oracle(DyadicBoxSet.empty(dim), figure)
    assert cert.pieces == []
    assert cert.source_residual.is_empty
    assert cert.target_residual.measure == 2 ** dim


@pytest.mark.parametrize("tail_terms", [1, 2, 3])
@pytest.mark.parametrize("depth", range(3, 11))
@pytest.mark.parametrize("build", [build_w1, build_w2])
def test_fold_of_planar_fixtures_matches_oracle(build, depth, tail_terms):
    source = build(depth, tail_terms).wavelet_set
    cert, old = check_against_oracle(source, centered_square_figure())
    assert cert.source_residual.equals_ae(old.source_residual)


# -- fundamental domains of the fold group -------------------------------------


def orbit_domain(candidate, figure, region):
    """(uncovered, overlap) of the candidate's orbit over the region: m(region)
    - m(cover) and mass - m(cover), over the images of the candidate under
    the group elements whose image of it meets the region.  The fold group of
    a box is the product of the groups of its sides.  The mirrors of a side
    [lo, hi] of width w cut the line into the cells [lo + k w, lo + (k + 1) w],
    and cell k is the image of the side under x -> x + k w for even k and
    x -> 2 lo + (k + 1) w - x for odd k."""
    if candidate.is_empty or region.is_empty:
        return region.measure, F(0)
    axes = []
    for (a, b), (c, d), (lo, hi) in zip(candidate.bounding_box(), region.bounding_box(),
                                        figure.box):
        # all three sets lie within r of the side's centre m, so an element
        # that carries [a, b] onto a point of [c, d] carries the side into
        # [m - 3r, m + 3r], inside the cells that meet (m - 4r, m + 4r)
        m, w = (lo + hi) / 2, hi - lo
        r = max(abs(x - m) for x in (a, b, c, d, lo, hi))
        cells = range(math.floor((m - 4 * r - lo) / w), math.ceil((m + 4 * r - lo) / w))
        maps = [(1, k * w) if k % 2 == 0 else (-1, 2 * lo + (k + 1) * w) for k in cells]
        axes.append([(s, t) for s, t in maps if max(min(s * a, s * b) + t, c) < min(max(s * a, s * b) + t, d)])
    mass, cover = F(0), DyadicBoxSet.empty(candidate.dim)
    for element in product(*axes):
        linear = [[s if i == j else 0 for j in range(len(element))] for i, (s, _) in enumerate(element)]
        image = candidate.transform(linear, [t for _, t in element]).intersect(region)
        mass += image.measure
        cover = cover.union(image)
    return region.measure - cover.measure, mass - cover.measure


@st.composite
def fold_domain_cases(draw, dim):
    source, figure = draw(fold_cases(dim, 3))
    return source, figure, draw_boxes(draw, figure.box, 3)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([1, 2]).flatmap(fold_domain_cases))
def test_fold_fundamental_domain_counts_the_orbit(case):
    source, figure, region = case
    rep = is_fundamental_domain(source, GroupSpec("weyl", figure=figure), region)
    assert (rep.uncovered_measure, rep.overlap_measure) == orbit_domain(source, figure, region)
    assert rep.ok == (rep.uncovered_measure == rep.overlap_measure == 0)


@pytest.mark.parametrize("region, uncovered", [
    (((-1, 1), (-1, 1)), 2), (((-3, 3), (-3, 3)), 18), (((5, 6), (5, 6)), 1)])
def test_fold_fundamental_domain_reads_its_region(region, uncovered):
    # half of the square: its orbit covers half of every region, which a
    # check that folds the candidate onto the figure alone reads as 2
    half = DyadicBoxSet.from_box((-1, 0), (-1, 1))
    rep = is_fundamental_domain(half, GroupSpec("weyl", figure=centered_square_figure()),
                                DyadicBoxSet.from_box(*region))
    assert (rep.ok, rep.uncovered_measure, rep.overlap_measure) == (False, uncovered, 0)


def test_fold_fundamental_domain_refuses_a_flat_figure():
    square = DyadicBoxSet.from_box((0, 1), (0, 1))
    with pytest.raises(ValueError, match="positive widths"):
        flat = box_figure([(0, 0), (0, 1)])
        is_fundamental_domain(square, GroupSpec("weyl", figure=flat), square)
