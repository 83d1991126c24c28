"""Differential tests of the reduce-and-claim kernel behind
`translation_congruent` and `dilation_congruent` against the greedy checks
kept in `boxset_oracle.py`.

Both claim in the same order (lattice keys by (sum |k|, k), powers of the
dilation ascending), so whole certificates must agree: the same pieces in the
same order, the same maps and labels, and residual sets equal almost
everywhere.  The library dilates about the origin; the oracle, which takes a
centre, is called with the origin.  The oracle's dilation tries only the
powers up to its silent cap `max_power` = 40; the cases here keep every box
end between 1/12 and 4 away from the origin, where no claim needs a higher
power.  Where the cap does bind, the kernel's answer differs, and that is
pinned in `test_tiles.py`.

A checker's certificate builds its pieces on the first read of `pieces`.
The tests after the oracle suites count the group elements made
(`_Slabs.element`, `_Shells.element`, one per piece) to check that the
pieces are built once, after the residuals are read or before, and never by
`three_way_check`.  The last two require the orbit count of
`is_fundamental_domain` over a fundamental domain of the group to equal the
certificate's residual there, which `three_way_check` and
`is_wavelet_set_1d` rely on.
"""

from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import boxset_oracle as oracle
from waveletsets import tiles
from waveletsets.reflections import box_figure, centered_square_figure
from waveletsets.tiles import (DyadicBoxSet, GroupSpec, build_w1, build_w2, dilation_congruent,
                               is_fundamental_domain, three_way_check, translation_congruent,
                               weyl_congruent)


def assert_same_certificate(cert, old):
    assert [(g.linear, g.translation, g.label) for _, g in cert.pieces] \
        == [(g.linear, g.translation, g.label) for _, g in old.pieces]
    for (piece, _), (old_piece, _) in zip(cert.pieces, old.pieces):
        assert piece.equals_ae(old_piece)
    assert cert.source_residual.equals_ae(old.source_residual)
    assert cert.target_residual.equals_ae(old.target_residual)
    assert cert.verify().ok


spacings = st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(3, 2), F(5, 7)])


@st.composite
def lattice_sets(draw, spacing, max_boxes, periods):
    """Boxes with ends within `periods` periods of 0 on every axis: a
    multiple of 1/12 of the period nudged by e/d, where d is drawn per end
    from small and 64-bit denominators."""
    nudged = st.builds(lambda n, e, d: F(n, 12) + F(e, d),
                       st.integers(-12 * periods, 12 * periods),
                       st.integers(-1, 1), st.sampled_from([1, 5, 2 ** 64, 3 ** 41]))
    boxes = [tuple(tuple(sorted(s * draw(nudged) for _ in range(2))) for s in spacing)
             for _ in range(draw(st.integers(1, max_boxes)))]
    return DyadicBoxSet(len(spacing), boxes)


@st.composite
def lattice_cases(draw, dim, max_boxes, periods):
    spacing = [draw(spacings) for _ in range(dim)]
    return (draw(lattice_sets(spacing, max_boxes, periods)),
            draw(lattice_sets(spacing, max_boxes, periods)), spacing)


def check_translation(source, target, spacing):
    cert = translation_congruent(source, target, spacing)
    assert_same_certificate(cert, oracle.translation_congruent(source, target, spacing))
    group = GroupSpec("translation", spacings=tuple(spacing))
    for region in (target, source):
        if not region.is_empty:  # the oracle fails on an empty region
            assert is_fundamental_domain(source, group, region) \
                == oracle.is_fundamental_domain(source, group, region)
    return cert


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from([1, 2]).flatmap(lambda dim: lattice_cases(dim, 4, 3)))
def test_translation_matches_oracle_in_one_and_two_dimensions(case):
    check_translation(*case)


@settings(max_examples=100, deadline=None)
@given(case=lattice_cases(3, 3, 1))
def test_translation_matches_oracle_in_three_dimensions(case):
    check_translation(*case)


# Per axis a box end is sign * r, with r from 1/12 to 4 nudged by e/d,
# |e/d| < 1/24; an end of 0 only when the set may hold the origin.
kappas = st.sampled_from([F(2), F(3), F(3, 2)])
distances = st.builds(lambda n, e, d: F(n, 12) + F(e, d), st.integers(1, 48),
                      st.integers(-1, 1), st.sampled_from([25, 175, 2 ** 64, 3 ** 41]))


@st.composite
def shell_sets(draw, dim, max_boxes, center):
    """Boxes bounded away from the origin on some axis, or with `center`
    also boxes reaching or straddling it."""
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        away = draw(st.integers(0, dim - 1 + center))
        box = []
        for axis in range(dim):
            if axis == away:  # both ends on one side of the origin
                sign = draw(st.sampled_from([1, -1]))
                ends = [sign * draw(distances) for _ in range(2)]
            else:
                ends = [draw(st.sampled_from([1, -1, 0] if center else [1, -1]))
                        * draw(distances) for _ in range(2)]
            box.append(tuple(sorted(ends)))
        boxes.append(tuple(box))
    return DyadicBoxSet(dim, boxes)


@st.composite
def shell_cases(draw, dim, max_boxes):
    center = draw(st.integers(0, 9)) < 3
    return (draw(shell_sets(dim, max_boxes, center)), draw(shell_sets(dim, max_boxes, False)),
            draw(kappas), center)


def check_dilation(source, target, kappa, center):
    origin = [F(0)] * source.dim
    if not center:
        # the oracle's power estimate stays below its cap
        assert oracle._needed_power_range(source, target, kappa, origin, 10 ** 6) < 40
    cert = dilation_congruent(source, target, kappa=kappa, allow_center=center)
    old = oracle.dilation_congruent(source, target, kappa=kappa, theta=origin,
                                    allow_center=center)
    assert_same_certificate(cert, old)
    if not center:
        group = GroupSpec("dilation", kappa=kappa)
        for region in (target, source):
            assert region.is_empty or is_fundamental_domain(source, group, region) \
                == oracle.is_fundamental_domain(source, group, region)
    return cert


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from([1, 2]).flatmap(lambda dim: shell_cases(dim, 4)))
def test_dilation_matches_oracle_in_one_and_two_dimensions(case):
    check_dilation(*case)


@settings(max_examples=100, deadline=None)
@given(case=shell_cases(3, 3))
def test_dilation_matches_oracle_in_three_dimensions(case):
    check_dilation(*case)


def test_center_lump_keeps_the_top_copies_that_can_claim():
    # [0, 1) repeats in every shell below 1; three target shells [1, 8) take
    # its copies at depths 0, -1 and -2 (by D, D^3 and D^5), the deepest that
    # can claim, and the lump [0, 1/8) stays in the residual
    source, target = DyadicBoxSet.from_box((0, 1)), DyadicBoxSet.from_box((1, 8))
    cert = check_dilation(source, target, F(2), True)
    assert [g.label for _, g in cert.pieces] == ["D^1", "D^3", "D^5"]
    assert cert.source_residual.equals_ae(DyadicBoxSet.from_box((0, F(1, 8))))
    assert cert.target_residual.is_empty


@contextmanager
def counting_elements():
    """The keys of every group element the kernel makes while open."""
    calls = []
    originals = {group: group.element for group in (tiles._Slabs, tiles._Shells)}

    def counted(element):
        def wrapper(self, key):
            calls.append(key)
            return element(self, key)
        return wrapper

    try:
        for group, element in originals.items():
            group.element = counted(element)
        yield calls
    finally:
        for group, element in originals.items():
            group.element = element


def check_pieces_on_first_read(make):
    """`make()` certifies one case afresh: read the residuals first, then the
    pieces, and compare with a certificate whose pieces are read first."""
    with counting_elements() as calls:
        late = make()
        residuals = (late.residual_measure, late.source_residual.measure,
                     late.target_residual.measure)
        assert calls == [] and residuals[0] == max(residuals[1:])
        pieces = late.pieces
        assert len(calls) == len(pieces)
        assert late.pieces is pieces and len(calls) == len(pieces)
    early = make()
    early_pieces = early.pieces
    assert [(g.linear, g.translation, g.label) for _, g in pieces] \
        == [(g.linear, g.translation, g.label) for _, g in early_pieces]
    assert all(p.equals_ae(q) for (p, _), (q, _) in zip(pieces, early_pieces))
    assert late.source_residual.equals_ae(early.source_residual)
    assert late.target_residual.equals_ae(early.target_residual)
    assert late.verify() == early.verify()
    assert repr(late) == repr(early)


@st.composite
def fold_cases(draw, dim, max_boxes):
    """A figure box of the lattice's period cells, shifted by a multiple of
    1/4 of them, and a lattice set about it."""
    spacing = [draw(spacings) for _ in range(dim)]
    shifts = [F(draw(st.integers(-4, 4)), 4) for _ in range(dim)]
    figure = [(s * a, s * (a + 1)) for s, a in zip(spacing, shifts)]
    return draw(lattice_sets(spacing, max_boxes, 3)), box_figure(figure)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([1, 2, 3]).flatmap(lambda dim: lattice_cases(dim, 3, 2)))
def test_translation_pieces_are_built_once_on_first_read(case):
    check_pieces_on_first_read(lambda: translation_congruent(*case))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([1, 2, 3]).flatmap(lambda dim: shell_cases(dim, 3)))
def test_dilation_pieces_are_built_once_on_first_read(case):
    source, target, kappa, center = case
    check_pieces_on_first_read(lambda: dilation_congruent(
        source, target, kappa=kappa, allow_center=center))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([1, 2, 3]).flatmap(lambda dim: fold_cases(dim, 3)))
def test_weyl_pieces_are_built_once_on_first_read(case):
    check_pieces_on_first_read(lambda: weyl_congruent(*case))


@pytest.mark.parametrize("build", [build_w1, build_w2])
def test_three_way_check_builds_no_piece(build):
    for depth in (3, 6, 10):
        with counting_elements() as calls:
            report = three_way_check(build(depth).wavelet_set, centered_square_figure(), (2, 2))
        assert calls == [] and report.within(8 * build(depth).tail)


# A congruence claim into a fundamental domain of the group pairs min(c, 1)
# copies per reduced cell, where the source holds c copies, so its residuals
# are the surplus copies and the uncovered cells: exactly the overlap and the
# uncovered measure of the orbit count.


def orbit_residual(source, group, region):
    report = is_fundamental_domain(source, group, region)
    return max(report.uncovered_measure, report.overlap_measure)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([1, 2, 3]).flatmap(lambda dim: fold_cases(dim, 3)))
def test_orbit_count_over_the_figure_box_is_the_weyl_residual(case):
    source, figure = case
    cert = weyl_congruent(source, figure)
    assert orbit_residual(source, GroupSpec("weyl", figure=figure), cert.target) \
        == cert.residual_measure


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([1, 2, 3]).flatmap(lambda dim: lattice_cases(dim, 3, 2)))
def test_orbit_count_over_the_period_cell_is_the_translation_residual(case):
    source, _, spacing = case
    cell = DyadicBoxSet.from_box(*((0, s) for s in spacing))
    assert orbit_residual(source, GroupSpec("translation", spacings=tuple(spacing)), cell) \
        == translation_congruent(source, cell, spacing).residual_measure
