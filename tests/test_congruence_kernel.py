"""Differential tests of the reduce-and-claim kernel behind
`translation_congruent` and `dilation_congruent` against the greedy checks
kept in `boxset_oracle.py`.

Both claim in the same order (lattice keys by (sum |k|, k), powers of the
dilation ascending), so whole certificates must agree: the same pieces in the
same order, the same maps and labels, and residual sets equal almost
everywhere.  The oracle's dilation tries only the powers up to its silent cap
`max_power` = 40; the cases here keep every box end between 1/12 and 4 away
from the centre, where no claim needs a higher power.  Where the cap does
bind, the kernel's answer differs, and that is pinned in `test_tiles.py`.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import boxset_oracle as oracle
from waveletsets.tiles import (DyadicBoxSet, GroupSpec, dilation_congruent,
                               is_fundamental_domain, translation_congruent)


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


# Per axis a box end is theta + sign * r, with r from 1/12 to 4 nudged by
# e/d, |e/d| < 1/24; an end of 0 (exactly theta) only when the set may hold
# the centre.
kappas = st.sampled_from([F(2), F(3), F(3, 2)])
thetas = st.builds(lambda n, d: F(n, d), st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
distances = st.builds(lambda n, e, d: F(n, 12) + F(e, d), st.integers(1, 48),
                      st.integers(-1, 1), st.sampled_from([25, 175, 2 ** 64, 3 ** 41]))


@st.composite
def shell_sets(draw, theta, max_boxes, center):
    """Boxes bounded away from theta on some axis, or with `center` also
    boxes reaching or straddling it."""
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        away = draw(st.integers(0, len(theta) - 1 + center))
        box = []
        for axis, t in enumerate(theta):
            if axis == away:  # both ends on one side of theta
                sign = draw(st.sampled_from([1, -1]))
                ends = [t + sign * draw(distances) for _ in range(2)]
            else:
                ends = [t + draw(st.sampled_from([1, -1, 0] if center else [1, -1]))
                        * draw(distances) for _ in range(2)]
            box.append(tuple(sorted(ends)))
        boxes.append(tuple(box))
    return DyadicBoxSet(len(theta), boxes)


@st.composite
def shell_cases(draw, dim, max_boxes):
    theta = [draw(thetas) for _ in range(dim)]
    center = draw(st.integers(0, 9)) < 3
    return (draw(shell_sets(theta, max_boxes, center)), draw(shell_sets(theta, max_boxes, False)),
            draw(kappas), theta, center)


def check_dilation(source, target, kappa, theta, center):
    if not center:
        # the oracle's power estimate stays below its cap
        assert oracle._needed_power_range(source, target, kappa, theta, 10 ** 6) < 40
    cert = dilation_congruent(source, target, kappa=kappa, theta=theta, allow_center=center)
    old = oracle.dilation_congruent(source, target, kappa=kappa, theta=theta, allow_center=center)
    assert_same_certificate(cert, old)
    if not center:
        group = GroupSpec("dilation", kappa=kappa, theta=tuple(theta))
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
    cert = check_dilation(source, target, F(2), [F(0)], True)
    assert [g.label for _, g in cert.pieces] == ["D^1", "D^3", "D^5"]
    assert cert.source_residual.equals_ae(DyadicBoxSet.from_box((0, F(1, 8))))
    assert cert.target_residual.is_empty
