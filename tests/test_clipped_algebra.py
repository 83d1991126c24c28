"""Differential tests of the box-set operations on the whole merged grid
against the clipped algebra and the pairwise verify loop kept in
`boxset_oracle.py`.

Every result must be the identical canonical grid (`==`), not only a set of
the same measure.  The operand pairs force the cases the clipped algebra
treated apart: an empty operand on either side, sets whose ranges miss each
other on an axis (where the clipped `_combine` returned None), nested sets,
and sets that share only a face.  Certificates must give field-by-field
equal `VerificationReport`s, the checkers' own and broken ones alike, and
the checkers' pieces must be the pieces sliced out of each bounding box.
"""

import dataclasses
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import boxset_oracle as oracle
from waveletsets.reflections import box_figure, centered_square_figure
from waveletsets.tiles import (CongruenceCertificate, DyadicBoxSet, PieceMap, build_w1,
                               build_w2, dilation_congruent, translation_congruent,
                               weyl_congruent)

# a box end is a/6 + e/d, a point of a coarse grid nudged by e/d for a
# denominator d drawn per box, small or above 2**64
DENOMINATORS = (1, 2, 5, 2 ** 70, 3 ** 45)
nudge = st.integers(-1, 1)
axis_ends = st.tuples(st.integers(-12, 12), st.integers(-12, 12), nudge, nudge)


def _box(d, axes):
    return tuple(tuple(sorted((F(a, 6) + F(e, d), F(b, 6) + F(f, d)))) for a, b, e, f in axes)


def box_lists(dim, min_size=0):
    return st.lists(st.builds(_box, st.sampled_from(DENOMINATORS),
                              st.lists(axis_ends, min_size=dim, max_size=dim)),
                    min_size=min_size, max_size=4)


def _far(boxes, axis, shift):
    return [tuple((iv[0] + shift, iv[1] + shift) if i == axis else iv
                  for i, iv in enumerate(box)) for box in boxes]


def _mirror(boxes, axis):
    """The boxes mirrored across the greatest end on an axis: the two sets
    meet at most in the face there."""
    top = max(box[axis][1] for box in boxes)
    return [tuple((2 * top - iv[1], 2 * top - iv[0]) if i == axis else iv
                  for i, iv in enumerate(box)) for box in boxes]


@st.composite
def operand_pairs(draw):
    """(dim, boxes a, boxes b) of 1 to 3 axes, b drawn in one relation to a."""
    dim = draw(st.integers(1, 3))
    a = draw(box_lists(dim, min_size=1))
    relation = draw(st.sampled_from(["free", "empty", "far", "nested", "face"]))
    axis = draw(st.integers(0, dim - 1))
    if relation == "free":
        b = draw(box_lists(dim))
    elif relation == "empty":
        b = []
    elif relation == "far":
        b = _far(draw(box_lists(dim, min_size=1)), axis, draw(st.sampled_from([-100, 100])))
    elif relation == "nested":  # a sublist of a's boxes, or a's boxes and more
        b = draw(st.one_of(st.lists(st.sampled_from(a), max_size=len(a)),
                           box_lists(dim).map(lambda extra: a + extra)))
    else:
        b = _mirror(a, axis)
    pair = (a, b) if draw(st.booleans()) else (b, a)
    return (dim,) + pair


@settings(max_examples=600, deadline=None)
@given(case=operand_pairs())
def test_every_operation_gives_the_clipped_grid(case):
    dim, boxes_a, boxes_b = case
    a, b = DyadicBoxSet(dim, boxes_a), DyadicBoxSet(dim, boxes_b)
    for x, y in ((a, b), (b, a)):
        assert x.union(y) == oracle.clipped_union(x, y)
        assert x.intersect(y) == oracle.clipped_intersect(x, y)
        assert x.subtract(y) == oracle.clipped_subtract(x, y)
        assert x.symmetric_difference_measure(y) \
            == oracle.clipped_subtract(x, y).measure + oracle.clipped_subtract(y, x).measure


def test_far_and_face_sharing_sets_meet_in_the_empty_set():
    square = DyadicBoxSet.from_box((0, 1), (0, 1))
    for other in (DyadicBoxSet.from_box((5, 6), (0, 1)), DyadicBoxSet.from_box((1, 2), (0, 1))):
        assert square.intersect(other) == DyadicBoxSet.empty(2) \
            == oracle.clipped_intersect(square, other)
        assert square.subtract(other) == square


def assert_same_report(cert):
    assert dataclasses.asdict(cert.verify()) == dataclasses.asdict(oracle.pairwise_verify(cert))


def _checker_certificates(source, target, spacing):
    return [translation_congruent(source, target, spacing),
            weyl_congruent(source, box_figure([(0, s) for s in spacing])),
            dilation_congruent(source.translate([2 * s for s in spacing]),
                               target.translate([2 * s for s in spacing]))]


def _broken(cert, kind):
    """A copy of a certificate with one relation broken."""
    pieces = list(cert.pieces)
    piece, g = pieces[0]
    dim = piece.dim
    src_res, tgt_res = cert.source_residual, cert.target_residual
    if kind == "overlapping pieces":  # the same piece again, moved elsewhere
        pieces.append((piece, PieceMap.translate([50] * dim)))
    elif kind == "overlapping images":  # a translate of the piece, mapped onto its image
        v = [F(101, 3)] * dim
        linear_v = [sum(row[j] * v[j] for j in range(dim)) for row in g.linear]
        pieces.append((piece.translate(v), PieceMap(g.linear, tuple(
            t - w for t, w in zip(g.translation, linear_v)), g.label)))
    elif kind == "piece outside the source":
        pieces.append((piece.translate([-70] * dim), PieceMap.translate([70] * dim)))
    else:  # an edited residual
        src_res = src_res.union(DyadicBoxSet.from_box(*[(0, F(1, 7))] * dim))
        tgt_res = DyadicBoxSet.empty(dim)
    return CongruenceCertificate(cert.source, cert.target, pieces, src_res, tgt_res)


BROKEN = ["overlapping pieces", "overlapping images", "piece outside the source",
          "an edited residual"]


@st.composite
def checker_cases(draw):
    dim = draw(st.integers(1, 2))
    spacing = [draw(st.sampled_from([F(1), F(2), F(2, 3)])) for _ in range(dim)]
    ends = st.builds(lambda n, e: F(n, 6) + F(e, 2 ** 64), st.integers(0, 12), nudge)
    source, target = (DyadicBoxSet(dim, [tuple(tuple(sorted(draw(ends) * s for _ in range(2)))
                                               for s in spacing)
                                         for _ in range(draw(st.integers(1, 3)))])
                      for _ in range(2))
    return source, target, spacing


@settings(max_examples=120, deadline=None)
@given(case=checker_cases(), kind=st.sampled_from(BROKEN))
def test_reports_match_the_pairwise_loop_on_checker_and_broken_certificates(case, kind):
    for cert in _checker_certificates(*case):
        claim = cert._claim
        if claim is not None:  # the pieces as sliced out of each bounding box
            assert cert.pieces == oracle.sliced_claimed_pieces(*claim)
        assert_same_report(cert)
        if cert.pieces:
            assert_same_report(_broken(cert, kind))


def test_reports_match_on_the_planar_fixtures():
    for fixture in (build_w1(4), build_w2(4)):
        w = fixture.wavelet_set
        for cert in (weyl_congruent(w, centered_square_figure()),
                     translation_congruent(w, DyadicBoxSet.from_box((-1, 1), (-1, 1)), (2, 2))):
            claim = cert._claim
            assert cert.pieces == oracle.sliced_claimed_pieces(*claim)
            assert_same_report(cert)
            for kind in BROKEN:
                broken = _broken(cert, kind)
                assert not broken.verify().ok
                assert_same_report(broken)


def test_pieces_that_share_only_a_face_are_disjoint():
    left, right = DyadicBoxSet.from_box((0, 1), (0, 1)), DyadicBoxSet.from_box((1, 2), (0, 1))
    whole = left.union(right)
    cert = CongruenceCertificate(whole, whole, [(left, PieceMap.translate([0, 0])),
                                                (right, PieceMap.translate([0, 0]))],
                                 DyadicBoxSet.empty(2), DyadicBoxSet.empty(2))
    report = cert.verify()
    assert report.ok and report.pieces_disjoint and report.images_disjoint
    assert report == oracle.pairwise_verify(cert)
