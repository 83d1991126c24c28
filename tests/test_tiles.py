import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveletsets.reflections import box_figure, centered_square_figure
from waveletsets.tiles import (
    CongruenceCertificate,
    ConstructionError,
    DyadicBoxSet,
    GroupSpec,
    PieceMap,
    build_w1,
    build_w2,
    construct_wavelet_set,
    dilation_congruent,
    intersection_group,
    is_fundamental_domain,
    is_wavelet_set_1d,
    shannon_set,
    three_way_check,
    translation_congruent,
    weyl_congruent,
)
from waveletsets import tiles

import boxset_oracle as oracle


# -- set algebra ------------------------------------------------------------


def test_union_idempotent():
    e = shannon_set()
    assert e.union(e).measure == e.measure
    assert e.union(e).equals_ae(e)


def test_lshape_subtract():
    big = DyadicBoxSet.from_box((0, 1), (0, 1))
    small = DyadicBoxSet.from_box((0, F(1, 2)), (0, F(1, 2)))
    l_shape = big.subtract(small)
    assert l_shape.measure == F(3, 4)
    assert l_shape.intersect(small).is_empty
    assert l_shape.union(small).equals_ae(big)


def test_scale_box():
    box = DyadicBoxSet.from_box((1, 2))
    assert box.scale(2).boxes == (((F(2), F(4)),),)
    assert box.scale(2).measure == 2 * box.measure


def test_transform_requires_monomial():
    box = DyadicBoxSet.from_box((0, 1), (0, 1))
    swapped = box.transform([[0, 1], [1, 0]])
    assert swapped.equals_ae(box)
    with pytest.raises(ValueError):
        box.transform([[1, 1], [0, 1]])


RECT = DyadicBoxSet.from_box((0, 1), (0, 2))


@pytest.mark.parametrize("call, message", [
    # one offset per axis
    (lambda: RECT.translate((1, 2, 3)), "dimension mismatch"),
    (lambda: RECT.translate((1,)), "dimension mismatch"),
    (lambda: DyadicBoxSet.empty(2).translate((1,)), "dimension mismatch"),
    (lambda: PieceMap.axis_affine([2], [0]).apply(RECT), "dimension mismatch"),
    (lambda: RECT.transform([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "dimension mismatch"),
    # each source axis once
    (lambda: RECT.transform([[1, 0], [2, 0]]), "monomial matrices"),
    (lambda: PieceMap(((F(1), F(0)), (F(1), F(0))), (F(0), F(0))).apply(RECT),
     "monomial matrices"),
    # no zero coefficient
    (lambda: RECT.scale(0), "zero scale"),
    (lambda: PieceMap.axis_affine([1, 0], [0, 0]).apply(RECT), "monomial matrices"),
    (lambda: RECT.reflect_axis(2), "no axis 2"),
    (lambda: RECT.reflect_axis(5), "no axis 5"),
    (lambda: RECT.reflect_axis(-1), "no axis -1"),
    (lambda: DyadicBoxSet.from_box(), "at least one axis"),
    (lambda: DyadicBoxSet.empty(0), "at least one axis"),
])
def test_transforms_refuse_maps_that_do_not_fit_the_set(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_json_round_trip():
    e = build_w1(2).wavelet_set
    again = DyadicBoxSet.from_json(e.to_json())
    assert again.equals_ae(e)
    assert again.measure == e.measure


@pytest.mark.parametrize("dim, box, counts", [
    (1, {"lo": [[0, 1], [5, 1]], "hi": [[1, 1]]}, (2, 1)),
    (2, {"lo": [[0, 1], [0, 1], [0, 1]], "hi": [[1, 1], [1, 1]]}, (3, 2)),
], ids=["1-D-two-lo", "2-D-three-lo"])
def test_from_json_refuses_a_box_whose_lo_and_hi_differ_in_length(dim, box, counts):
    # pairing the corners would drop the extra coordinates
    good = {"lo": [[0, 1]] * dim, "hi": [[1, 2]] * dim}
    text = json.dumps({"dim": dim, "unit": "pi", "boxes": [good, box]})
    with pytest.raises(ValueError, match=rf"^box 1 has {counts[0]} lo and {counts[1]} hi coordinates$"):
        DyadicBoxSet.from_json(text)


def test_normalization_resolves_overlap():
    overlapping = DyadicBoxSet(1, (((F(0), F(2)),), ((F(1), F(3)),)))
    assert overlapping.measure == 3


def test_sets_compare_and_hash_by_their_canonical_grid():
    whole = DyadicBoxSet.from_box((0, 1), (0, 1))
    halves = DyadicBoxSet(2, [((0, F(1, 2)), (0, 1)), ((F(1, 2), 1), (0, 1))])
    assert whole == halves and hash(whole) == hash(halves)
    assert whole == DyadicBoxSet.from_box((0, 1), (0, 1)) and len({whole, halves}) == 1
    # one quarter cell less, and the same grid with another quarter missing
    quarters = [DyadicBoxSet.from_box((a, a + F(1, 2)), (b, b + F(1, 2)))
                for a in (0, F(1, 2)) for b in (0, F(1, 2))]
    notch, other = whole.subtract(quarters[3]), whole.subtract(quarters[0])
    assert (notch.den, notch.cuts) == (other.den, other.cuts)
    assert notch != whole and notch != other and other != whole
    assert DyadicBoxSet.from_box((0, 1)) != DyadicBoxSet.from_box((0, 1), (0, 1))
    assert whole != whole.to_json()


@pytest.mark.parametrize("check", [
    lambda a: translation_congruent(a, a, (2, 2)),
    lambda a: weyl_congruent(a, centered_square_figure()),
    lambda a: dilation_congruent(a, DyadicBoxSet.from_box((2, 4), (1, 4)))])
def test_two_certificates_of_one_check_compare_equal(check):
    first = check(DyadicBoxSet.from_box((1, 2), (F(1, 2), 2)))
    second = check(DyadicBoxSet(2, [((1, 2), (F(1, 2), 1)), ((1, 2), (1, 2))]))
    assert first == second and first.verify().ok


# -- congruence checkers ---------------------------------------------------


def test_shannon_translation_pieces():
    cert = translation_congruent(shannon_set(),
                                 DyadicBoxSet.from_box((0, 2)), [2])
    assert cert.residual_measure == 0
    moves = sorted(tuple(g.translation) for _, g in cert.pieces)
    assert moves == [(F(0),), (F(2),)]
    assert cert.verify().ok


def test_identity_translation_certificate():
    c = DyadicBoxSet.from_box((0, 2))
    cert = translation_congruent(c, c, [2])
    assert cert.residual_measure == 0
    assert len(cert.pieces) == 1
    assert cert.pieces[0][1].linear == ((1,),)


def test_translation_residual_pi():
    cert = translation_congruent(DyadicBoxSet.from_box((0, 3)),
                                 DyadicBoxSet.from_box((0, 2)), [2])
    assert cert.residual_measure == 1


def test_shannon_dilation_identity():
    cert = dilation_congruent(shannon_set(), shannon_set(), kappa=2)
    assert cert.residual_measure == 0
    assert len(cert.pieces) == 1


def test_dilation_positive_half_pieces():
    source = DyadicBoxSet(1, (((F(1, 2), F(1)),), ((F(2), F(4)),)))
    target = DyadicBoxSet(1, (((F(1), F(2)),), ((F(2), F(4)),)))
    cert = dilation_congruent(source, target, kappa=2)
    assert cert.residual_measure == 0
    assert cert.verify().ok


def test_dilation_rejects_center_in_source():
    with pytest.raises(ValueError):
        dilation_congruent(DyadicBoxSet.from_box((-1, 1)), shannon_set(), kappa=2)


def test_weyl_identity_and_single_reflection():
    fig = centered_square_figure()
    c = DyadicBoxSet.from_box((-1, 1), (-1, 1))
    assert weyl_congruent(c, fig).residual_measure == 0
    reflected = c.translate((2, 0))  # the mirror image of C about x = pi
    cert = weyl_congruent(reflected, fig)
    assert cert.residual_measure == 0
    assert len(cert.pieces) == 1


def test_weyl_double_cover_detected():
    doubled = DyadicBoxSet.from_box((-1, 3), (-1, 1))
    cert = weyl_congruent(doubled, centered_square_figure())
    # the folded copies coincide, so half the source cannot be placed
    assert cert.source_residual.measure == 4
    assert cert.target_residual.measure == 0


def test_weyl_claim_rule_keeps_the_first_cell_in_grid_order():
    # [-1, 1) and its mirror image [1, 3) fold onto the same square; the
    # copy that comes first on axis 0 takes it
    doubled = DyadicBoxSet.from_box((-1, 3), (-1, 1))
    cert = weyl_congruent(doubled, centered_square_figure())
    assert cert.source_residual.equals_ae(DyadicBoxSet.from_box((1, 3), (-1, 1)))
    # the same on axis 1, and in 1-D
    cert = weyl_congruent(DyadicBoxSet.from_box((-1, 1), (-3, 1)), centered_square_figure())
    assert cert.source_residual.equals_ae(DyadicBoxSet.from_box((-1, 1), (-1, 1)))
    cert = weyl_congruent(DyadicBoxSet.from_box((0, 4)), box_figure([(0, 1)]))
    assert cert.source_residual.equals_ae(DyadicBoxSet.from_box((1, 4)))


@pytest.mark.parametrize("build, depth", [(build_w1, 10), (build_w2, 10), (build_w1, 3)])
def test_weyl_certificate_has_one_piece_per_reflection_word(build, depth):
    # the source spans three slabs between mirrors per axis: at most 9 words
    cert = weyl_congruent(build(depth).wavelet_set, centered_square_figure())
    maps = {(g.linear, g.translation) for _, g in cert.pieces}
    assert len(maps) == len(cert.pieces) <= 9
    assert cert.verify().ok


def test_weyl_rejects_a_flat_figure():
    with pytest.raises(ValueError):
        weyl_congruent(DyadicBoxSet.from_box((-1, 1), (-1, 1)),
                       box_figure([(-1, 1), (1, 1)]))


def test_weyl_takes_a_box_figure_not_a_list_of_intervals():
    with pytest.raises(ValueError, match="^a box figure is required$"):
        weyl_congruent(DyadicBoxSet.from_box((0, 1)), [(0, 1)])


def test_translation_is_exact_near_integer_quotients():
    # (target lo - source hi) / spacing and (target hi - source lo) / spacing
    # at 3 - 2**-62 and 4 + 2**-62, at 4 and 5, and, with a spacing of 1/3,
    # at 4 - 3 * 2**-61: quotients that float() rounds to integers
    tiny = F(1, 2 ** 62)
    for source, target, spacing, moves in [
        ((-tiny, tiny), (3, 4), 1, [3, 4]),
        ((0, 1), (4, 5), 1, [4]),
        ((0, F(2, 3) + 2 * tiny), (2, 3), F(1, 3), [F(4, 3), F(5, 3), 2, F(7, 3), F(8, 3)]),
    ]:
        source, target = DyadicBoxSet.from_box(source), DyadicBoxSet.from_box(target)
        cert = translation_congruent(source, target, [spacing])
        old = oracle.translation_congruent(source, target, [spacing])
        assert [g.translation[0] for _, g in cert.pieces] == moves
        assert [(g.translation, g.label) for _, g in cert.pieces] \
            == [(g.translation, g.label) for _, g in old.pieces]
        for (piece, _), (old_piece, _) in zip(cert.pieces, old.pieces):
            assert piece.equals_ae(old_piece)
        assert cert.source_residual.equals_ae(old.source_residual)
        assert cert.target_residual.equals_ae(old.target_residual)
        assert cert.verify().ok


def test_dilation_has_no_power_cap():
    # D^45 carries [2**-45, 2**-44) onto [1, 2); the old greedy tried powers
    # up to 40 only and left both sets whole
    source = DyadicBoxSet.from_box((F(1, 2 ** 45), F(1, 2 ** 44)))
    cert = dilation_congruent(source, shannon_set())
    assert [g.label for _, g in cert.pieces] == ["D^45"]
    assert cert.residual_measure == 1
    assert cert.source_residual.is_empty
    assert cert.verify().ok
    old = oracle.dilation_congruent(source, shannon_set())
    assert old.pieces == [] and old.residual_measure == 2


def test_dilation_rejects_center_in_target():
    # the shells of [0, 2) never end, so no power range is enough
    with pytest.raises(ValueError):
        dilation_congruent(shannon_set(), DyadicBoxSet.from_box((0, 2)))
    with pytest.raises(ValueError):
        dilation_congruent(shannon_set(), DyadicBoxSet.from_box((0, 2)), allow_center=True)


def test_certificate_verify_detects_tampering():
    cert = translation_congruent(shannon_set(), DyadicBoxSet.from_box((0, 2)), [2])
    bad = CongruenceCertificate(
        source=cert.source,
        target=cert.target,
        pieces=[(p, PieceMap.translate([g.translation[0] + 2])) for p, g in cert.pieces],
        source_residual=cert.source_residual,
        target_residual=cert.target_residual,
    )
    assert not bad.verify().ok


def _interval(lo, hi):
    return DyadicBoxSet.from_box((lo, hi))


def _shift(x):
    return PieceMap.translate([x])


EMPTY_LINE = DyadicBoxSet.empty(1)


@pytest.mark.parametrize("cert, flags", [
    # overlapping pieces: [1, 2) is placed twice, so the piece measures add
    # up to more than the source
    (CongruenceCertificate(_interval(0, 2), _interval(0, 4),
                           [(_interval(0, 2), _shift(0)), (_interval(1, 2), _shift(2))],
                           EMPTY_LINE, _interval(2, 3)),
     dict(pieces_disjoint=False, measure_balanced=False)),
    # disjoint pieces whose images overlap on [0, 1)
    (CongruenceCertificate(_interval(0, 2), _interval(0, 2),
                           [(_interval(0, 1), _shift(0)), (_interval(1, 2), _shift(-1))],
                           EMPTY_LINE, _interval(1, 2)),
     dict(images_disjoint=False)),
    # a piece outside the source, which again adds measure the source lacks
    (CongruenceCertificate(_interval(0, 1), _interval(0, 2),
                           [(_interval(0, 1), _shift(0)), (_interval(1, 2), _shift(0))],
                           EMPTY_LINE, EMPTY_LINE),
     dict(pieces_in_source=False, measure_balanced=False)),
    # a true decomposition with an edited source residual
    (CongruenceCertificate(_interval(0, 2), _interval(0, 2),
                           [(_interval(0, 2), _shift(0))], _interval(0, 1), EMPTY_LINE),
     dict(measure_balanced=False)),
])
def test_certificate_verify_clears_the_broken_relation(cert, flags):
    report = cert.verify()
    names = ("pieces_disjoint", "pieces_in_source", "images_disjoint", "images_in_target",
             "measure_balanced")
    assert {n: getattr(report, n) for n in names} == {n: flags.get(n, True) for n in names}
    assert not report.ok


# -- piece maps against their former hand-written algebra --------------------

coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)
scales = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3), F(-2, 3)])


@st.composite
def piece_maps(draw, n):
    """A monomial map: a permuted diagonal of scales, a shift and a label."""
    rows = [[F(0)] * n for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = draw(scales)
    shift = tuple(draw(st.lists(coords, min_size=n, max_size=n)))
    return PieceMap(tuple(map(tuple, rows)), shift, draw(st.sampled_from(["", "t(1,)", "D^2"])))


@st.composite
def boxes(draw, n):
    ends = [sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True))) for _ in range(n)]
    return DyadicBoxSet.from_box(*map(tuple, ends))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_piece_map_inverse_matches_former_algebra(n, data):
    g = data.draw(piece_maps(n), label="g")
    inv = oracle.piece_map_inverse(g)
    assert all(type(x) is F for row in inv.linear for x in row)
    assert all(type(x) is F for x in inv.translation)
    box = data.draw(boxes(n), label="box")
    assert inv.apply(g.apply(box)).equals_ae(box)
    assert g.apply(inv.apply(box)).equals_ae(box)


# -- fundamental domains -----------------------------------------------------


def test_cube_is_translation_fundamental_domain():
    region = DyadicBoxSet.from_box((-3, 3), (-3, 3))
    rep = is_fundamental_domain(DyadicBoxSet.from_box((-1, 1), (-1, 1)),
                                GroupSpec("translation", spacings=(2, 2)), region)
    assert rep.ok


def test_quarter_cube_defect():
    region = DyadicBoxSet.from_box((-3, 3), (-3, 3))
    rep = is_fundamental_domain(DyadicBoxSet.from_box((0, 1), (0, 1)),
                                GroupSpec("translation", spacings=(2, 2)), region)
    assert not rep.ok
    assert rep.uncovered_measure == F(3, 4) * region.measure


def test_fundamental_domain_of_empty_region():
    rep = is_fundamental_domain(DyadicBoxSet.from_box((-1, 1), (-1, 1)),
                                GroupSpec("translation", spacings=(2, 2)), DyadicBoxSet.empty(2))
    assert rep.ok and rep.uncovered_measure == 0 and rep.overlap_measure == 0


@pytest.mark.parametrize("group, region", [
    (GroupSpec("translation", spacings=(2, 2, 2)), DyadicBoxSet.from_box((-3, 3), (-3, 3))),
    (GroupSpec("translation", spacings=(2,)), DyadicBoxSet.from_box((-3, 3), (-3, 3))),
    (GroupSpec("translation", spacings=(2, 2)), DyadicBoxSet.from_box((-3, 3))),
    (GroupSpec("dilation", kappa=F(2)), DyadicBoxSet.from_box((F(1, 4), 4))),
])
def test_fundamental_domain_rejects_mismatched_dimensions(group, region):
    with pytest.raises(ValueError, match="spacing|dimension"):
        is_fundamental_domain(DyadicBoxSet.from_box((-1, 1), (-1, 1)), group, region)


def test_shannon_is_dilation_fundamental_domain():
    region = DyadicBoxSet(1, (((F(-4), F(-1, 4)),), ((F(1, 4), F(4)),)))
    rep = is_fundamental_domain(shannon_set(), GroupSpec("dilation", kappa=F(2)), region)
    assert rep.ok


def test_wavelet_set_criterion():
    report = is_wavelet_set_1d(shannon_set())
    assert report["is_wavelet_set"]
    assert report["translation_residual"] == 0
    assert report["dilation_residual"] == 0
    skew = is_wavelet_set_1d(DyadicBoxSet.from_box((0, 2)))
    assert not skew["is_wavelet_set"]


# -- planar fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def w1():
    return build_w1(8)


@pytest.fixture(scope="module")
def w2():
    return build_w2(8)


def _grid(boxset):
    return boxset.den, boxset.cuts, boxset.mask.shape, boxset.mask.tobytes()


@pytest.mark.parametrize("name", ["w1", "w2"])
def test_fixtures_equal_the_oracle_builders(name):
    # one staircase builder against the two earlier ones and their typed tails;
    # the components are read last and in reverse, each from its own mask
    inputs = [(d, t) for d in range(1, 13) for t in range(5)]
    inputs += [(d, tiles.TAIL_STANDIN_TERMS) for d in range(13, 65)]
    for depth, tail_terms in inputs:
        new = getattr(tiles, "build_" + name)(depth, tail_terms)
        old = getattr(oracle, "build_" + name)(depth, tail_terms)
        assert (new.depth, new.tail, new.copies) == (old.depth, old.tail, old.copies)
        assert _grid(new.wavelet_set) == _grid(old.wavelet_set)
        assert new.wavelet_set.boxes == oracle.grid_boxes(old.wavelet_set)
        assert list(new.components) == list(old.components)
        assert all(_grid(new.components[k]) == _grid(old.components[k])
                   for k in reversed(list(old.components)))


@pytest.mark.parametrize("build", [build_w1, build_w2])
def test_fixture_components_become_sets_on_first_read(build, monkeypatch):
    made, fill = [], DyadicBoxSet._fill

    def counted(self, *grid):  # every set is filled once, however it is made
        made.append(self)
        fill(self, *grid)

    monkeypatch.setattr(DyadicBoxSet, "_fill", counted)
    fx = build(6)
    assert len(made) == 1  # the wavelet set alone
    a1 = fx.components["A1"]
    assert len(made) == 2
    assert fx.components["A1"] is a1 and len(made) == 2
    sets = dict(fx.components)
    assert len(made) == 1 + len(sets) and all(isinstance(s, DyadicBoxSet) for s in sets.values())


def test_the_tail_standin_check_runs_under_python_O():
    # a y-side of one constant length does not scale with its x-side, so the
    # stand-in misses the omitted tail; the check is a raise, which -O keeps
    code = ("from waveletsets import tiles\n"
            "tiles._staircase(3, 1, lambda lo, hi: (lo, lo + 1), (2, 2), "
            "('G0', 'E1', 'B1', 'C1'), {'A2': (0,)})\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tiles.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 1
    assert "ArithmeticError: the tail stand-in has the measure" in run.stderr


def test_w1_exact_measure_identity(w1):
    assert w1.tail == F(1, 60) * F(1, 16) ** 8
    assert w1.wavelet_set.measure + 4 * w1.tail == 4
    assert w1.measure_identity_holds


def test_w1_three_way(w1):
    rep = three_way_check(w1.wavelet_set, centered_square_figure(), (2, 2))
    assert rep.within(8 * w1.tail)


def test_w1_quadrant_symmetry(w1):
    a1 = w1.components["A1"]
    assert w1.components["A2"].equals_ae(a1.reflect_axis(0))
    assert w1.components["A4"].equals_ae(a1.reflect_axis(1))
    assert w1.components["A3"].equals_ae(a1.reflect_axis(0).reflect_axis(1))


def test_w1_folded_pieces_cover_doubled_square(w1):
    # the third-quadrant translate piece folds back (reflections about
    # x = -pi and y = -pi) onto the gap left in the doubled core square
    b1 = w1.components["B1"]
    c3 = w1.components["C1"].reflect_axis(0).reflect_axis(1)
    folded = c3.reflect_axis(0).translate((-2, 0)).reflect_axis(1).translate((0, -2))
    two_g0 = w1.components["G0"].scale(2)
    covered = folded.union(b1)
    defect = covered.symmetric_difference_measure(
        two_g0.subtract(w1.components["tail_standin"]))
    assert defect == 0


def test_w2_exact_measure_identity(w2):
    assert w2.tail == F(1, 30) * F(1, 16) ** 8
    assert w2.wavelet_set.measure + 2 * w2.tail == 4


def test_w2_three_way(w2):
    rep = three_way_check(w2.wavelet_set, centered_square_figure(), (2, 2))
    assert rep.within(8 * w2.tail)


def test_w2_reflection_cover(w2):
    # the two mirrored far pieces reflect back into the figure and, together
    # with the two core leftovers, cover the full square up to the tail
    d = w2.components["D"]
    b = w2.components["B"]
    d_minus = d.reflect_axis(0)
    rho2_d = d.reflect_axis(0).translate((2, 0))
    rho1_dm = d_minus.reflect_axis(0).translate((-2, 0))
    cover = rho2_d.union(rho1_dm).union(b).union(b.reflect_axis(0))
    defect = DyadicBoxSet.from_box((-1, 1), (-1, 1)).subtract(cover).measure
    assert defect == 2 * w2.tail


@pytest.mark.parametrize("build, depth, tail_terms, residuals", [
    (build_w1, 8, 3, (F(1, 64424509440), F(1, 257698037760), F(1, 64424509440))),
    (build_w2, 10, 1, (F(1, 16492674416640), F(1, 65970697666560), F(1, 16492674416640))),
    (build_w2, 3, 1, (F(1, 61440), F(1, 245760), F(1, 61440))),
])
def test_three_way_residuals_are_exact(build, depth, tail_terms, residuals):
    # translation, dilation and Weyl residuals as recorded in perfbench/reference.json
    fx = build(depth, tail_terms)
    rep = three_way_check(fx.wavelet_set, centered_square_figure(), (2, 2))
    assert (rep.translation_residual, rep.dilation_residual, rep.weyl_residual) == residuals


def test_c_itself_fails_dilation():
    # C tiles by translation and by folding, but holds the dilation centre
    c = DyadicBoxSet.from_box((-1, 1), (-1, 1))
    assert translation_congruent(c, c, (2, 2)).residual_measure == 0
    assert weyl_congruent(c, centered_square_figure()).residual_measure == 0
    with pytest.raises(ValueError, match="dilation center lies in the closure of the source"):
        three_way_check(c, centered_square_figure(), (2, 2))


PLANAR_INPUTS = [(build, depth, tail_terms) for build in (build_w1, build_w2)
                 for depth in range(3, 11) for tail_terms in (1, 2, 3)]


@pytest.mark.parametrize("build, depth, tail_terms", PLANAR_INPUTS)
def test_three_way_check_equals_the_three_checkers(build, depth, tail_terms):
    # the figure box B is a fundamental domain of its fold group, so the
    # orbit count that three_way_check reads gives the Weyl certificate's
    # residual; the other two are certificates in both
    w = build(depth, tail_terms).wavelet_set
    box = DyadicBoxSet.from_box((-1, 1), (-1, 1))
    rep = three_way_check(w, centered_square_figure(), (2, 2))
    assert (rep.translation_residual, rep.dilation_residual, rep.weyl_residual) == (
        translation_congruent(w, box, (2, 2)).residual_measure,
        dilation_congruent(w, box.scale(2).subtract(box)).residual_measure,
        weyl_congruent(w, centered_square_figure()).residual_measure)


def _refused(*args, **kwargs):
    raise AssertionError("a verdict on a fundamental domain counts orbits instead")


def test_three_way_check_builds_no_weyl_certificate(monkeypatch, w1, w2):
    # the last one, the square less a middle square beside a copy moved by the
    # fold group's translation (4, 0), overlaps itself more than it misses
    ring = DyadicBoxSet.from_box((-1, 1), (-1, 1)).subtract(
        DyadicBoxSet.from_box((F(-1, 4), F(1, 4)), (F(-1, 4), F(1, 4))))
    candidates = [w1.wavelet_set, w2.wavelet_set, build_w1(3, 1).wavelet_set,
                  DyadicBoxSet.from_box((F(1, 2), 2), (F(1, 2), 2)),
                  ring.union(DyadicBoxSet.from_box((3, 5), (-1, 1)))]
    before = [three_way_check(c, centered_square_figure(), (2, 2)) for c in candidates]
    weyl = [weyl_congruent(c, centered_square_figure()).residual_measure for c in candidates]
    monkeypatch.setattr(tiles, "weyl_congruent", _refused)
    after = [three_way_check(c, centered_square_figure(), (2, 2)) for c in candidates]
    assert after == before and [rep.weyl_residual for rep in after] == weyl


def test_wavelet_set_1d_builds_no_translation_certificate(monkeypatch):
    candidates = [shannon_set(), DyadicBoxSet.from_box((0, 2)), DyadicBoxSet.from_box((-1, 1)),
                  DyadicBoxSet(1, [((F(-32, 7), -4),), ((-1, F(-4, 7)),), ((F(4, 7), 1),),
                                   ((4, F(32, 7)),)]),
                  DyadicBoxSet(1, [((-3, -2),), ((1, 3),)])]
    before = [is_wavelet_set_1d(c) for c in candidates]
    translation = [translation_congruent(c, DyadicBoxSet.from_box((0, 2)), [2]).residual_measure
                   for c in candidates]
    monkeypatch.setattr(tiles, "translation_congruent", _refused)
    after = [is_wavelet_set_1d(c) for c in candidates]
    assert after == before and [v["translation_residual"] for v in after] == translation


# -- intersection group --------------------------------------------------------


def test_intersection_group_generators():
    ig = intersection_group(centered_square_figure(), (2, 2))
    assert ig == GroupSpec("translation", spacings=(4, 4))
    # a box moved by a vector of the shared lattice is congruent to it, and
    # one moved by a vector of the 2pi lattice alone is not
    box = DyadicBoxSet.from_box((0, 1), (0, 1))
    for vec, residual in (((4, 4), 0), ((-8, 4), 0), ((2, 0), 1)):
        assert translation_congruent(box, box.translate(vec), ig.spacings).residual_measure \
            == residual


@pytest.mark.parametrize("figure", [[(0, 0), (0, 1)], [(0, 1)]])
def test_intersection_group_checks_the_figure_box(figure):
    # a flat side would give a zero generator
    with pytest.raises(ValueError, match="positive widths|dimension"):
        intersection_group(box_figure(figure), (2, 2))


LINE, SQUARE = DyadicBoxSet.from_box((0, 1)), DyadicBoxSet.from_box((0, 1), (0, 1))


@pytest.mark.parametrize("call", [
    # sets of two dimensions
    lambda: translation_congruent(LINE, SQUARE, [2]),
    lambda: translation_congruent(SQUARE, LINE, [2, 2]),
    lambda: dilation_congruent(DyadicBoxSet.from_box((1, 2)), SQUARE.translate((1, 1))),
    lambda: dilation_congruent(SQUARE.translate((1, 1)), DyadicBoxSet.from_box((1, 2))),
    # a lattice spacing of 0, or below
    lambda: intersection_group(centered_square_figure(), (0, 2)),
    lambda: intersection_group(centered_square_figure(), (-2, 2)),
    # a lattice of two axes for a 1-D construction, refused before its first round
    lambda: construct_wavelet_set(DyadicBoxSet.from_box((-1, 1)), shannon_set(), [2, 2]),
    # a relocation step of one axis, or of zeros, for a 2-D construction
    lambda: construct_wavelet_set(SQUARE, SQUARE.translate((2, 2)), [2, 2], relocation_step=[4]),
    lambda: construct_wavelet_set(SQUARE, SQUARE.translate((2, 2)), [2, 2],
                                  relocation_step=[0, 0]),
], ids=["translation 1-D to 2-D", "translation 2-D to 1-D", "dilation 1-D to 2-D",
        "dilation 2-D to 1-D", "zero spacing", "negative spacing",
        "constructor lattice of 2 axes", "relocation step of 1 axis", "zero relocation step"])
def test_group_checks_reject_mismatched_input(call):
    with pytest.raises(ValueError, match="dimension mismatch|positive spacings"):
        call()


# -- constructor ---------------------------------------------------------------


def test_construct_1d():
    e = DyadicBoxSet.from_box((-1, 1))
    res = construct_wavelet_set(e, shannon_set(), [2], kappa=2,
                                epsilon=F(1, 10 ** 6))
    assert res.residual_history[-1] <= F(1, 10 ** 6)
    assert res.translation_certificate.residual_measure == 0
    assert res.translation_certificate.verify().ok
    assert res.dilation_certificate.verify().ok


def test_construct_degenerate_epsilon_returns_start():
    e = DyadicBoxSet.from_box((-1, 1))
    res = construct_wavelet_set(e, shannon_set(), [2], kappa=2,
                                epsilon=e.measure)
    assert res.iterations == 0
    assert res.wavelet_set.equals_ae(e)


def test_construct_2d_weyl_pair():
    e = DyadicBoxSet.from_box((-1, 1), (-1, 1))
    annulus = DyadicBoxSet.from_box((-2, 2), (-2, 2)).subtract(e)
    res = construct_wavelet_set(e, annulus, [2, 2], kappa=2,
                                epsilon=F(1, 1000), relocation_step=[4, 4],
                                max_iterations=60)
    assert res.dilation_certificate.residual_measure <= F(1, 1000)
    assert res.translation_certificate.residual_measure == 0
    # 4pi-lattice relocations also preserve fold congruence exactly
    w = weyl_congruent(res.wavelet_set, centered_square_figure())
    assert w.residual_measure == 0


def test_construct_reports_best_residual_on_failure():
    e = DyadicBoxSet.from_box((-1, 1))
    with pytest.raises(ConstructionError) as err:
        construct_wavelet_set(e, shannon_set(), [2], kappa=2,
                              epsilon=F(1, 10 ** 12), max_iterations=3)
    assert err.value.best_residual > 0


# -- the int64-or-Python-int rule of the grids ---------------------------------


INT64, PYTHON_INTS = np.dtype(np.int64), np.dtype(object)


def _decisions(monkeypatch):
    """The dtype of every `geometry._int_dtype` decision made in `tiles`, in order."""
    seen, rule = [], tiles._int_dtype

    def spy(bound):
        dtype = rule(bound)
        seen.append(np.dtype(dtype))
        return dtype

    monkeypatch.setattr(tiles, "_int_dtype", spy)
    return seen


def test_int_rule_edge():
    assert tiles._int_dtype(2 ** 63 - 1) is np.int64 and tiles._int_dtype(2 ** 63) is object


# each case sits on one side of the threshold its function used before the
# rule was shared: a grid volume times the largest weight below 2**63, a
# farthest distance below 2**62, and 8 * reach * scale below 2**62
@pytest.mark.parametrize("span, weight, dtype", [(2 ** 63 - 1, 1, INT64), (2 ** 62, 2, PYTHON_INTS),
                                                 (2 ** 62 - 1, 2, INT64)])
def test_grid_measure_decision_at_its_edge(monkeypatch, span, weight, dtype):
    seen = _decisions(monkeypatch)
    assert tiles._grid_measure(3, ((0, span),), np.array([weight])) == F(span * weight, 3)
    assert seen == [dtype]


@pytest.mark.parametrize("far, dtype", [(2 ** 62 - 1, INT64), (2 ** 62, PYTHON_INTS)])
def test_spread_decision_at_its_edge(monkeypatch, far, dtype):
    seen = _decisions(monkeypatch)
    # the box [far - 1, far] is far - 1 from the origin at its near end and far at its far end
    assert tiles._spread(DyadicBoxSet.from_box((far - 1, far))) == (far - 1, far)
    assert seen == [dtype]


@pytest.mark.parametrize("spacing, dtype", [(2 ** 59 - 1, INT64), (2 ** 59, PYTHON_INTS)])
def test_reduction_decision_at_its_edge(monkeypatch, spacing, dtype):
    # the lattice's period cell [0, spacing] is the reach, with scale 1
    box = DyadicBoxSet.from_box((0, 1))
    group = tiles._group(GroupSpec("translation", spacings=(spacing,)), box, box)
    seen = _decisions(monkeypatch)
    tiles._reduction(box, box, group)
    assert seen == [dtype]
    cert = translation_congruent(box, box, (spacing,))
    assert cert.residual_measure == 0 and cert.verify().ok


def test_planar_inputs_stay_in_int64(monkeypatch):
    # a switch to Python ints on a planar input would slow the certificates
    # down many times over: every decision on the 48 benchmark inputs is int64
    seen = _decisions(monkeypatch)
    for build in (build_w1, build_w2):
        for depth in range(3, 11):
            for tail_terms in (1, 2, 3):
                fx = build(depth, tail_terms)
                three_way_check(fx.wavelet_set, centered_square_figure(), (2, 2))
    assert len(seen) == 432 and set(seen) == {INT64}
