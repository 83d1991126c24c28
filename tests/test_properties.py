"""Randomized property suites over the exact geometric core."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from waveletsets import fif
from waveletsets.geometry import AffineIsometry, Hyperplane, Vec
from waveletsets.tiles import CongruenceCertificate, DyadicBoxSet, PieceMap, translation_congruent

MANY = settings(max_examples=500, deadline=None)

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=64)
small_ints = st.integers(min_value=-4, max_value=4)


# -- 1. reflections are involutions -------------------------------------------


@MANY
@given(
    root=st.tuples(small_ints, small_ints).filter(lambda r: r != (0, 0)),
    level=fracs,
    point=st.tuples(fracs, fracs),
)
def test_affine_reflection_is_an_involution(root, level, point):
    iso = Hyperplane(root, level).reflection()
    once = iso.apply(point)
    assert iso.apply(once) == Vec(point)
    assert iso.compose(iso) == AffineIsometry.identity(2)


# -- 2. measure conservation of the box-set algebra ---------------------------


def _interval_set(endpoints):
    boxes = []
    for a, b in endpoints:
        lo, hi = min(a, b), max(a, b)
        if lo < hi:
            boxes.append(((lo, hi),))
    if not boxes:
        return DyadicBoxSet.empty(1)
    return DyadicBoxSet(1, tuple(boxes))


interval_sets = st.lists(st.tuples(fracs, fracs), min_size=1, max_size=3).map(_interval_set)


@MANY
@given(a=interval_sets, b=interval_sets)
def test_inclusion_exclusion_of_measure(a, b):
    union = a.union(b)
    inter = a.intersect(b)
    assert union.measure + inter.measure == a.measure + b.measure
    assert a.subtract(b).measure == a.measure - inter.measure
    assert union.measure >= max(a.measure, b.measure)


# -- 3. certificates stay sound under independent re-verification -------------


@MANY
@given(a=interval_sets)
def test_certificates_reverify_and_account_for_all_mass(a):
    target = DyadicBoxSet.from_box((F(0), F(2)))
    cert = translation_congruent(a, target, [F(2)])
    assert cert.verify().ok
    placed = sum(piece.measure for piece, _ in cert.pieces)
    assert placed + cert.source_residual.measure == a.measure
    assert placed + cert.target_residual.measure == target.measure


# -- 4. congruence is an equivalence relation ----------------------------------


def _scattered_copy(shifts):
    """A set translation-congruent to [0, 2): thirds moved by lattice steps."""
    thirds = [(F(0), F(2, 3)), (F(2, 3), F(4, 3)), (F(4, 3), F(2))]
    boxes = [((lo + 2 * k, hi + 2 * k),) for (lo, hi), k in zip(thirds, shifts)]
    return DyadicBoxSet(1, tuple(boxes))


shift_triples = st.tuples(small_ints, small_ints, small_ints)


@MANY
@given(sa=shift_triples, sb=shift_triples)
def test_congruence_equivalence_laws(sa, sb):
    a = _scattered_copy(sa)
    b = _scattered_copy(sb)
    spacing = [F(2)]
    # reflexivity
    refl = translation_congruent(a, a, spacing)
    assert refl.residual_measure == 0
    # symmetry
    ab = translation_congruent(a, b, spacing)
    ba = translation_congruent(b, a, spacing)
    assert ab.residual_measure == 0 and ba.residual_measure == 0
    # transitivity through an explicit middle set: each piece of a, moved
    # into mid and cut by the pieces of mid, moves on into b by the sum of
    # both lattice steps, and these parts certify a ~ b
    mid = DyadicBoxSet.from_box((F(0), F(2)))
    am = translation_congruent(a, mid, spacing)
    mb = translation_congruent(mid, b, spacing)
    pieces = []
    for p1, g1 in am.pieces:
        for p2, g2 in mb.pieces:
            common = g1.apply(p1).intersect(p2)
            if not common.is_empty:
                pieces.append((common.translate([-t for t in g1.translation]),
                               PieceMap.translate([t + u for t, u in zip(g1.translation,
                                                                         g2.translation)])))
    empty = DyadicBoxSet.empty(1)
    assert CongruenceCertificate(a, b, pieces, empty, empty).verify().ok


# -- 5. the graph maps carry each mesh into the next --------------------------


@MANY
@given(
    y_mid=fracs,
    s=st.tuples(
        st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=16),
        st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=16),
    ),
)
def test_graph_maps_send_each_mesh_into_the_next(y_mid, s):
    # the graph of f is the attractor of (x, y) -> (u(x), p(x) + s y) over the
    # cells; on the exact meshes, each map sends depth d into depth d + 1
    f = fif.FractalFunction.from_interpolation([0, F(1, 2), 1], [0, y_mid, 0], list(s))
    depth = 4
    coarse = list(zip(*f.mesh(depth)))
    fine = set(zip(*f.mesh(depth + 1)))
    for u, data, s_i in zip(f.spec.maps, f.spec.data, f.spec._scalings):
        for x, y in coarse:
            image = (u.apply((x,))[0], sum(a * x ** k for (k,), a in data.items()) + s_i * y)
            assert image in fine
