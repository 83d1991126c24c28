"""Exact linear algebra and affine map primitives."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import selfaffine_oracle as oracle

from waveletsets import geometry
from waveletsets.geometry import (
    AffineIsometry,
    AffineMap,
    Hyperplane,
    Mat,
    Vec,
)


def test_vector_arithmetic_is_exact():
    a = Vec((F(1, 3), F(1, 7)))
    b = Vec((F(2, 3), F(6, 7)))
    assert a + b == Vec((1, 1))
    assert (a - b) + b == a
    assert a.scale(21) == Vec((7, 3))
    assert a.dot(b) == F(2, 9) + F(6, 49)


def test_matrix_inverse_and_determinant():
    m = Mat([[F(1, 2), F(1, 3)], [F(1, 5), F(4)]])
    inv = m.inverse()
    assert m.matmul(inv) == Mat.identity(2)
    assert m.det() * inv.det() == 1


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        Mat([[1, 2], [2, 4]]).inverse()


def test_isometry_requires_orthogonal_linear_part():
    with pytest.raises(ValueError):
        AffineIsometry(Mat([[2, 0], [0, 1]]), Vec((0, 0)))
    # A^T A = diag(1 + 2e-12 + 1e-24, 1) is not I, though a float check with a
    # 1e-10 margin passes it
    with pytest.raises(ValueError, match="not orthogonal"):
        AffineIsometry(Mat([[F(1) + F(1, 10 ** 12), 0], [0, 1]]), Vec((0, 0)))
    assert AffineIsometry(Mat([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]), Vec((0, 0))).linear.nrows == 2


def test_affine_map_rejects_a_non_square_linear_part():
    with pytest.raises(ValueError, match="linear part must be square"):
        AffineMap(Mat([[1, 2]]), (0,))


def test_isometry_composition_and_inverse():
    rot = AffineIsometry(Mat([[0, -1], [1, 0]]), Vec((1, 2)))
    assert rot.compose(rot.inverse()) == AffineIsometry.identity(2)
    assert rot.inverse().apply(rot.apply((F(1, 3), F(2, 5)))) == (F(1, 3), F(2, 5))


def test_affine_map_round_trip():
    m = AffineMap(Mat([[F(1, 2), 0], [F(1, 3), F(2)]]), Vec((F(1, 7), 3)))
    p = (F(5, 11), F(-2, 9))
    assert m.inverse().apply(m.apply(p)) == p
    assert m.compose(m.inverse()).apply(p) == p


def test_hyperplane_reflection_is_exact_involution():
    h = Hyperplane((2, 1), F(3, 2))
    iso = h.reflection()
    x = Vec((F(7, 5), F(-1, 3)))
    assert iso.apply(iso.apply(x)) == x
    on_plane = Vec((F(3, 4), F(0)))
    assert h.side(on_plane) == 0
    assert iso.apply(on_plane) == on_plane
    assert iso.compose(iso) == AffineIsometry.identity(2)


def test_hyperplane_reads_a_float_normal_as_its_exact_fraction():
    h = Hyperplane((0.5, 0.25), 0.75)
    assert h == Hyperplane((F(1, 2), F(1, 4)), F(3, 4)) == Hyperplane((2, 1), 3)
    assert all(type(a) is F for a in (*h.normal, h.offset))
    # a float that is no short decimal keeps its exact binary value
    assert Hyperplane((1, 0.1), 0).normal[1] == F(0.1) != F(1, 10)


# -- one affine-map type against the two classes it replaced ------------------

MAPS = settings(max_examples=300, deadline=None)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
nonzero = fracs.filter(lambda v: v != 0)


@st.composite
def monomial_rows(draw, n, unit=False):
    """A signed permutation matrix (unit=True) or one with nonzero entries."""
    perm = draw(st.permutations(range(n)))
    coeff = st.sampled_from([1, -1]) if unit else nonzero
    rows = [[F(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = F(draw(coeff))
    return rows


@st.composite
def affine_parts(draw, n):
    """(kind, rows, shift): an isometry's parts or a plain map's, whose linear
    part is monomial or general (possibly singular)."""
    kind = draw(st.sampled_from(["isometry", "monomial", "general"]))
    if kind == "general":
        rows = draw(st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        rows = draw(monomial_rows(n, unit=kind == "isometry"))
    return kind, rows, draw(st.lists(fracs, min_size=n, max_size=n))


def _outcome(fn):
    try:
        return "ok", fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _pair(kind, rows, shift):
    """The same map in the library and in the oracle."""
    cls = "AffineIsometry" if kind == "isometry" else "AffineMap"
    args = (Mat(rows), Vec(shift))
    return getattr(geometry, cls)(*args), getattr(oracle, cls)(*args)


def _same(new, old):
    """One map of the library and one of the oracle agree in every respect
    that does not name the module."""
    assert type(new).__name__ == type(old).__name__
    assert new.key() == old.key() and hash(new) == hash(old) and repr(new) == repr(old)
    assert new.linear.nrows == old.dim


@MAPS
@given(n=st.integers(1, 3), data=st.data())
def test_affine_maps_match_the_separate_classes(n, data):
    parts = [data.draw(affine_parts(n), label=f"map{i}") for i in range(2)]
    if data.draw(st.booleans(), label="repeat"):
        parts[1] = parts[0]
    (f, f_old), (g, g_old) = (_pair(*p) for p in parts)
    _same(f, f_old)
    x = data.draw(st.lists(fracs, min_size=n, max_size=n), label="x")
    assert f.apply(x) == f_old.apply(x)
    assert (f == g) == (f_old == g_old) and (f != g) == (f_old != g_old)
    # an isometry never equals a plain map with the same parts, either way round
    if type(f) is geometry.AffineIsometry:
        plain = geometry.AffineMap(f.linear, f.shift)
        assert f != plain and plain != f and not f == plain

    both = type(f) is type(g) is geometry.AffineIsometry
    comp = f.compose(g)
    assert type(comp) is (geometry.AffineIsometry if both else geometry.AffineMap)
    assert comp.key() == f_old.compose(g_old).key()
    assert comp.apply(x) == f.apply(g.apply(x))

    inv, inv_old = _outcome(f.inverse), _outcome(f_old.inverse)
    if inv[0] == "ok":
        assert inv_old[0] == "ok"
        _same(inv[1], inv_old[1])
        assert inv[1].apply(f.apply(x)) == Vec(x)
    else:
        assert inv == inv_old == (ValueError, "singular matrix")


@MAPS
@given(nrows=st.integers(1, 3), ncols=st.integers(1, 3), data=st.data())
def test_affine_map_errors_match_the_separate_classes(nrows, ncols, data):
    # any shape, any entries, and shifts of any length; a non-square linear
    # part, which the separate AffineMap accepted, is refused by both now
    row = st.lists(fracs, min_size=ncols, max_size=ncols)
    linear = Mat(data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="rows"))
    shift = data.draw(st.lists(fracs, min_size=1, max_size=3), label="shift")
    for cls in ("AffineIsometry", "AffineMap"):
        new = _outcome(lambda: getattr(geometry, cls)(linear, Vec(shift)))
        if nrows != ncols:
            assert new == (ValueError, "linear part must be square")
            continue
        old = _outcome(lambda: getattr(oracle, cls)(linear, Vec(shift)))
        assert new[0] == old[0] and (new[0] == "ok" or new == old)
        if new[0] == "ok":
            _same(new[1], old[1])
            assert _outcome(new[1].inverse)[0] == _outcome(old[1].inverse)[0]


def test_affine_map_errors_keep_their_messages():
    bad = [
        (lambda cls: cls(Mat([[1, 0, 0], [0, 1, 0]]), Vec((0, 0))), "AffineIsometry",
         "linear part must be square"),
        (lambda cls: cls(Mat([[2, 0], [0, 1]]), Vec((0, 0))), "AffineIsometry",
         "linear part is not orthogonal"),
        (lambda cls: cls(Mat([[1, 0], [0, 1]]), Vec((0, 0, 0))), "AffineIsometry",
         "shift dimension mismatch"),
        (lambda cls: cls(Mat([[1, 0], [0, 1]]), Vec((0,))), "AffineMap",
         "shift dimension mismatch"),
        (lambda cls: cls(Mat([[1, 2], [2, 4]]), Vec((0, 0))).inverse(), "AffineMap",
         "singular matrix"),
    ]
    for make, cls, message in bad:
        for module in (geometry, oracle):
            with pytest.raises(ValueError, match=message):
                make(getattr(module, cls))


def test_isometry_constructors_and_identity():
    for n, shift in product((1, 2, 3), (None, (F(1, 3), F(-2), F(0)))):
        new = (geometry.AffineIsometry.identity(n) if shift is None
               else geometry.AffineIsometry(Mat.identity(n), shift[:n]))
        old = (oracle.AffineIsometry.identity(n) if shift is None
               else oracle.AffineIsometry.translation(shift[:n]))
        _same(new, old)
        assert (new == geometry.AffineIsometry.identity(n)) == old.is_identity()
        assert type(new.compose(new.inverse())) is geometry.AffineIsometry
        assert new.compose(new.inverse()) == geometry.AffineIsometry.identity(n)
