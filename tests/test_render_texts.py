"""The exporters of `waveletsets.render` where their formatting deduplicates,
and the `Fraction` slot contract that their float step reads.

`render._texts` formats each distinct float of an export once and spreads
the texts back, so these differential tests use inputs where most values
repeat: the five members of a cardinal basis, which share one x column, and
CSV rows that put -0.0 next to 0.0 and repeat NaN and both infinities.  The
outputs must equal those of the point-by-point exporters of
`render_oracle.py` byte for byte.

`surfaces._coprime` fills the two slots of a `Fraction` directly, and
`render._floats` divides them; both rely on the slots `_numerator` and
`_denominator`, which `fractions.Fraction` keeps on every supported Python.
"""

import decimal
import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import render_oracle as oracle
from waveletsets import fif, render, surfaces

SCALINGS = [F(1, 2), F(-3, 7), F(2, 5)]


def bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def double(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


@pytest.fixture(scope="module", params=SCALINGS, ids=str)
def basis_meshes(request):
    """The depth-6 meshes of the five members of uniform_cardinal_basis(4, s)."""
    return [b.mesh(6) for b in fif.uniform_cardinal_basis(4, request.param)]


def test_basis_csv_matches_the_oracle(basis_meshes):
    header = ["x"] + [f"y{k}" for k in range(len(basis_meshes))]
    rows = [[x] + [m[1][i] for m in basis_meshes] for i, x in enumerate(basis_meshes[0][0])]
    assert len(rows) == 4097
    assert render.csv_text(header, rows) == oracle.csv_text(header, rows)
    floats = [[float(v) for v in row] for row in rows]
    assert render.csv_text(header, floats) == oracle.csv_text(header, floats)


def test_basis_polylines_match_the_oracle(basis_meshes):
    fractions = [list(zip(xs, ys)) for xs, ys in basis_meshes]
    floats = [list(zip(map(float, xs), map(float, ys))) for xs, ys in basis_meshes]
    svg = render.polylines_svg(fractions)
    assert svg == oracle.polylines_svg(fractions)
    assert render.polylines_svg(floats) == svg


def test_surface_exports_of_ex52_match_the_oracle():
    for s in SCALINGS:
        mesh = surfaces.fixed_point(surfaces.triangle_spec(surfaces.fixture("ex5.2").data, s)).mesh(6)
        assert render.surface_csv(mesh) == oracle.surface_csv(mesh)
        assert render.heightmap_svg(mesh) == oracle.heightmap_svg(mesh)


REPEATED = [0.0, -0.0, math.nan, -math.nan, double(0x7FF8000000000001), math.inf, -math.inf,
            5e-324, -5e-324, 1.0, F(1, 3), F(-1, 3), 0, -0.0, F(0), 1e300, -1e-300]


def test_csv_of_repeated_signed_zeros_nans_and_infinities_matches_the_oracle():
    rng = np.random.default_rng(0)
    rows = [[REPEATED[k] for k in rng.integers(0, len(REPEATED), rng.integers(0, 7))]
            for _ in range(1500)]
    text = render.csv_text(["a", "b"], rows)
    assert text == oracle.csv_text(["a", "b"], rows)
    assert {"-0", "0", "nan", "inf", "-inf"} <= set(text.replace("\n", ",").split(","))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(REPEATED), max_size=5), min_size=1, max_size=60))
def test_csv_of_few_distinct_values_matches_the_oracle(rows):
    assert render.csv_text(["x"], rows) == oracle.csv_text(["x"], rows)


# -- the Fraction slot contract ----------------------------------------------


def test_fraction_keeps_the_two_slots_it_is_read_by():
    assert F.__slots__ == ("_numerator", "_denominator")
    f = F(-6, 4)
    assert (f._numerator, f._denominator) == (-3, 2)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(-2 ** 130, 2 ** 130), d=st.integers(1, 2 ** 130))
def test_coprime_makes_the_fraction_that_fraction_makes(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    made = surfaces._coprime(n, d)
    assert type(made) is F
    assert made == F(n, d) and hash(made) == hash(F(n, d)) and str(made) == str(F(n, d))
    assert render._floats([made])[0] == n / d


class Subfraction(F):
    pass


def outcome(convert, value):
    try:
        return "float", bits(convert(value))
    except Exception as exc:  # the exception type is what is compared
        return "raises", type(exc)


@pytest.mark.parametrize("value", [
    F(10 ** 400), F(-(10 ** 400), 3), F(1, 10 ** 400), F(2 ** 1024 - 2 ** 970, 1),
    2 ** 63, 2 ** 64 + 1, -(2 ** 63) - 1, 2 ** 1024, 10 ** 20 + 1,
    True, False,
    np.float32(0.1), np.float64(-0.0), np.int64(-(2 ** 63)), np.uint64(2 ** 64 - 1), np.float16(np.inf),
    Subfraction(1, 3), Subfraction(10 ** 400),
    decimal.Decimal("0.1"), decimal.Decimal("-0"), decimal.Decimal("1e400"),
    None, "0.5", -0.0, math.nan,
], ids=repr)
def test_floats_gives_the_bits_of_float_or_raises_like_it(value):
    assert outcome(lambda v: render._floats([v]).tolist()[0], value) == outcome(float, value)
