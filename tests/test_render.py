"""Differential tests of the exporters in `waveletsets.render` against the
point-by-point exporters kept in `render_oracle.py`.

All six exporters must give byte-identical text, or raise the same
exception, on meshes and box sets with huge denominators and negative
coordinates, on points whose exact order differs from their float order
(x = 1 and x = 1 + 2^-80 are one float), on one point and on constant
values, on CSV rows that mix int, float and Fraction, and on -0.0 and
subnormal floats.  Boxes a few ulps of the canvas wide make each written
width the difference of two mapped coordinates, so a mapped coordinate off
by one ulp changes the output.
"""

import struct
from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings, strategies as st

import render_oracle as oracle
from waveletsets import fif, render, surfaces, tiles

MANY = settings(max_examples=300, deadline=None)


def outcome(func, *args):
    try:
        return "text", func(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raises", type(exc)


def agree(name, *args):
    assert outcome(getattr(render, name), *args) == outcome(getattr(oracle, name), *args)


# Rationals with denominators up to 2^64, and clusters of them 2^-80 apart,
# which round to one float, so only an exact order tells them apart.
big_fractions = st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 64))
clustered = st.builds(lambda base, k: base + F(k, 2 ** 80),
                      st.sampled_from([F(0), F(1), F(-3, 7), F(5, 2)]), st.integers(-3, 3))
small_fractions = st.builds(F, st.integers(-256, 256), st.integers(1, 64))
coordinates = st.one_of(big_fractions, clustered, st.integers(-50, 50), small_fractions)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
values = st.one_of(big_fractions, st.integers(-10 ** 6, 10 ** 6), finite_floats,
                   st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]))


def any_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


meshes = st.dictionaries(st.tuples(coordinates, coordinates), values, min_size=1, max_size=40)


@MANY
@given(mesh=meshes)
@example(mesh={(F(1), F(5)): F(1), (1 + F(1, 2 ** 80), F(0)): F(2)})
@example(mesh={(F(-3, 2 ** 64), F(7)): F(1, 3)})
@example(mesh={(F(k), F(-k)): F(2, 3) for k in range(5)})
def test_mesh_exporters_match_the_oracle(mesh):
    agree("surface_csv", mesh)
    agree("heightmap_svg", mesh)


@MANY
@given(mesh=st.dictionaries(st.tuples(coordinates, coordinates), st.just(F(7, 3)),
                            min_size=1, max_size=20))
def test_heightmap_of_constant_values_matches_the_oracle(mesh):
    assert render.heightmap_svg(mesh) == oracle.heightmap_svg(mesh)


@MANY
@given(rows=st.lists(st.lists(values, max_size=6), max_size=20),
       header=st.lists(st.sampled_from(["x", "y", "z0"]), max_size=4))
@example(rows=[[1, 0.5, F(1, 3)], [-0.0, 5e-324, F(-2 ** 70, 3 ** 40)]], header=["a", "b", "c"])
@example(rows=[], header=["x"])
def test_csv_text_matches_the_oracle(rows, header):
    agree("csv_text", header, rows)


@MANY
@given(points=st.lists(st.tuples(values, values), max_size=30))
def test_function_csv_matches_the_oracle(points):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    agree("function_csv", xs, ys)


# a drawing with no point at all is the bare canvas, where the oracle raises
# (the `test_an_empty_*` tests below)
@MANY
@given(curves=st.lists(st.lists(st.tuples(st.one_of(coordinates, finite_floats),
                                          st.one_of(coordinates, finite_floats)),
                                max_size=12), min_size=1, max_size=7).filter(any))
@example(curves=[[(F(1, 3), F(2, 3))]])
@example(curves=[[(0.0, -0.0), (5e-324, 1e-323)], []])
def test_polylines_svg_matches_the_oracle(curves):
    agree("polylines_svg", curves)


class Boxes:
    """What `boxes_svg` reads of a box set: its dimension, 2, and its list of boxes."""

    dim = 2

    def __init__(self, boxes):
        self.boxes = boxes


def boxes(corner, size):
    """Boxes of any order, overlapping or not, some a few ulps wide."""
    side = st.one_of(size, st.builds(lambda k: F(k, 2 ** 60), st.integers(1, 3)))
    box = st.builds(lambda x, y, w, h: ((x, x + w), (y, y + h)), corner, corner, side, side)
    return st.lists(box, max_size=15).map(Boxes)


# layers with no box at all are left to the `test_an_empty_*` tests
box_layers = st.lists(st.tuples(boxes(coordinates, st.builds(F, st.integers(0, 3 * 2 ** 20), st.just(2 ** 20))),
                                st.sampled_from(["#1f77b4", "red", "50%"])), min_size=1, max_size=3
                      ).filter(lambda layers: any(b.boxes for b, _ in layers))


@MANY
@given(layers=box_layers)
def test_boxes_svg_matches_the_oracle(layers):
    agree("boxes_svg", layers)


def test_boxes_svg_of_the_planar_fixtures_matches_the_oracle():
    layers = [(tiles.build_w1(6).wavelet_set, "#1f77b4"), (tiles.build_w2(5).wavelet_set, "#d62728")]
    assert render.boxes_svg(layers) == oracle.boxes_svg(layers)


def bare_canvas(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n</svg>\n')


def test_an_empty_box_drawing_is_the_bare_canvas():
    assert render.boxes_svg([(tiles.DyadicBoxSet.empty(2), "#1f77b4")]) == bare_canvas(640, 640)
    assert render.boxes_svg([]) == bare_canvas(640, 640)


def test_an_empty_polyline_drawing_is_the_bare_canvas():
    assert render.polylines_svg([]) == bare_canvas(640, 480)
    assert render.polylines_svg([[]]) == bare_canvas(640, 480)
    assert render.polylines_svg([[], []]) == bare_canvas(640, 480)
    # beside a drawn curve, a curve without points is an empty polyline, as
    # the oracle writes it: the example [[(0.0, -0.0), (5e-324, 1e-323)], []]
    # of test_polylines_svg_matches_the_oracle


def test_an_empty_heightmap_is_the_bare_canvas():
    assert render.heightmap_svg({}) == bare_canvas(640, 640)
    # the CSV exporters of an empty mesh or table write their header
    assert render.surface_csv({}) == "x,y,z\n"
    assert render.csv_text(["a"], []) == "a\n"


def test_fractal_exports_match_the_oracle():
    """What `fif basis` and `surface fixture` write, at a few scalings."""
    for s in (F(1, 2), F(-3, 7), F(2, 5)):
        basis = fif.uniform_cardinal_basis(3, s, "reflection")
        meshes = [b.mesh(4) for b in basis]
        rows = [[x] + [m[1][i] for m in meshes] for i, x in enumerate(meshes[0][0])]
        header = ["x"] + [f"y{k}" for k in range(len(basis))]
        assert render.csv_text(header, rows) == oracle.csv_text(header, rows)
        curves = [list(zip(map(float, xs), map(float, ys))) for xs, ys in meshes]
        assert render.polylines_svg(curves) == oracle.polylines_svg(curves)
        assert render.function_csv(*meshes[0]) == oracle.function_csv(*meshes[0])
        mesh = surfaces.fixed_point(surfaces.triangle_spec(surfaces.fixture("ex5.2").data, s)).mesh(4)
        assert render.surface_csv(mesh) == oracle.surface_csv(mesh)
        assert render.heightmap_svg(mesh) == oracle.heightmap_svg(mesh)


@settings(max_examples=2000, deadline=None)
@given(x=st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(any_double)))
@example(x=-0.0)
@example(x=5e-324)
@example(x=1.7976931348623157e308)
def test_percent_template_formats_like_format(x):
    """The exporters write '%.12g' % x; `fnum` and the oracle format(x, '.12g')."""
    assert "%.12g" % x == format(x, ".12g")


@settings(max_examples=1000, deadline=None)
@given(x=st.one_of(st.floats(-1e15, 1e15), st.integers(-600, 600).map(lambda k: k / 2)))
def test_rint_rounds_like_round(x):
    """The heightmap shades use np.rint where the oracle uses round: both
    round halves to even."""
    assert int(np.rint(np.float64(x))) == round(x)
