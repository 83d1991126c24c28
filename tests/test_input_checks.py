"""Public input checks that no other test reaches, each with its message.

The CLI's own argument bounds stop the `MRAConfig` cases before they reach
the library, so only a direct call sees those messages.
"""

import json
import re
from fractions import Fraction as F

import pytest

from waveletsets import fif, mra, render, surfaces
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import (
    RootSystem,
    box_figure,
    centered_square_figure,
    right_triangle_figure,
    subdivide,
    unit_square_figure,
)
from waveletsets.tiles import (
    DyadicBoxSet,
    GroupSpec,
    build_w1,
    build_w2,
    construct_wavelet_set,
    shannon_set,
)


def _disagreeing_fixture():
    spec = surfaces.fixture("ex5.2")
    data = list(spec.data)
    data[2] = {**data[2], (0, 0): F(1)}
    return spec.with_data(data)


def _overlapping_thirds():
    # two cells of a third each leave the middle third of [0, 1] uncovered
    third = Mat([[F(1, 3)]])
    spec = surfaces.SurfaceSpec(((0,), (1,)), [AffineMap(third, Vec((0,))),
                                               AffineMap(third, Vec((F(2, 3),)))],
                                [{}, {}], (0, 0))
    return surfaces.FractalSurface(spec)


def _json_in(unit):
    return DyadicBoxSet.from_box((0, 1)).to_json().replace('"pi"', f'"{unit}"')


def _box_json(**changes):
    """The JSON of [0, 1) with keys replaced, or left out where the value is None."""
    data = {**json.loads(_json_in("pi")), **changes}
    return json.dumps({k: v for k, v in data.items() if v is not None})


def _bank_json(**changes):
    """The JSON of a one-word bank with keys replaced, or left out where the value is None."""
    data = {"P": [], "Q": [], "words": [{"linear": [["1"]], "shift": ["0"]}], **changes}
    return json.dumps({k: v for k, v in data.items() if v is not None})


@pytest.mark.parametrize("call, error, message", [
    # the MRA configuration
    (lambda: mra.MRAConfig(figure=right_triangle_figure()), ValueError,
     "a box figure is required"),
    (lambda: mra.MRAConfig(figure=centered_square_figure()), ValueError,
     "the figure must have a vertex at the origin"),
    (lambda: mra.MRAConfig(kappa=1), ValueError, "kappa must be at least 2"),
    (lambda: mra.MRAConfig(degree=-1), ValueError, "degree must be nonnegative"),
    (lambda: mra.MRAConfig(scaling=F(-1)), ValueError, "vertical scaling must satisfy |s| < 1"),
    (lambda: mra.MRAConfig(figure=unit_square_figure(0)), ValueError,
     "the figure box needs at least one axis"),
    # group specifications, all refused when they are made
    (lambda: GroupSpec("rotation"), ValueError, "unknown group kind 'rotation'"),
    (lambda: GroupSpec("dilation", kappa=1), ValueError, "dilation group needs kappa > 1"),
    (lambda: GroupSpec("dilation"), ValueError, "dilation group needs kappa > 1"),
    (lambda: GroupSpec("weyl"), ValueError, "reflection group needs a figure"),
    (lambda: GroupSpec("weyl", figure=right_triangle_figure()), ValueError,
     "a box figure is required"),
    (lambda: GroupSpec("weyl", figure=box_figure([(0, 1), (2, 2)])), ValueError,
     "the figure box needs positive widths"),
    (lambda: GroupSpec("translation", spacings=(2, 0)), ValueError,
     "translation lattice needs positive spacings"),
    # box figures
    (lambda: box_figure([(0, -1)]), ValueError, "the box interval [0, -1] is reversed"),
    (lambda: box_figure([(0, 1), (F(1, 2), F(1, 3))]), ValueError,
     "the box interval [1/2, 1/3] is reversed"),
    # root systems
    (lambda: RootSystem([]), ValueError, "empty root system"),
    (lambda: RootSystem([(1, 0), (-1, 0)]), ValueError, "roots do not span the ambient space"),
    (lambda: RootSystem([(1, 0), (0, 1), (-1, 0)]), ValueError, "root system is not symmetric"),
    (lambda: RootSystem([(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)]), ValueError,
     "non-reduced root system"),
    (lambda: RootSystem([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 0)]), ValueError,
     "repeated roots"),
    (lambda: RootSystem([(1, 2), (-1, -2), (1, 0), (-1, 0)]), ValueError,
     "non-crystallographic pairing"),
    (lambda: RootSystem([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]), ValueError,
     "not closed under reflections"),
    # surfaces
    (lambda: surfaces.fixed_point(_disagreeing_fixture()), ValueError,
     "data functions disagree on 6 face samples"),
    (lambda: surfaces.fixed_point(surfaces.fixture("ex5.2")).value_at((F(1, 1009), F(1, 1013))),
     ArithmeticError, "pull-back orbit did not close at this point"),
    (lambda: surfaces.moments(_overlapping_thirds(), 1), ValueError,
     "cells must tile the domain"),
    # box sets, fixtures and the constructor
    (lambda: DyadicBoxSet.from_json(_json_in("degree")), ValueError,
     "expected coordinates in pi units"),
    (lambda: render.boxes_svg([(shannon_set(), "red")]), ValueError,
     "boxes_svg draws 2-D box sets, not a 1-D one"),
    (lambda: render.boxes_svg([(DyadicBoxSet.from_box((0, 1), (0, 1), (0, 1)), "red")]),
     ValueError, "boxes_svg draws 2-D box sets, not a 3-D one"),
    # JSON texts, which come from outside the program
    (lambda: DyadicBoxSet.from_json("[1]"), ValueError, "expected a JSON object, not list"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=None)), ValueError, "missing key 'boxes'"),
    (lambda: DyadicBoxSet.from_json(_box_json(dim="1")), ValueError,
     "dim must be an integer, not '1'"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [[0, 0]], "hi": [[1, 1]]}])),
     ValueError, "zero denominator in 0/0"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"hi": [[1, 1]]}])), ValueError,
     "missing key 'lo' at boxes[0]"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [[0, 1]]}])), ValueError,
     "missing key 'hi' at boxes[0]"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=5)), ValueError,
     "expected a JSON array at boxes, not int"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": 3, "hi": [[1, 1]]}])), ValueError,
     "expected a JSON array at boxes[0].lo, not int"),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [[1.5, 2]], "hi": [[2, 1]]}])),
     ValueError, 'expected a fraction "p/q" or [p, q] at boxes[0].lo[0], not [1.5, 2]'),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [["1", 2]], "hi": [[2, 1]]}])),
     ValueError, 'expected a fraction "p/q" or [p, q] at boxes[0].lo[0], not ["1", 2]'),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [[True, 2]], "hi": [[2, 1]]}])),
     ValueError, 'expected a fraction "p/q" or [p, q] at boxes[0].lo[0], not [true, 2]'),
    (lambda: DyadicBoxSet.from_json(_box_json(boxes=[{"lo": [[0, 1]], "hi": [[1, 2, 3]]}])),
     ValueError, 'expected a fraction "p/q" or [p, q] at boxes[0].hi[0], not [1, 2, 3]'),
    (lambda: mra.FilterBank.from_json("[1]"), ValueError, "expected a JSON object, not list"),
    (lambda: mra.FilterBank.from_json(_bank_json(words=None)), ValueError,
     "missing key 'words'"),
    (lambda: mra.FilterBank.from_json(_bank_json(words=[{"linear": [["1/0"]], "shift": ["0"]}])),
     ValueError, "zero denominator in 1/0"),
    (lambda: mra.FilterBank.from_json(_bank_json(words=[{"linear": [["1"]]}])), ValueError,
     "missing key 'shift' at words[0]"),
    (lambda: mra.FilterBank.from_json(_bank_json(words=5)), ValueError,
     "expected a JSON array at words, not int"),
    (lambda: mra.FilterBank.from_json(_bank_json(P=5)), ValueError,
     "expected a JSON array at P, not int"),
    (lambda: mra.FilterBank.from_json(_bank_json(P=[[[1.0, 0.0], [0.0]]])), ValueError,
     "expected each P and Q in rows of one length"),
    (lambda: build_w1(3, tail_terms=-1), ValueError, "tail_terms must be at least 0"),
    (lambda: build_w2(3, tail_terms=-3), ValueError, "tail_terms must be at least 0"),
    (lambda: construct_wavelet_set(DyadicBoxSet.from_box((-1, 1)), shannon_set(), [2],
                                   max_iterations=-1), ValueError,
     "max_iterations must be at least 0"),
    # uniform layouts on [0, n]
    (lambda: fif.uniform_cardinal_basis(0, F(1, 2), "translation"), ValueError,
     "n must be at least 1"),
    (lambda: fif.uniform_cardinal_basis(0, F(1, 2), "reflection"), ValueError,
     "n must be at least 1"),
])
def test_public_input_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: mra.MRAConfig(figure=box_figure([(0, 0)])),
    lambda: mra.MRAConfig(figure=box_figure([(0, 1), (0, 0)])),
    lambda: subdivide(box_figure([(0, 0)]), 2),
    lambda: subdivide(box_figure([(0, 1), (0, 0)]), 2),
], ids=["MRAConfig-1D", "MRAConfig-2D", "subdivide-1D", "subdivide-2D"])
def test_a_flat_box_is_refused_with_the_group_spec_message(call):
    # a flat box is a figure, but it has no cells to subdivide or scale
    with pytest.raises(ValueError, match="^the figure box needs positive widths$"):
        call()


def test_max_iterations_zero_runs_one_round():
    res = construct_wavelet_set(DyadicBoxSet.from_box((-1, 1)), shannon_set(), [2],
                                epsilon=1, max_iterations=0)
    assert res.iterations == 0 and len(res.residual_history) == 1


@pytest.mark.parametrize("figure, message", [
    (right_triangle_figure(), "a box figure is required"),
    ([(0, 1), (0, 1)], "a box figure is required"),
    (box_figure([(0, 1), (0, 0)]), "the figure box needs positive widths"),
], ids=["triangle", "intervals", "flat-box"])
@pytest.mark.parametrize("check", [
    lambda figure: GroupSpec("weyl", figure=figure),
    lambda figure: subdivide(figure, 2),
    lambda figure: mra.MRAConfig(figure=figure),
], ids=["GroupSpec", "subdivide", "MRAConfig"])
def test_every_box_figure_check_refuses_a_figure_with_one_message(check, figure, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(figure)


@pytest.mark.parametrize("check", [lambda figure: subdivide(figure, 2),
                                   lambda figure: mra.MRAConfig(figure=figure)],
                         ids=["subdivide", "MRAConfig"])
def test_cells_need_a_box_corner_at_the_origin(check):
    # a fold group takes the same box anywhere
    GroupSpec("weyl", figure=centered_square_figure())
    with pytest.raises(ValueError, match="^the figure must have a vertex at the origin$"):
        check(centered_square_figure())
