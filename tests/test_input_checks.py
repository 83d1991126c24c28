"""Public input checks that no other test reaches, each with its message.

The CLI's own argument bounds stop the `MRAConfig` cases before they reach
the library, so only a direct call sees those messages.
"""

import re
from fractions import Fraction as F

import pytest

from waveletsets import mra, surfaces
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import (
    RootSystem,
    box_figure,
    centered_square_figure,
    right_triangle_figure,
)
from waveletsets.tiles import DyadicBoxSet, GroupSpec


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


@pytest.mark.parametrize("call, error, message", [
    # the MRA configuration
    (lambda: mra.MRAConfig(figure=right_triangle_figure()), ValueError,
     "the base figure must be a box"),
    (lambda: mra.MRAConfig(figure=centered_square_figure()), ValueError,
     "the base figure must have a vertex at the origin"),
    (lambda: mra.MRAConfig(kappa=1), ValueError, "kappa must be at least 2"),
    (lambda: mra.MRAConfig(degree=-1), ValueError, "degree must be nonnegative"),
    (lambda: mra.MRAConfig(scaling=F(-1)), ValueError, "vertical scaling must satisfy |s| < 1"),
    # group specifications, all refused when they are made
    (lambda: GroupSpec("rotation"), ValueError, "unknown group kind 'rotation'"),
    (lambda: GroupSpec("dilation", kappa=1), ValueError, "dilation group needs kappa > 1"),
    (lambda: GroupSpec("dilation"), ValueError, "dilation group needs kappa > 1"),
    (lambda: GroupSpec("weyl"), ValueError, "reflection group needs a figure"),
    (lambda: GroupSpec("weyl", figure=right_triangle_figure()), ValueError,
     "a box figure is required"),
    (lambda: GroupSpec("weyl", figure=box_figure("flat", [(0, 1), (2, 2)])), ValueError,
     "the figure box needs positive widths"),
    (lambda: GroupSpec("translation", spacings=(2, 0)), ValueError,
     "translation lattice needs positive spacings"),
    # root systems
    (lambda: RootSystem([]), ValueError, "empty root system"),
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
    # box sets
    (lambda: DyadicBoxSet.from_json(_json_in("degree")), ValueError,
     "expected coordinates in pi units"),
])
def test_public_input_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
