"""Deterministic CSV and schematic SVG exporters.

All floats are written with 12 significant digits so identical inputs give
byte-identical files.

The exporters work on whole columns: each value becomes a float once, mesh
points and boxes are ordered by exact integer keys, coordinates are mapped
as numpy float64 arrays, each distinct float of a column is formatted once
with '%.12g' (`_texts`), and the rows are filled with those texts through
one '%s' template.  Equal float bits give equal texts, so formatting each
distinct value once changes no byte.  The written bytes depend on the
operation order of the canvas map, m + (x - x0) / dx * (w - 2m), and of the
shades; `tests/test_render.py` pins them against the point-by-point
exporters of `tests/render_oracle.py`.  Mesh and box coordinates must be
finite.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def fnum(v) -> str:
    return format(float(v), ".12g")


def _floats(values) -> np.ndarray:
    """float(v) of every value, made once: a float as it is, a Fraction by
    one int true division of its two slots (the slots `Fraction` keeps and
    `surfaces._coprime` fills), which is correctly rounded and so equals
    float(v), and any other value by float(v), so None raises TypeError
    where np.array(values, dtype=float) would make it nan."""
    return np.array([v if type(v) is float else
                     v._numerator / v._denominator if type(v) is Fraction else float(v)
                     for v in values], dtype=float)


def _texts(column: np.ndarray) -> list:
    """'%.12g' % x of every float of a float64 column.  Python formats each
    distinct bit pattern once (so -0.0 and 0.0 keep their own texts); numpy
    finds them and spreads the texts back."""
    distinct, where = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(["%.12g" % x for x in distinct.view(float).tolist()], dtype=object)
    return texts[where].tolist()


def _integer_keys(values) -> list:
    """Integers in the exact order of the rational values: the numerators
    over one common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in ratios}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return [n * scale[d] for n, d in ratios]


def _order(key_columns) -> list:
    """The permutation that sorts the rows of the key columns, column after
    column as tuples compare."""
    rows = list(zip(*key_columns))
    return sorted(range(len(rows)), key=rows.__getitem__)


def _interleave(*columns) -> list:
    """The values of equally long columns, row after row, in one list."""
    k = len(columns)
    flat = [None] * (k * len(columns[0]))
    for j, col in enumerate(columns):
        flat[j::k] = col
    return flat


def _rows(template: str, *columns) -> str:
    """template once per row of the columns, filled with that row."""
    return (template * len(columns[0])) % tuple(_interleave(*columns))


def _extent(values: np.ndarray):
    """(least value, span) of a column, a span of 0 read as 1.0; an empty
    column, a drawing with nothing in it, spans [0, 1]."""
    if not values.size:
        return 0.0, 1.0
    lo = float(values.min())
    return lo, float(values.max()) - lo or 1.0


class _Canvas:
    """Maps float64 columns of x and y into the viewport, inside a 24 px margin."""

    def __init__(self, xs, ys, width, height):
        self.x0, self.dx = _extent(xs)
        self.y0, self.dy = _extent(ys)
        self.w, self.h, self.m = width, height, 24

    @np.errstate(over="ignore", invalid="ignore")  # as silent as float arithmetic
    def map(self, xs, ys):
        x = self.m + (xs - self.x0) / self.dx * (self.w - 2 * self.m)
        y = (self.h - self.m) - (ys - self.y0) / self.dy * (self.h - 2 * self.m)
        return x, y

    def open_tag(self):
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">\n')


@functools.lru_cache(maxsize=16)
def _csv_row(width: int) -> str:
    return ",".join(["%s"] * width) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    rows = list(rows)
    template = "".join(map(_csv_row, map(len, rows)))
    # made a tuple at once, so no list of the texts is held beside it
    texts = tuple(_texts(_floats([v for row in rows for v in row])))
    return ",".join(header) + "\n" + template % texts


def polylines_svg(curves: Sequence[Sequence]) -> str:
    """Curves are sequences of (x, y) points, drawn in palette order."""
    xs = _floats([p[0] for c in curves for p in c])
    ys = _floats([p[1] for c in curves for p in c])
    cv = _Canvas(xs, ys, 640, 480)
    xs, ys = cv.map(xs, ys)
    # the members of a basis share their x, so x is formatted for all curves
    # at once; a y text is held only while its curve is written
    xs = _texts(xs)
    parts = [cv.open_tag()]
    end = 0
    # a drawing with no point at all is the bare canvas; a curve without
    # points beside drawn ones is an empty polyline
    for k, curve in enumerate(curves if len(xs) else ()):
        at, end = slice(end, end + len(curve)), end + len(curve)
        pts = _rows("%s,%s ", xs[at], _texts(ys[at]))[:-1]
        color = PALETTE[k % len(PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _sorted_boxes(boxes) -> list:
    """The boxes in tuple order, by exact integer keys on the two ends of
    each axis."""
    boxes = list(boxes)
    ends = zip(*[[end for side in box for end in side] for box in boxes])
    return [boxes[i] for i in _order(map(_integer_keys, ends))]


def boxes_svg(layers: Sequence) -> str:
    """Layers are (box set, fill color); boxes drawn as rectangles."""
    layer_boxes = [_sorted_boxes(boxset.boxes) for boxset, _ in layers]
    lo_x, hi_x, lo_y, hi_y = (_floats([box[axis][side] for boxes in layer_boxes for box in boxes])
                              for axis in (0, 1) for side in (0, 1))
    cv = _Canvas(np.concatenate((lo_x, hi_x)), np.concatenate((lo_y, hi_y)), 640, 640)
    x0, y0 = cv.map(lo_x, hi_y)
    x1, y1 = cv.map(hi_x, lo_y)
    columns = [_texts(col) for col in (x0, y0, x1 - x0, y1 - y0)]
    parts = [cv.open_tag()]
    end = 0
    for boxes, (_, color) in zip(layer_boxes, layers):
        at, end = slice(end, end + len(boxes)), end + len(boxes)
        fill = f"{color}".replace("%", "%%")
        template = ('<rect x="%s" y="%s" width="%s" height="%s" '
                    f'fill="{fill}" fill-opacity="0.6" stroke="#333333" stroke-width="0.5"/>\n')
        parts.append(_rows(template, *(col[at] for col in columns)))
    parts.append("</svg>\n")
    return "".join(parts)


def _sorted_mesh(mesh: dict):
    """The float columns x, y and value of the mesh points, the points in
    tuple order, and the number of distinct x."""
    coords = list(zip(*mesh)) or [(), ()]
    keys = [_integer_keys(c) for c in coords]
    order = _order(keys)
    return [_floats(c)[order] for c in (coords[0], coords[1], mesh.values())], len(set(keys[0]))


@np.errstate(over="ignore", invalid="ignore")
def heightmap_svg(mesh: dict) -> str:
    """Mesh point cloud shaded by value, from low (dark) to high (light)."""
    (xs, ys, vals), distinct_x = _sorted_mesh(mesh)
    lo, span = _extent(vals)
    cv = _Canvas(xs, ys, 640, 640)
    side = max(2.0, (cv.w - 2 * cv.m) / max(1.0, distinct_x))
    xs, ys = cv.map(xs, ys)
    shade = 32 + 223 * (vals - lo) / span
    if not np.isfinite(shade).all():
        # the error round() gives on the first NaN or infinite shade
        round(float(shade[~np.isfinite(shade)][0]))
    shade = np.rint(shade).astype(np.int64).tolist()
    template = (f'<rect x="%s" y="%s" width="{side:.12g}" height="{side:.12g}" '
                'fill="#%02x%02x%02x"/>\n')
    body = _rows(template, *map(_texts, (xs - side / 2, ys - side / 2)), shade, shade,
                 [min(255, s + 24) for s in shade])
    return cv.open_tag() + body + "</svg>\n"


def surface_csv(mesh: dict) -> str:
    (xs, ys, vals), _ = _sorted_mesh(mesh)
    return "x,y,z\n" + _rows(_csv_row(3), *map(_texts, (xs, ys, vals)))


def function_csv(xs: Sequence, ys: Sequence) -> str:
    return csv_text(("x", "y"), list(zip(xs, ys)))
