"""Reference exporters for the differential tests of `waveletsets.render`.

This is `render` as it was before its vectorized exporters: every value goes
through `fnum` (one `float` and one `format` call each), mesh points are
ordered by `sorted(mesh)` on `Fraction` tuples, and `_Canvas` maps one point
at a time.  The code below is verbatim, except that `heightmap_svg` lost its
width and height options with the library's, and draws on its fixed
640 x 640 canvas.  `tests/test_render.py` requires the library's exporters to
give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def fnum(v) -> str:
    return format(float(v), ".12g")


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fnum(v) for v in row))
    return "\n".join(lines) + "\n"


def _bbox(points):
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    return x0, x1 - x0 or 1.0, y0, y1 - y0 or 1.0


class _Canvas:
    def __init__(self, points, width=640, height=480, margin=24):
        self.x0, self.dx, self.y0, self.dy = _bbox(points)
        self.w, self.h, self.m = width, height, margin

    def map(self, p):
        x = self.m + (float(p[0]) - self.x0) / self.dx * (self.w - 2 * self.m)
        y = self.h - self.m - (float(p[1]) - self.y0) / self.dy * (self.h - 2 * self.m)
        return x, y

    def open_tag(self):
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">')


def polylines_svg(curves: Sequence[Sequence], width=640, height=480) -> str:
    """Curves are sequences of (x, y) points, drawn in palette order."""
    allpts = [p for c in curves for p in c]
    cv = _Canvas(allpts, width, height)
    parts = [cv.open_tag()]
    for k, curve in enumerate(curves):
        pts = " ".join(f"{fnum(x)},{fnum(y)}" for x, y in map(cv.map, curve))
        color = PALETTE[k % len(PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def boxes_svg(layers: Sequence, width=640, height=640) -> str:
    """Layers are (box set, fill color); boxes drawn as rectangles."""
    corners = []
    for boxset, _ in layers:
        for box in boxset.boxes:
            corners.append(tuple(lo for lo, _ in box))
            corners.append(tuple(hi for _, hi in box))
    cv = _Canvas(corners, width, height)
    parts = [cv.open_tag()]
    for boxset, color in layers:
        for box in sorted(boxset.boxes):
            (x0, y0) = cv.map((box[0][0], box[1][1]))
            (x1, y1) = cv.map((box[0][1], box[1][0]))
            parts.append(
                f'<rect x="{fnum(x0)}" y="{fnum(y0)}" width="{fnum(x1 - x0)}" '
                f'height="{fnum(y1 - y0)}" fill="{color}" fill-opacity="0.6" '
                f'stroke="#333333" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heightmap_svg(mesh: dict) -> str:
    """Mesh point cloud shaded by value, from low (dark) to high (light)."""
    pts = sorted(mesh)
    vals = [float(mesh[p]) for p in pts]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    cv = _Canvas(pts, 640, 640)
    side = max(2.0, (640 - 2 * cv.m) / max(1.0, len(set(p[0] for p in pts))))
    parts = [cv.open_tag()]
    for p, v in zip(pts, vals):
        x, y = cv.map(p)
        shade = int(round(32 + 223 * (v - lo) / span))
        color = f"#{shade:02x}{shade:02x}{min(255, shade + 24):02x}"
        parts.append(
            f'<rect x="{fnum(x - side / 2)}" y="{fnum(y - side / 2)}" '
            f'width="{fnum(side)}" height="{fnum(side)}" fill="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def surface_csv(mesh: dict) -> str:
    rows = [(p[0], p[1], mesh[p]) for p in sorted(mesh)]
    return csv_text(("x", "y", "z"), rows)


def function_csv(xs: Sequence, ys: Sequence) -> str:
    return csv_text(("x", "y"), list(zip(xs, ys)))
