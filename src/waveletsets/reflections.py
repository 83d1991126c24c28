"""Root systems, affine reflections, foldable figures, and subdivision.

Coordinates are exact Fractions.  A foldable figure is a convex polytope
whose bounding hyperplanes cut space, by their reflections, into congruent
copies of it; folding a point means reflecting it across violated bounding
hyperplanes until it lands inside the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .geometry import AffineIsometry, AffineMap, Hyperplane, Mat, Vec, _frac, rank

FOLD_GUARD = 100000


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


class RootSystem:
    """A finite reduced crystallographic root system."""

    def __init__(self, roots: Sequence[Sequence]):
        self.roots = [Vec(Fraction(a) for a in r) for r in roots]
        if not self.roots:
            raise ValueError("empty root system")
        self.dim = len(self.roots[0])
        self.validate()

    def validate(self):
        roots = set(self.roots)
        if len(roots) != len(self.roots):
            raise ValueError("repeated roots")
        if rank(self.roots) != self.dim:
            raise ValueError("roots do not span the ambient space")
        if any(all(a == 0 for a in r) for r in self.roots):
            raise ValueError("zero root")
        for r in self.roots:
            if -r not in roots:
                raise ValueError("root system is not symmetric")
            rr = r.dot(r)
            mirror = Hyperplane(r, 0).reflection()
            for s in self.roots:
                rs = s.dot(r)
                # only +-r may be parallel to r: equality in Cauchy-Schwarz
                if s != r and s != -r and rs * rs == rr * s.dot(s):
                    raise ValueError("non-reduced root system")
                if (2 * rs / rr).denominator != 1:
                    raise ValueError("non-crystallographic pairing")
                if mirror.apply(s) not in roots:
                    raise ValueError("not closed under reflections")

    def weyl_group(self) -> list[Mat]:
        """All elements of the finite reflection group, via closure."""
        gens = [Hyperplane(r, 0).reflection().linear for r in self.roots]
        seen = {Mat.identity(self.dim).rows: Mat.identity(self.dim)}
        frontier = [Mat.identity(self.dim)]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = g.matmul(m)
                    if prod.rows not in seen:
                        seen[prod.rows] = prod
                        nxt.append(prod)
            frontier = nxt
        return list(seen.values())


def klein_four_root_system() -> RootSystem:
    """The planar root system with orthogonal root pairs along the axes."""
    return RootSystem([(1, 0), (0, 1), (-1, 0), (0, -1)])


# ---------------------------------------------------------------------------
# foldable figures
# ---------------------------------------------------------------------------


def _box_bounds(vertices: Sequence) -> Optional[tuple]:
    """((lo_1, hi_1), ..., (lo_n, hi_n)) when the vertices are the corners of
    an axis-aligned box, flat sides allowed, and None otherwise."""
    bounds = tuple((min(axis), max(axis)) for axis in zip(*vertices))
    if len(vertices) == 2 ** len(bounds) and set(product(*bounds)) == {tuple(v) for v in vertices}:
        return bounds
    return None


@dataclass(frozen=True)
class FoldableFigure:
    """A convex polytope whose bounding reflections generate its tessellation.

    vertices: its corners, as `Vec`s of Fractions.
    bounding: the hyperplanes of its facets, the mirrors that folding
        reflects across; `fold` orients each by the mean of the vertices,
        which lies strictly inside a figure with interior.
    box: read off the vertices when the figure is made (`_box_bounds`):
        ((lo_1, hi_1), ..., (lo_n, hi_n)) when they are the corners of an
        axis-aligned box, None otherwise.
    """

    vertices: tuple
    bounding: tuple
    box: Optional[tuple] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "box", _box_bounds(self.vertices))

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def box_widths(figure, cells: bool = False) -> list:
    """The side widths of a box figure, the one check of the box figures that
    a fold group, a subdivision and an MRA accept: the figure has a box of at
    least one axis, with cells=True one with a vertex at the origin, and
    every width is positive.
    """
    box = getattr(figure, "box", None)
    if box is None:
        raise ValueError("a box figure is required")
    if not box:
        raise ValueError("the figure box needs at least one axis")
    if cells and any(lo != 0 for lo, _ in box):
        raise ValueError("the figure must have a vertex at the origin")
    widths = [hi - lo for lo, hi in box]
    if any(w <= 0 for w in widths):
        raise ValueError("the figure box needs positive widths")
    return widths


@dataclass
class FoldResult:
    point: Vec
    word: list
    isometry: AffineIsometry  # maps the folded point back to the input


def fold(figure: FoldableFigure, x: Sequence) -> FoldResult:
    """Reflect x across violated bounding hyperplanes until it lies in the figure.

    Each mirror is oriented once, by the side of the mean of the figure's
    vertices, and is violated where the point lies on the other side.
    Returns the folded point, exact Fractions whatever the input's number
    type, the word of bounding-hyperplane indices applied (in application
    order), and the isometry g with g(folded) == x.  A flat figure, whose
    vertex mean lies on a mirror, raises ValueError.
    """
    mean = Vec(sum(c) / len(figure.vertices) for c in zip(*figure.vertices))
    inward = [h.side(mean) for h in figure.bounding]
    if 0 in inward:
        raise ValueError("flat figure: the mean of its vertices lies on a mirror")
    y = Vec(map(_frac, x))
    word: list = []
    back = AffineIsometry.identity(figure.dim)
    for _ in range(FOLD_GUARD):
        violated = next((idx for idx, (h, side) in enumerate(zip(figure.bounding, inward))
                         if h.side(y) * side < 0), None)
        if violated is None:
            return FoldResult(y, word, back)
        mirror = figure.bounding[violated].reflection()
        y = mirror.apply(y)
        word.append(violated)
        # reflections are involutions, so g gains one factor per step
        back = back.compose(mirror)
    raise RuntimeError("folding did not terminate")


# -- built-in figures --------------------------------------------------------


def box_figure(intervals: Sequence[tuple]) -> FoldableFigure:
    """An axis-aligned box figure, the product of the intervals [lo, hi].

    An interval with lo > hi raises ValueError; lo == hi gives a flat figure.
    """
    n = len(intervals)
    intervals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    for lo, hi in intervals:
        if lo > hi:
            raise ValueError(f"the box interval [{lo}, {hi}] is reversed")
    bounding = [Hyperplane([int(k == axis) for k in range(n)], c)
                for axis, (lo, hi) in enumerate(intervals) for c in (lo, hi)]
    return FoldableFigure(tuple(Vec(v) for v in product(*intervals)), tuple(bounding))


def unit_square_figure(n: int = 2) -> FoldableFigure:
    """[0,1]^n; its bounding reflections generate the integer grid tessellation."""
    return box_figure([(0, 1)] * n)


def centered_square_figure() -> FoldableFigure:
    """[-1,1]^2 in pi units, the translation fundamental domain used by the
    planar wavelet-set fixtures."""
    return box_figure([(-1, 1), (-1, 1)])


def right_triangle_figure() -> FoldableFigure:
    """The right isosceles triangle with vertices (0,0), (1,0), (0,1)."""
    verts = (Vec((Fraction(0), Fraction(0))), Vec((Fraction(1), Fraction(0))), Vec((Fraction(0), Fraction(1))))
    bounding = (
        Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
        Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
        Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
    )
    return FoldableFigure(verts, bounding)


# ---------------------------------------------------------------------------
# subdivision into similitudes
# ---------------------------------------------------------------------------


def subdivide(figure: FoldableFigure, kappa: int) -> list[AffineMap]:
    """Similitudes u_1..u_N (N = kappa^n) mapping the figure onto its N cells,
    the grid of boxes 1/kappa its size.

    Only box figures with a vertex at the origin and positive widths are
    supported (`box_widths`).  u_1 is the pure scaling x -> x/kappa, and
    every other u_j is a tessellation reflection composed with u_1, so
    adjacent cells are mirror images.
    kappa = 1 is the trivial subdivision: one cell, the identity.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    widths = box_widths(figure, cells=True)
    n = figure.dim

    maps = []
    # in product order, so the first map is the cell at the origin; an odd
    # index along an axis mirrors the cell along it
    for idx in product(range(kappa), repeat=n):
        rows = [[Fraction((-1) ** k if i == axis else 0, kappa) for i in range(n)]
                for axis, k in enumerate(idx)]
        shift = [Fraction(k + k % 2, kappa) * w for k, w in zip(idx, widths)]
        maps.append(AffineMap(Mat(rows), Vec(shift)))
    return maps
