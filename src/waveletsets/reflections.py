"""Root systems, affine reflections, foldable figures, and subdivision.

Coordinates are exact Fractions.  A foldable figure is a convex polytope
whose bounding hyperplanes cut space, by their reflections, into congruent
copies of it; folding a point means reflecting it across violated bounding
hyperplanes until it lands inside the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import AffineIsometry, AffineMap, Hyperplane, Mat, Vec, rank

FOLD_GUARD = 100000


# ---------------------------------------------------------------------------
# reflections attached to roots
# ---------------------------------------------------------------------------


def affine_reflection(root: Sequence, level) -> AffineIsometry:
    """The reflection across {y : <y, root> = level}, as a composable isometry.

    It is the linear reflection followed by a translation along the coroot:
    rho_{r,k}(x) = rho_r(x) + k * 2r / <r, r>.
    """
    return Hyperplane(Vec(Fraction(a) for a in root), level).reflection()


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
        for r in self.roots:
            if Vec(-a for a in r) not in roots:
                raise ValueError("root system is not symmetric")
            rr = r.dot(r)
            for s in self.roots:
                # only +-r may be parallel to r
                if s != r and s != Vec(-a for a in r):
                    cross_zero = all(
                        r[i] * s[j] == r[j] * s[i]
                        for i in range(self.dim)
                        for j in range(self.dim)
                    )
                    if cross_zero:
                        raise ValueError("non-reduced root system")
                cartan = 2 * s.dot(r) / rr
                if cartan.denominator != 1:
                    raise ValueError("non-crystallographic pairing")
                if affine_reflection(r, 0).apply(s) not in roots:
                    raise ValueError("not closed under reflections")

    def weyl_group(self) -> list[Mat]:
        """All elements of the finite reflection group, via closure."""
        gens = []
        for r in self.roots:
            refl = Hyperplane(r, Fraction(0)).reflection()
            gens.append(refl.linear)
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


@dataclass(frozen=True)
class FoldableFigure:
    """A convex figure whose bounding reflections generate its tessellation.

    bounding: oriented hyperplanes of the figure itself (folding reflects
        across these); interior(theta) is strictly inside all of them.
    box: for axis-aligned box figures, ((lo_1, hi_1), ..., (lo_n, hi_n)).
    """

    name: str
    vertices: tuple
    bounding: tuple
    theta: Vec
    box: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return len(self.theta)

    def _inside(self, h: Hyperplane, x: Vec):
        """Positive inside, negative outside, zero on the plane."""
        sign = h.side(self.theta)
        if sign == 0:
            raise ValueError("theta lies on a bounding hyperplane")
        value = h.side(x)
        return value if sign > 0 else -value


@dataclass
class FoldResult:
    point: Vec
    word: list
    isometry: AffineIsometry  # maps the folded point back to the input


def fold(figure: FoldableFigure, x: Sequence) -> FoldResult:
    """Reflect x across violated bounding hyperplanes until it lies in the figure.

    Returns the folded point, the word of bounding-hyperplane indices applied
    (in application order), and the isometry g with g(folded) == x.
    """
    y = Vec(Fraction(a) if isinstance(a, int) else a for a in x)
    word: list = []
    back = AffineIsometry.identity(figure.dim)
    for _ in range(FOLD_GUARD):
        violated = None
        for idx, h in enumerate(figure.bounding):
            if figure._inside(h, y) < 0:
                violated = idx
                break
        if violated is None:
            return FoldResult(y, word, back)
        mirror = figure.bounding[violated].reflection()
        y = mirror.apply(y)
        word.append(violated)
        # reflections are involutions, so g gains one factor per step
        back = back.compose(mirror)
    raise RuntimeError("folding did not terminate")


# -- built-in figures --------------------------------------------------------


def box_figure(name: str, intervals: Sequence[tuple]) -> FoldableFigure:
    """An axis-aligned box figure."""
    n = len(intervals)
    intervals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    bounding = []
    for axis, (lo, hi) in enumerate(intervals):
        e = [Fraction(0)] * n
        e[axis] = Fraction(1)
        bounding.append(Hyperplane(e, lo))
        bounding.append(Hyperplane(e, hi))
    vertices = [()]
    for lo, hi in intervals:
        vertices = [v + (c,) for v in vertices for c in (lo, hi)]
    return FoldableFigure(
        name=name,
        vertices=tuple(Vec(v) for v in vertices),
        bounding=tuple(bounding),
        theta=Vec((lo + hi) / 2 for lo, hi in intervals),
        box=intervals,
    )


def unit_square_figure(n: int = 2) -> FoldableFigure:
    """[0,1]^n; its bounding reflections generate the integer grid tessellation."""
    return box_figure("unit-square", [(0, 1)] * n)


def centered_square_figure() -> FoldableFigure:
    """[-1,1]^2 in pi units, the translation fundamental domain used by the
    planar wavelet-set fixtures."""
    return box_figure("centered-square", [(-1, 1), (-1, 1)])


def right_triangle_figure() -> FoldableFigure:
    """The right isosceles triangle with vertices (0,0), (1,0), (0,1)."""
    verts = (Vec((Fraction(0), Fraction(0))), Vec((Fraction(1), Fraction(0))), Vec((Fraction(0), Fraction(1))))
    bounding = (
        Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
        Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
        Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
    )
    return FoldableFigure(
        name="right-triangle",
        vertices=verts,
        bounding=bounding,
        theta=Vec((Fraction(1, 4), Fraction(1, 5))),
    )


# ---------------------------------------------------------------------------
# subdivision into similitudes
# ---------------------------------------------------------------------------


def subdivide(figure: FoldableFigure, kappa: int) -> list[AffineMap]:
    """Similitudes u_1..u_N (N = kappa^n) mapping the figure onto its N cells,
    the grid of boxes 1/kappa its size.

    Only box figures with a vertex at the origin are supported.  u_1 is the
    pure scaling x -> x/kappa, and every other u_j is a tessellation
    reflection composed with u_1, so adjacent cells are mirror images.
    kappa = 1 is the trivial subdivision: one cell, the identity.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if figure.box is None:
        raise ValueError("subdivision is implemented for box figures")
    n = figure.dim
    for lo, _ in figure.box:
        if lo != 0:
            raise ValueError("figure must have a vertex at the origin")
    widths = [hi - lo for lo, hi in figure.box]

    maps = []
    indices = [()]
    for _ in range(n):
        indices = [idx + (k,) for idx in indices for k in range(kappa)]
    # order cells with the first map the cell at the origin
    for idx in sorted(indices):
        rows = []
        shift = []
        for axis in range(n):
            k = idx[axis]
            w = widths[axis]
            row = [Fraction(0)] * n
            if k % 2 == 0:
                row[axis] = Fraction(1, kappa)
                shift.append(Fraction(k, kappa) * w)
            else:
                row[axis] = Fraction(-1, kappa)
                shift.append(Fraction(k + 1, kappa) * w)
            rows.append(row)
        maps.append(AffineMap(Mat(rows), Vec(shift)))
    return maps
