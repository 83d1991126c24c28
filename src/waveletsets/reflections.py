"""Root systems, affine reflections, foldable figures, and Weyl tessellations.

Coordinates are exact Fractions.  A foldable figure is a convex polytope
together with the reflections about the hyperplanes that cut space into
congruent copies of its fundamental cell; folding a point means reflecting
it across violated bounding hyperplanes until it lands inside the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import AffineIsometry, AffineMap, Hyperplane, Mat, Vec, rank

FOLD_GUARD = 100000


# ---------------------------------------------------------------------------
# reflections attached to roots
# ---------------------------------------------------------------------------


def reflect_root(root: Sequence, x: Sequence) -> Vec:
    """Reflection across the hyperplane through the origin orthogonal to root."""
    root = Vec(Fraction(a) for a in root)
    x = Vec(x)
    rr = root.dot(root)
    if rr == 0:
        raise ValueError("zero root")
    return x - root.scale(2 * root.dot(x) / rr)


def coroot(root: Sequence) -> Vec:
    root = Vec(Fraction(a) for a in root)
    rr = root.dot(root)
    if rr == 0:
        raise ValueError("zero root")
    return root.scale(Fraction(2) / rr)


def affine_reflect(root: Sequence, level, x: Sequence) -> Vec:
    """Reflection across {y : <y, root> = level}.

    Equals the linear reflection followed by a translation along the coroot:
    rho_{r,k}(x) = rho_r(x) + k * coroot(r).
    """
    root = Vec(Fraction(a) for a in root)
    x = Vec(x)
    rr = root.dot(root)
    if rr == 0:
        raise ValueError("zero root")
    return x - root.scale(2 * (root.dot(x) - level) / rr)


def affine_reflection(root: Sequence, level) -> AffineIsometry:
    """The reflection of affine_reflect as a composable isometry."""
    root = Vec(Fraction(a) for a in root)
    return Hyperplane(root, level).reflection()


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
                if reflect_root(r, s) not in roots:
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
    """A convex figure with the reflections that generate its tessellation.

    bounding: oriented hyperplanes of the figure itself (folding reflects
        across these); interior(theta) is strictly inside all of them.
    cuts: additional hyperplanes slicing the figure into its fundamental
        cells, when the figure is a union of several cells.
    base_cell_vertices: vertices of the fundamental cell of the full group
        generated by reflections about bounding + cut hyperplanes.
    box: for axis-aligned box figures, ((lo_1, hi_1), ..., (lo_n, hi_n)).
    """

    name: str
    vertices: tuple
    bounding: tuple
    theta: Vec
    cuts: tuple = ()
    base_cell_vertices: tuple = ()
    box: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return len(self.theta)

    @property
    def hyperplanes(self) -> tuple:
        return self.bounding + self.cuts

    @property
    def generators(self) -> tuple:
        return tuple(h.reflection() for h in self.hyperplanes)

    def contains(self, x: Sequence) -> bool:
        x = Vec(x)
        return all(self._inside(h, x) >= 0 for h in self.bounding)

    def on_boundary(self, x: Sequence) -> bool:
        x = Vec(x)
        return self.contains(x) and any(h.side(x) == 0 for h in self.bounding)

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
        h = figure.bounding[violated]
        y = h.reflect(y)
        word.append(violated)
        # reflections are involutions, so g gains one factor per step
        back = back.compose(h.reflection())
    raise RuntimeError("folding did not terminate")


# -- built-in figures --------------------------------------------------------


def box_figure(name: str, intervals: Sequence[tuple], cut_spacings: Optional[Sequence] = None) -> FoldableFigure:
    """An axis-aligned box figure; cut_spacings adds interior grid hyperplanes."""
    n = len(intervals)
    intervals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    bounding = []
    for axis, (lo, hi) in enumerate(intervals):
        e = [Fraction(0)] * n
        e[axis] = Fraction(1)
        bounding.append(Hyperplane(e, lo))
        bounding.append(Hyperplane(e, hi))
    cuts = []
    cell = list(intervals)
    if cut_spacings is not None:
        for axis, spacing in enumerate(cut_spacings):
            if spacing is None:
                continue
            spacing = Fraction(spacing)
            lo, hi = intervals[axis]
            level = lo + spacing
            while level < hi:
                e = [Fraction(0)] * n
                e[axis] = Fraction(1)
                cuts.append(Hyperplane(e, level))
                level += spacing
            cell[axis] = (lo, lo + spacing)
    vertices = [()]
    for lo, hi in intervals:
        vertices = [v + (c,) for v in vertices for c in (lo, hi)]
    base_vertices = [()]
    for lo, hi in cell:
        base_vertices = [v + (c,) for v in base_vertices for c in (lo, hi)]
    theta_entries = []
    for lo, hi in intervals:
        mid = (lo + hi) / 2
        # keep theta off every cut hyperplane
        theta_entries.append(mid + (hi - lo) / 7)
    return FoldableFigure(
        name=name,
        vertices=tuple(Vec(v) for v in vertices),
        bounding=tuple(bounding),
        theta=Vec(theta_entries),
        cuts=tuple(cuts),
        base_cell_vertices=tuple(Vec(v) for v in base_vertices),
        box=intervals,
    )


def unit_square_figure(n: int = 2) -> FoldableFigure:
    """[0,1]^n; its bounding reflections generate the integer grid tessellation."""
    return box_figure("unit-square", [(0, 1)] * n)


def centered_square_figure() -> FoldableFigure:
    """[-1,1]^2 in pi units, cut by the axes into four unit cells.

    This is the translation fundamental domain used by the planar wavelet-set
    fixtures; its cut arrangement is the full grid of integer lines.
    """
    fig = box_figure("centered-square", [(-1, 1), (-1, 1)], cut_spacings=[1, 1])
    base = tuple(Vec((x, y)) for x in (Fraction(0), Fraction(1)) for y in (Fraction(0), Fraction(1)))
    return FoldableFigure(
        name=fig.name,
        vertices=fig.vertices,
        bounding=fig.bounding,
        theta=Vec((Fraction(1, 3), Fraction(1, 2))),
        cuts=fig.cuts,
        base_cell_vertices=base,
        box=fig.box,
    )


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
        base_cell_vertices=verts,
    )


# ---------------------------------------------------------------------------
# group enumeration over a region
# ---------------------------------------------------------------------------


def _bbox_of(points) -> tuple:
    los = [min(p[i] for p in points) for i in range(len(points[0]))]
    his = [max(p[i] for p in points) for i in range(len(points[0]))]
    return tuple(los), tuple(his)


def _bboxes_overlap(a, b, margin=Fraction(0)) -> bool:
    (alo, ahi), (blo, bhi) = a, b
    return all(alo[i] - margin < bhi[i] and blo[i] < ahi[i] + margin for i in range(len(alo)))


@dataclass
class GroupCell:
    word: list
    isometry: AffineIsometry
    vertices: list


def enumerate_group(figure: FoldableFigure, region: Sequence[tuple]) -> list[GroupCell]:
    """Enumerate group elements whose fundamental-cell image meets the region.

    region is a box ((lo, hi) per axis).  The group is generated by the
    reflections about all of the figure's hyperplanes (bounding and cuts);
    the returned cells tile the region.  Output is sorted by word length,
    then lexicographically by the generator word.
    """
    base = figure.base_cell_vertices or figure.vertices
    gens = figure.generators
    region = tuple((Fraction(lo), Fraction(hi)) for lo, hi in region)
    region_bbox = (tuple(lo for lo, _ in region), tuple(hi for _, hi in region))
    cell_bbox = _bbox_of(base)
    diameter = max(hi - lo for lo, hi in zip(*cell_bbox))

    start = AffineIsometry.identity(figure.dim)
    seen = {start.key()}
    result = []
    frontier = [([], start)]
    while frontier:
        nxt = []
        for word, iso in frontier:
            image = [iso.apply(v) for v in base]
            bbox = _bbox_of(image)
            if _bboxes_overlap(bbox, region_bbox):
                result.append(GroupCell(word=word, isometry=iso, vertices=image))
            elif not _bboxes_overlap(bbox, region_bbox, margin=2 * diameter):
                continue
            for gidx, g in enumerate(gens):
                new = g.compose(iso)
                if new.key() in seen:
                    continue
                seen.add(new.key())
                nxt.append((word + [gidx], new))
        frontier = nxt
    result.sort(key=lambda c: (len(c.word), c.word))
    return result


# ---------------------------------------------------------------------------
# subdivision into similitudes
# ---------------------------------------------------------------------------


def subdivide(figure: FoldableFigure, kappa: int) -> list[AffineMap]:
    """Similitudes u_1..u_N (N = kappa^n) mapping kappa*figure onto its cells.

    Only box figures with a vertex at the origin are supported.  u_1 is the
    pure scaling x -> x/kappa, and every other u_j is a tessellation
    reflection composed with u_1, so adjacent cells are mirror images.
    """
    if kappa < 2:
        raise ValueError("kappa must be at least 2")
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
