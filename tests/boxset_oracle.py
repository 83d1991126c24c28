"""Reference box-set algebra for the differential tests of `waveletsets.tiles`.

This is the list-of-disjoint-boxes implementation that `DyadicBoxSet` used
before its canonical grid kernel: every operation splits boxes pairwise and
merges face-sharing boxes with `_coalesce`.  It is slow but simple, and
`tests/test_boxset_grid.py` uses it as the oracle for exact measures and
set relations.

The second part is the greedy fold check that `waveletsets.tiles` used
before its mirror-fold kernel: `weyl_congruent` splits each box of the source
at the mirror grid, sorts the pieces by box and lets `_assemble` hand out
free mass in that order.  It runs on the library's grid sets and maps; the
bodies are verbatim, only `DyadicBoxSet` there is named `GridBoxSet`, since
the `DyadicBoxSet` of this module is the list-based class.
`tests/test_weyl_fold.py` uses it as the oracle for exact residuals.

The third part is the congruence code that `waveletsets.tiles` used before
its reduce-and-claim kernel: the greedy `translation_congruent` and
`dilation_congruent` (with `_lattice_range`, `_needed_power_range` and its
silent `max_power` cap) over `_assemble`, the orbit loops of
`is_fundamental_domain`, and the mirror-fold kernel of `weyl_congruent`,
here named `grid_weyl_congruent`.  The bodies are verbatim, with
`GridBoxSet` as above; `GroupSpec` and `DomainReport` are the library's.
Two edits follow the library's dilation about the origin: the centred maps
x -> kappa**k (x - theta) + theta are built with `PieceMap.axis_affine`,
the same map as the `PieceMap.dilate` with a centre they used, and
`is_fundamental_domain` dilates about the origin, as a `GroupSpec` has no
centre.  `dilation_congruent` keeps its `theta` as the reference.
`tests/test_congruence_kernel.py` uses them as the oracle for whole
certificates.

The fourth part is the piece-map inverse from before `PieceMap` went
through `geometry.AffineMap` (here the function `piece_map_inverse`; the
library no longer inverts or composes piece maps).  `tests/test_tiles.py`
checks that it undoes the library's `PieceMap.apply`.  The greedy
`_assemble` inverts its maps with it, so it shares no piece-map algebra
with the library.

The fifth part is the two planar fixtures from before one staircase builder
made both: `build_w1` and `build_w2` with their own gap boxes and the
hand-typed tail constants 1/60 and 1/30.  The bodies are verbatim, with
`GridBoxSet` as above; `PlanarFixture` is the library's.
`tests/test_tiles.py` requires identical fixtures from the library.

The sixth part is the `DyadicBoxSet.boxes` property from before it sorted
the index boxes instead of the coordinate boxes, as the function
`grid_boxes` of a grid set (its body verbatim, with `self` the argument and
the cache write left out).  `tests/test_boxset_grid.py` requires the same
tuple from the library.

Keep all six parts unchanged.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

import numpy as np

from waveletsets.reflections import FoldableFigure
from waveletsets.tiles import (TAIL_STANDIN_TERMS, CongruenceCertificate, DomainReport,
                               GroupSpec, PieceMap, PlanarFixture, _canonical, _index_boxes,
                               _rescaled, _resample)
from waveletsets.tiles import DyadicBoxSet as GridBoxSet

Box = tuple  # ((lo, hi), ...) per axis, half-open, Fractions


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _box_measure(box: Box) -> Fraction:
    m = Fraction(1)
    for lo, hi in box:
        m *= hi - lo
    return m


def _box_intersect(a: Box, b: Box) -> Optional[Box]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _box_subtract(a: Box, b: Box) -> list:
    """a minus b as disjoint boxes (standard per-axis splitting)."""
    core = _box_intersect(a, b)
    if core is None:
        return [a]
    pieces = []
    current = list(a)
    for axis, ((alo, ahi), (clo, chi)) in enumerate(zip(a, core)):
        if alo < clo:
            piece = list(current)
            piece[axis] = (alo, clo)
            pieces.append(tuple(piece))
        if chi < ahi:
            piece = list(current)
            piece[axis] = (chi, ahi)
            pieces.append(tuple(piece))
        current[axis] = (clo, chi)
    return pieces


class DyadicBoxSet:
    """Finite disjoint union of half-open boxes with exact rational corners."""

    def __init__(self, dim: int, boxes: Iterable = (), normalized: bool = False):
        self.dim = dim
        clean: list = []
        for box in boxes:
            box = tuple((_frac(lo), _frac(hi)) for lo, hi in box)
            if len(box) != dim:
                raise ValueError("box dimension mismatch")
            if any(lo >= hi for lo, hi in box):
                continue
            if normalized:
                clean.append(box)
            else:
                pending = [box]
                for existing in clean:
                    pending = [p for q in pending for p in _box_subtract(q, existing)]
                    if not pending:
                        break
                clean.extend(pending)
        self.boxes = tuple(self._coalesce(clean))

    @staticmethod
    def _coalesce(boxes: list) -> list:
        """Merge pairs of boxes that share a full face."""
        boxes = list(boxes)
        merged = True
        while merged:
            merged = False
            out: list = []
            for box in sorted(boxes):
                hit = None
                for k, other in enumerate(out):
                    diff_axis = None
                    ok = True
                    for axis, (i1, i2) in enumerate(zip(other, box)):
                        if i1 == i2:
                            continue
                        if diff_axis is not None:
                            ok = False
                            break
                        diff_axis = axis
                    if ok and diff_axis is not None:
                        (alo, ahi), (blo, bhi) = other[diff_axis], box[diff_axis]
                        if ahi == blo or bhi == alo:
                            hit = (k, diff_axis, (min(alo, blo), max(ahi, bhi)))
                            break
                if hit is None:
                    out.append(box)
                else:
                    k, axis, interval = hit
                    new = list(out[k])
                    new[axis] = interval
                    out[k] = tuple(new)
                    merged = True
            boxes = out
        return sorted(boxes)

    # -- basics ---------------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "DyadicBoxSet":
        return DyadicBoxSet(dim, ())

    @staticmethod
    def from_box(*intervals) -> "DyadicBoxSet":
        return DyadicBoxSet(len(intervals), (tuple(intervals),))

    @property
    def measure(self) -> Fraction:
        return sum((_box_measure(b) for b in self.boxes), Fraction(0))

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def bounding_box(self) -> Optional[Box]:
        if not self.boxes:
            return None
        los = [min(b[a][0] for b in self.boxes) for a in range(self.dim)]
        his = [max(b[a][1] for b in self.boxes) for a in range(self.dim)]
        return tuple(zip(los, his))

    def __repr__(self):
        return f"DyadicBoxSet(dim={self.dim}, boxes={len(self.boxes)}, measure={self.measure})"

    # -- set algebra ------------------------------------------------------------

    def union(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        return DyadicBoxSet(self.dim, self.boxes + other.boxes)

    def intersect(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = _box_intersect(a, b)
                if c is not None:
                    out.append(c)
        return DyadicBoxSet(self.dim, out, normalized=True)

    def subtract(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        remaining = list(self.boxes)
        for b in other.boxes:
            remaining = [p for a in remaining for p in _box_subtract(a, b)]
        return DyadicBoxSet(self.dim, remaining, normalized=True)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def symmetric_difference_measure(self, other: "DyadicBoxSet") -> Fraction:
        return self.subtract(other).measure + other.subtract(self).measure

    def equals_ae(self, other: "DyadicBoxSet") -> bool:
        return self.symmetric_difference_measure(other) == 0

    def contains_ae(self, other: "DyadicBoxSet") -> bool:
        return other.subtract(self).measure == 0

    # -- exact transforms ----------------------------------------------------------

    def translate(self, vec) -> "DyadicBoxSet":
        vec = [_frac(v) for v in vec]
        boxes = [tuple((lo + v, hi + v) for (lo, hi), v in zip(box, vec))
                 for box in self.boxes]
        return DyadicBoxSet(self.dim, boxes, normalized=True)

    def scale(self, factor, center=None) -> "DyadicBoxSet":
        """x -> factor*(x - center) + center, exact rational factor."""
        factor = _frac(factor)
        if factor == 0:
            raise ValueError("zero scale")
        center = [Fraction(0)] * self.dim if center is None else [_frac(c) for c in center]
        boxes = []
        for box in self.boxes:
            new = []
            for (lo, hi), c in zip(box, center):
                a, b = factor * (lo - c) + c, factor * (hi - c) + c
                new.append((min(a, b), max(a, b)))
            boxes.append(tuple(new))
        return DyadicBoxSet(self.dim, boxes, normalized=True)

    def transform(self, linear, translation=None) -> "DyadicBoxSet":
        """Image under x -> L x + t for a monomial (box-preserving) matrix L."""
        n = self.dim
        rows = [[_frac(x) for x in row] for row in linear]
        translation = [Fraction(0)] * n if translation is None else [_frac(v) for v in translation]
        source_axis = []
        for row in rows:
            nz = [j for j, x in enumerate(row) if x != 0]
            if len(nz) != 1:
                raise ValueError("exact transforms need monomial matrices")
            source_axis.append(nz[0])
        if sorted(source_axis) != list(range(n)):
            raise ValueError("exact transforms need monomial matrices")
        boxes = []
        for box in self.boxes:
            new = []
            for i in range(n):
                j = source_axis[i]
                c = rows[i][j]
                a = c * box[j][0] + translation[i]
                b = c * box[j][1] + translation[i]
                new.append((min(a, b), max(a, b)))
            boxes.append(tuple(new))
        return DyadicBoxSet(self.dim, boxes, normalized=True)

    def reflect_axis(self, axis: int, level=Fraction(0)) -> "DyadicBoxSet":
        """Mirror x_axis -> 2*level - x_axis."""
        level = _frac(level)
        boxes = []
        for box in self.boxes:
            new = list(box)
            lo, hi = box[axis]
            new[axis] = (2 * level - hi, 2 * level - lo)
            boxes.append(tuple(new))
        return DyadicBoxSet(self.dim, boxes, normalized=True)

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> str:
        data = {
            "dim": self.dim,
            "unit": "pi",
            "boxes": [
                {
                    "lo": [[i[0].numerator, i[0].denominator] for i in box],
                    "hi": [[i[1].numerator, i[1].denominator] for i in box],
                }
                for box in self.boxes
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DyadicBoxSet":
        data = json.loads(text)
        if data.get("unit") != "pi":
            raise ValueError("expected coordinates in pi units")
        boxes = []
        for entry in data["boxes"]:
            lo = [Fraction(n, d) for n, d in entry["lo"]]
            hi = [Fraction(n, d) for n, d in entry["hi"]]
            boxes.append(tuple(zip(lo, hi)))
        return DyadicBoxSet(data["dim"], boxes)


# ---------------------------------------------------------------------------
# the greedy fold check
# ---------------------------------------------------------------------------


def _assemble(source: GridBoxSet, target: GridBoxSet,
              candidates: Iterable) -> CongruenceCertificate:
    """Greedy assembly: each candidate (piece, g) claims what is still free."""
    remaining = source
    uncovered = target
    assigned = []
    for piece, g in candidates:
        if remaining.is_empty or uncovered.is_empty:
            break
        piece = piece.intersect(remaining)
        if piece.is_empty:
            continue
        image = g.apply(piece)
        allowed = image.intersect(uncovered)
        if allowed.is_empty:
            continue
        kept = piece_map_inverse(g).apply(allowed)
        assigned.append((kept, g))
        remaining = remaining.subtract(kept)
        uncovered = uncovered.subtract(allowed)
    return CongruenceCertificate(source, target, assigned, remaining, uncovered)


def _axis_fold_pieces(lo: Fraction, hi: Fraction, L: Fraction, H: Fraction):
    """Split [lo, hi) at the mirror grid of [L, H] and give per-slab fold maps.

    Yields (slab_lo, slab_hi, coeff, offset) with coeff*x + offset landing in
    [L, H]; coeff is +1 or -1 (the per-axis triangle wave of period 2(H-L)).
    """
    w = H - L
    m = math.floor((lo - L) / w)
    t = lo
    while t < hi:
        cell_hi = L + (m + 1) * w
        s_hi = min(hi, cell_hi)
        if m % 2 == 0:
            yield t, s_hi, Fraction(1), -m * w
        else:
            yield t, s_hi, Fraction(-1), 2 * L + (m + 1) * w
        t = s_hi
        m += 1


def weyl_congruent(source: GridBoxSet, figure) -> CongruenceCertificate:
    """Fold source into a box foldable figure; congruent iff it tiles it once.

    The folding group is generated by the reflections about the figure's
    bounding hyperplanes, so every box is split along the mirror grid and
    carried in by a per-axis reflection word.
    """
    intervals = figure.box if isinstance(figure, FoldableFigure) else figure
    if intervals is None:
        raise ValueError("exact folding requires a box figure")
    intervals = [(_frac(lo), _frac(hi)) for lo, hi in intervals]
    if len(intervals) != source.dim:
        raise ValueError("figure dimension mismatch")
    target = GridBoxSet(source.dim, (tuple(intervals),))
    candidates = []
    for box in source.boxes:
        axis_options = [
            list(_axis_fold_pieces(lo, hi, L, H))
            for (lo, hi), (L, H) in zip(box, intervals)
        ]
        for combo in product(*axis_options):
            piece = GridBoxSet(source.dim, (tuple((c[0], c[1]) for c in combo),))
            g = PieceMap.axis_affine([c[2] for c in combo], [c[3] for c in combo],
                                     label="fold")
            candidates.append((piece, g))
    candidates.sort(key=lambda cg: cg[0].boxes)
    return _assemble(source, target, candidates)


# ---------------------------------------------------------------------------
# the greedy translation and dilation checks, and the mirror-fold kernel
# ---------------------------------------------------------------------------


def _finish_certificate(source, target, assigned_pieces) -> CongruenceCertificate:
    dim = source.dim
    placed = GridBoxSet.empty(dim)
    covered = GridBoxSet.empty(dim)
    for piece, g in assigned_pieces:
        placed = placed.union(piece)
        covered = covered.union(g.apply(piece))
    return CongruenceCertificate(
        source=source,
        target=target,
        pieces=assigned_pieces,
        source_residual=source.subtract(placed),
        target_residual=target.subtract(covered),
    )


def _lattice_range(moving, fixed, spacing: Fraction) -> range:
    """The k whose shift of the interval `moving` by k*spacing meets or touches
    the interval `fixed`, from exact floor and ceiling of Fractions."""
    return range(math.floor((fixed[0] - moving[1]) / spacing),
                 math.ceil((fixed[1] - moving[0]) / spacing) + 1)


def translation_congruent(source: GridBoxSet, target: GridBoxSet,
                          spacings) -> CongruenceCertificate:
    """Decompose source into lattice translates partitioning target."""
    spacings = [_frac(s) for s in spacings]
    if len(spacings) != source.dim or any(s <= 0 for s in spacings):
        raise ValueError("need a positive spacing per axis")
    sbb, tbb = source.bounding_box(), target.bounding_box()
    if sbb is None or tbb is None:
        return _finish_certificate(source, target, [])
    ranges = [_lattice_range(s, t, sp) for s, t, sp in zip(sbb, tbb, spacings)]
    keys = sorted(product(*ranges), key=lambda k: (sum(abs(x) for x in k), k))
    candidates = (
        (source, PieceMap.translate([k * s for k, s in zip(key, spacings)]))
        for key in keys
    )
    return _assemble(source, target, candidates)


def dilation_congruent(source: GridBoxSet, target: GridBoxSet,
                       kappa=2, theta=None, max_power: int = 40,
                       allow_center: bool = False) -> CongruenceCertificate:
    """Decompose source into powers of D(x) = kappa*(x - theta) + theta covering target."""
    kappa = _frac(kappa)
    if kappa <= 1:
        raise ValueError("dilation factor must exceed 1")
    dim = source.dim
    theta = [Fraction(0)] * dim if theta is None else [_frac(v) for v in theta]
    if not allow_center:
        for box in source.boxes:
            if all(lo <= t <= hi for (lo, hi), t in zip(box, theta)):
                raise ValueError("dilation center lies in the closure of the source")
    power = _needed_power_range(source, target, kappa, theta, max_power)
    candidates = (
        (source, PieceMap.axis_affine([kappa ** k] * dim, [t - kappa ** k * t for t in theta],
                                      label=f"D^{k}"))
        for k in range(-power, power + 1)
    )
    return _assemble(source, target, candidates)


def _needed_power_range(source, target, kappa, theta, max_power) -> int:
    def extent(bs):
        """(min, max) sup-norm distance from theta over the set, min may be 0."""
        bb = bs.bounding_box()
        if bb is None:
            return None
        hi = max(max(abs(lo - t), abs(h - t)) for (lo, h), t in zip(bb, theta))
        lo = None
        for box in bs.boxes:
            d = max(max(l - t, t - h, Fraction(0)) for (l, h), t in zip(box, theta))
            lo = d if lo is None else min(lo, d)
        return lo, hi

    se, te = extent(source), extent(target)
    if se is None or te is None:
        return 0
    candidates = [2.0]
    for num, den in ((te[1], se[0]), (se[1], te[0])):
        if den > 0:
            candidates.append(float(num / den))
        else:
            candidates.append(float(kappa) ** max_power)
    k = int(math.log(max(candidates)) / math.log(float(kappa))) + 2
    return min(k, max_power)


def grid_weyl_congruent(source: GridBoxSet, figure) -> CongruenceCertificate:
    """Fold source into a box foldable figure; congruent iff it tiles it once.

    The folding group is generated by the reflections about the figure's
    bounding hyperplanes; per axis the fold is the triangle wave of period
    2(H - L) onto [L, H].  The source grid is refined at the mirrors and at
    the unfolded target breakpoints, so each of its cells folds onto exactly
    one target cell.  Claim rule: the first source cell in grid (C) order
    that reaches a target cell takes it, later ones stay in the source
    residual.  The certificate has one piece per reflection word it uses,
    i.e. per tuple of slabs between mirrors, with that word's x -> +-x + o.
    """
    intervals = figure.box if isinstance(figure, FoldableFigure) else figure
    if intervals is None:
        raise ValueError("exact folding requires a box figure")
    intervals = [(_frac(lo), _frac(hi)) for lo, hi in intervals]
    if len(intervals) != source.dim:
        raise ValueError("figure dimension mismatch")
    if any(lo >= hi for lo, hi in intervals):
        raise ValueError("the figure box needs positive widths")
    target = GridBoxSet(source.dim, (tuple(intervals),))
    if source.is_empty:
        return CongruenceCertificate(source, target, [], source, target)
    den = math.lcm(source.den, *(x.denominator for iv in intervals for x in iv))
    grid, tgrid, where, slabs = [], [], [], []
    for cuts, (L, H) in zip(_rescaled(source, den), intervals):
        lo, hi = L.numerator * den // L.denominator, H.numerator * den // H.denominator
        w = hi - lo

        def fold(x, m):  # x in slab m, [lo + m*w, lo + (m+1)*w], onto [lo, hi]
            return x - m * w if m % 2 == 0 else hi + lo + m * w - x

        def unfold(y, m):  # the inverse of fold(., m)
            return y + m * w if m % 2 == 0 else hi + lo + m * w - y

        t = sorted({lo, hi, *(fold(x, (x - lo) // w) for x in cuts)})
        g = sorted({*cuts, *(x for m in range((cuts[0] - lo) // w, (cuts[-1] - lo) // w + 1)
                             for x in (unfold(y, m) for y in t) if cuts[0] < x < cuts[-1])})
        slab = [(x - lo) // w for x in g[:-1]]
        index = {x: i for i, x in enumerate(t)}
        where.append(np.array([index[min(fold(a, m), fold(b, m))]
                               for a, b, m in zip(g, g[1:], slab)], dtype=np.intp))
        slabs.append([(m, bisect_left(slab, m), bisect_right(slab, m))
                      for m in sorted(set(slab))])
        grid.append(tuple(g))
        tgrid.append(tuple(t))
    mask = _resample(_rescaled(source, den), source.mask, grid)
    cells = np.nonzero(mask)
    tshape = tuple(len(t) - 1 for t in tgrid)
    flat = np.ravel_multi_index(tuple(i[c] for i, c in zip(where, cells)), tshape)
    claimed, first = np.unique(flat, return_index=True)
    kept = np.zeros_like(mask)
    kept[tuple(c[first] for c in cells)] = True
    covered = np.zeros(tshape, dtype=bool)
    covered.flat[claimed] = True
    pieces = []
    for word in product(*slabs):
        part = kept[tuple(slice(a, b) for _, a, b in word)]
        if not part.any():
            continue
        cuts = tuple(g[a:b + 1] for g, (_, a, b) in zip(grid, word))
        coeffs, offsets = zip(*((1, -m * (H - L)) if m % 2 == 0
                                else (-1, 2 * L + (m + 1) * (H - L))
                                for (m, _, _), (L, H) in zip(word, intervals)))
        pieces.append((GridBoxSet._grid(source.dim, *_canonical(den, cuts, part)),
                       PieceMap.axis_affine(coeffs, offsets, label="fold")))
    return CongruenceCertificate(
        source, target, pieces,
        GridBoxSet._grid(source.dim, *_canonical(den, tuple(grid), mask & ~kept)),
        GridBoxSet._grid(source.dim, *_canonical(den, tuple(tgrid), ~covered)))


def is_fundamental_domain(candidate: GridBoxSet, group: GroupSpec,
                          region: GridBoxSet) -> DomainReport:
    """Check that the group orbit of the candidate partitions the region."""
    dim = candidate.dim
    if group.kind == "weyl":
        # orbit tiling is equivalent to one-to-one folding onto the figure
        cert = weyl_congruent(candidate, group.figure)
        return DomainReport(cert.residual_measure == 0,
                            cert.target_residual.measure,
                            cert.source_residual.measure)
    if group.kind == "translation":
        spacings = [_frac(s) for s in group.spacings]
        cbb, rbb = candidate.bounding_box(), region.bounding_box()
        if cbb is None:
            return DomainReport(False, region.measure, Fraction(0))
        ranges = [_lattice_range(c, r, sp) for c, r, sp in zip(cbb, rbb, spacings)]
        maps = [PieceMap.translate([k * s for k, s in zip(key, spacings)])
                for key in product(*ranges)]
    else:
        kappa = _frac(group.kappa)
        theta = [Fraction(0)] * dim
        for box in region.boxes:
            if all(lo <= t <= hi for (lo, hi), t in zip(box, theta)):
                raise ValueError("region must be bounded away from the dilation center")
        power = _needed_power_range(candidate, region, kappa, theta, 60)
        maps = [PieceMap.axis_affine([kappa ** k] * dim, [t - kappa ** k * t for t in theta])
                for k in range(-power, power + 1)]
    mass = Fraction(0)
    cover = GridBoxSet.empty(dim)
    for g in maps:
        image = g.apply(candidate).intersect(region)
        mass += image.measure
        cover = cover.union(image)
    uncovered = region.measure - cover.measure
    overlap = mass - cover.measure
    return DomainReport(uncovered == 0 and overlap == 0, uncovered, overlap)


# ---------------------------------------------------------------------------
# piece-map algebra: PieceMap.inverse, from before piece maps went through
# geometry.AffineMap
# ---------------------------------------------------------------------------


def piece_map_inverse(self: PieceMap) -> PieceMap:
    n = len(self.translation)
    inv_rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(self.linear):
        j = next(k for k, x in enumerate(row) if x != 0)
        inv_rows[j][i] = 1 / row[j]
    inv_trans = []
    for j in range(n):
        i = next(k for k, x in enumerate(inv_rows[j]) if x != 0)
        inv_trans.append(-inv_rows[j][i] * self.translation[i])
    return PieceMap(tuple(tuple(r) for r in inv_rows), tuple(inv_trans),
                    label=f"inv({self.label})")


# ---------------------------------------------------------------------------
# the planar fixtures from before one staircase builder
# ---------------------------------------------------------------------------


def _gap_boxes_w1(n: int):
    """G_0 and the gap squares G_k marching to (2pi/3, 2pi/3), in pi units."""
    g0 = ((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)))
    gaps = []
    beta = Fraction(0)
    for k in range(1, n + 1):
        beta += Fraction(1, 2) * Fraction(1, 4) ** (k - 1)
        side = Fraction(1, 2) * Fraction(1, 4) ** k
        gaps.append(((beta, beta + side), (beta, beta + side)))
    return g0, gaps


def build_w1(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Four-quadrant planar wavelet set built from a staircase of gap squares.

    The infinite staircase is truncated at `depth`; the omitted measure (an
    exact geometric series) is carved out of B_1 by a stand-in region of
    exactly that measure near the accumulation corner, so the measure
    identity m(W) + 4*tail = 4*pi^2 holds as an exact rational identity.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    g0_box, gap_boxes = _gap_boxes_w1(depth + tail_terms)
    g0 = GridBoxSet(2, (g0_box,))
    e1 = GridBoxSet(2, gap_boxes[:depth])
    tail = Fraction(1, 60) * Fraction(1, 16) ** depth
    # stand-in for the omitted gaps: the next tail_terms squares plus a
    # rectangle of the residual measure anchored at the corner (2/3, 2/3)
    m = depth + tail_terms
    deep_tail = Fraction(1, 60) * Fraction(1, 16) ** m
    corner = Fraction(2, 3)
    w = Fraction(2, 3) * Fraction(1, 4) ** (m + 1)
    h = deep_tail / w
    rect = ((corner - w, corner), (corner - h, corner))
    standin = GridBoxSet(2, gap_boxes[depth:] + [rect])
    assert standin.measure == tail
    two_g0 = g0.scale(2)
    c1 = g0.union(e1).translate((2, 2))
    b1 = two_g0.subtract(g0.union(e1).union(standin))
    a1 = b1.union(c1)
    a2 = a1.reflect_axis(0)
    a3 = a2.reflect_axis(1)
    a4 = a1.reflect_axis(1)
    w1 = a1.union(a2).union(a3).union(a4)
    return PlanarFixture(
        wavelet_set=w1, depth=depth, tail=tail, copies=4,
        components={"G0": g0, "E1": e1, "B1": b1, "C1": c1,
                    "A1": a1, "A2": a2, "A3": a3, "A4": a4,
                    "tail_standin": standin},
    )


def _gap_boxes_w2(n: int):
    g0 = ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)))
    gaps = []
    beta = Fraction(0)
    for k in range(1, n + 1):
        beta += Fraction(1, 2) * Fraction(1, 4) ** (k - 1)
        quarter = Fraction(1, 4) ** k
        gaps.append(((beta, beta + quarter / 2), (-quarter / 2, quarter / 2)))
    return g0, gaps


def build_w2(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Two-piece planar wavelet set symmetric about the y-axis."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    g0_box, gap_boxes = _gap_boxes_w2(depth + tail_terms)
    g0 = GridBoxSet(2, (g0_box,))
    e = GridBoxSet(2, gap_boxes[:depth])
    tail = Fraction(1, 30) * Fraction(1, 16) ** depth
    m = depth + tail_terms
    deep_tail = Fraction(1, 30) * Fraction(1, 16) ** m
    corner = Fraction(2, 3)
    w = Fraction(2, 3) * Fraction(1, 4) ** (m + 1)
    h = deep_tail / w
    rect = ((corner - w, corner), (-h / 2, h / 2))
    standin = GridBoxSet(2, gap_boxes[depth:] + [rect])
    assert standin.measure == tail
    two_g0 = g0.scale(2)
    d = g0.union(e).translate((2, 0))
    b = two_g0.subtract(g0.union(e).union(standin))
    a1 = b.union(d)
    a2 = a1.reflect_axis(0)
    w2 = a1.union(a2)
    return PlanarFixture(
        wavelet_set=w2, depth=depth, tail=tail, copies=2,
        components={"G0": g0, "E": e, "B": b, "D": d, "A1": a1, "A2": a2,
                    "tail_standin": standin},
    )


# ---------------------------------------------------------------------------
# the boxes view from before it sorted index boxes
# ---------------------------------------------------------------------------


def grid_boxes(self: GridBoxSet) -> tuple:
    """Sorted boxes covering the set, derived from the grid."""
    coords = [[Fraction(x, self.den) for x in c] for c in self.cuts]
    return tuple(sorted(
        tuple((coords[axis][i], coords[axis][j]) for axis, (i, j) in enumerate(box))
        for box in _index_boxes(self.mask)))
