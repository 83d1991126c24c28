"""Exact wavelet-set computations with half-open boxes.

Coordinates are rational multiples of pi (a box [0, 2) here is [0, 2*pi) in
the plane), so measures in pi^n units are plain Fractions and congruence
residuals compare exactly.  Group elements are exact affine maps whose linear
parts are monomial matrices (signed scaled permutations), which carry boxes
to boxes.

A box set is a canonical integer grid (`DyadicBoxSet`): a denominator, sorted
integer breakpoints per axis and a boolean mask over the cells between them.
Set operations merge breakpoints and combine masks, measures are exact
integer sums, and equality almost everywhere is a comparison of grids.
`DyadicBoxSet.boxes` is a view derived from the grid for output and for
per-box iteration; which boxes it lists in 2-D and above is not part of the
contract (in 1-D it lists the maximal intervals).
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

from .reflections import FoldableFigure

Box = tuple  # ((lo, hi), ...) per axis, half-open, Fractions


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _reduced(den: int, cuts: tuple):
    """Divide gcd(den, every breakpoint) out of a grid."""
    g = math.gcd(den, *(x for axis_cuts in cuts for x in axis_cuts))
    if g == 1:
        return den, cuts
    return den // g, tuple(tuple(x // g for x in axis_cuts) for axis_cuts in cuts)


def _canonical(den: int, cuts: tuple, mask: np.ndarray):
    """Trim empty boundary slabs, drop every breakpoint between two equal
    slabs, and reduce the denominator: the unique grid of the set."""
    dim = mask.ndim
    if not mask.any():
        return 1, ((),) * dim, np.zeros((0,) * dim, dtype=bool)
    out = []
    for axis, axis_cuts in enumerate(cuts):
        others = tuple(a for a in range(dim) if a != axis)
        occupied = np.flatnonzero(mask.any(axis=others) if others else mask)
        first, last = int(occupied[0]), int(occupied[-1]) + 1
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[axis], hi[axis] = slice(first, last - 1), slice(first + 1, last)
        changed = mask[tuple(hi)] != mask[tuple(lo)]
        if others:
            changed = changed.any(axis=others)
        kept = [first]
        kept.extend((np.flatnonzero(changed) + (first + 1)).tolist())
        if len(kept) < len(axis_cuts) - 1:
            mask = mask.take(kept, axis=axis)
            axis_cuts = tuple(axis_cuts[k] for k in kept) + (axis_cuts[last],)
        out.append(axis_cuts)
    den, cuts = _reduced(den, tuple(out))
    return den, cuts, mask


def _rescaled(boxset, den: int) -> tuple:
    """The breakpoints of a set over the denominator den, a multiple of its own."""
    factor = den // boxset.den
    if factor == 1:
        return boxset.cuts
    return tuple(tuple(x * factor for x in c) for c in boxset.cuts)


def _resample(cuts: tuple, mask: np.ndarray, grid: list) -> np.ndarray:
    """The mask on the cells of `grid`, a refinement of `cuts` that may reach
    past them or stop short of them; cells outside `cuts` are empty."""
    inner = []
    full = True
    for axis, (axis_cuts, axis_grid) in enumerate(zip(cuts, grid)):
        if axis_cuts == axis_grid:
            inner.append(slice(None))
            continue
        a = bisect_left(axis_grid, axis_cuts[0])
        b = min(bisect_left(axis_grid, axis_cuts[-1]), len(axis_grid) - 1)
        index = [bisect_right(axis_cuts, x) - 1 for x in axis_grid[a:b]]
        mask = mask.take(np.array(index, dtype=np.intp), axis=axis)
        inner.append(slice(a, b))
        full = full and a == 0 and b == len(axis_grid) - 1
    if full:
        return mask
    out = np.zeros(tuple(len(g) - 1 for g in grid), dtype=bool)
    out[tuple(inner)] = mask
    return out


def _hull(alo, ahi, blo, bhi):
    return min(alo, blo), max(ahi, bhi)


def _overlap(alo, ahi, blo, bhi):
    return max(alo, blo), min(ahi, bhi)


def _own(alo, ahi, blo, bhi):
    return alo, ahi


def _index_boxes(mask: np.ndarray) -> list:
    """Cover the true cells by index boxes ((i0, i1), ...): maximal runs along
    the last axis, merged along each earlier axis over consecutive slabs that
    hold the same run."""
    if mask.ndim == 1:
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        return [((a, b),) for a, b in zip(edges[::2], edges[1::2])]
    boxes = []
    open_runs: dict = {}
    for i, slab in enumerate(mask):
        here = _index_boxes(slab)
        present = set(here)
        for rest in [r for r in open_runs if r not in present]:
            boxes.append(((open_runs.pop(rest), i),) + rest)
        for rest in here:
            open_runs.setdefault(rest, i)
    boxes.extend(((start, len(mask)),) + rest for rest, start in open_runs.items())
    return boxes


class DyadicBoxSet:
    """Finite union of half-open boxes with exact rational corners.

    The set is held as a canonical grid: one positive integer denominator
    `den`, per axis a sorted tuple `cuts` of integer breakpoints (coordinates
    times `den`), and a boolean `mask` over the cells between breakpoints.
    Canonical means no empty boundary slab, no breakpoint whose two
    neighbouring slabs are equal, and gcd(den, every breakpoint) = 1, so two
    sets are equal almost everywhere exactly when their grids are equal.
    Instances are immutable.
    """

    __slots__ = ("dim", "den", "cuts", "mask", "_boxes", "_measure")

    def __init__(self, dim: int, boxes: Iterable = ()):
        clean = []
        for box in boxes:
            box = tuple((_frac(lo), _frac(hi)) for lo, hi in box)
            if len(box) != dim:
                raise ValueError("box dimension mismatch")
            if all(lo < hi for lo, hi in box):
                clean.append(box)
        den = math.lcm(*(x.denominator for box in clean for iv in box for x in iv))
        ints = [tuple((lo.numerator * (den // lo.denominator),
                       hi.numerator * (den // hi.denominator)) for lo, hi in box)
                for box in clean]
        cuts = tuple(tuple(sorted({x for box in ints for x in box[axis]}))
                     for axis in range(dim))
        mask = np.zeros(tuple(max(len(c) - 1, 0) for c in cuts), dtype=bool)
        position = [{x: i for i, x in enumerate(c)} for c in cuts]
        for box in ints:
            mask[tuple(slice(pos[lo], pos[hi]) for pos, (lo, hi) in zip(position, box))] = True
        self._fill(dim, *_canonical(den, cuts, mask))

    def _fill(self, dim, den, cuts, mask) -> None:
        mask.flags.writeable = False
        self.dim, self.den, self.cuts, self.mask = dim, den, cuts, mask
        self._boxes = self._measure = None

    @classmethod
    def _grid(cls, dim, den, cuts, mask) -> "DyadicBoxSet":
        """A set from a grid that is already canonical."""
        new = cls.__new__(cls)
        new._fill(dim, den, cuts, mask)
        return new

    # -- basics ---------------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "DyadicBoxSet":
        return DyadicBoxSet(dim, ())

    @staticmethod
    def from_box(*intervals) -> "DyadicBoxSet":
        return DyadicBoxSet(len(intervals), (tuple(intervals),))

    @property
    def boxes(self) -> tuple:
        """Sorted boxes covering the set, derived from the grid.

        In 1-D these are the maximal intervals.  In higher dimensions the
        decomposition is deterministic but not part of the contract.
        """
        if self._boxes is None:
            coords = [[Fraction(x, self.den) for x in c] for c in self.cuts]
            self._boxes = tuple(sorted(
                tuple((coords[axis][i], coords[axis][j]) for axis, (i, j) in enumerate(box))
                for box in _index_boxes(self.mask)))
        return self._boxes

    @property
    def measure(self) -> Fraction:
        if self._measure is None:
            if self.is_empty:
                self._measure = Fraction(0)
            else:
                # int64 is exact while the bounding box volume in grid units,
                # a bound on every partial sum, stays below 2**63
                volume = math.prod(c[-1] - c[0] for c in self.cuts)
                dtype = np.int64 if volume < 2 ** 63 else object
                total = self.mask.astype(dtype)
                for c in reversed(self.cuts):
                    total = total @ np.array([b - a for a, b in zip(c, c[1:])], dtype=dtype)
                self._measure = Fraction(int(total), self.den ** self.dim)
        return self._measure

    @property
    def is_empty(self) -> bool:
        return self.mask.size == 0

    def bounding_box(self) -> Optional[Box]:
        if self.is_empty:
            return None
        return tuple((Fraction(c[0], self.den), Fraction(c[-1], self.den)) for c in self.cuts)

    def __repr__(self):
        return f"DyadicBoxSet(dim={self.dim}, boxes={len(self.boxes)}, measure={self.measure})"

    # -- set algebra ------------------------------------------------------------

    def _combine(self, other: "DyadicBoxSet", op, clip) -> "DyadicBoxSet":
        """op of both masks resampled on the merged breakpoints, within the
        range per axis that clip(own lo, own hi, other lo, other hi) gives;
        None when that range is empty on some axis."""
        den = math.lcm(self.den, other.den)
        cuts_a, cuts_b = _rescaled(self, den), _rescaled(other, den)
        grid = []
        for ca, cb in zip(cuts_a, cuts_b):
            lo, hi = clip(ca[0], ca[-1], cb[0], cb[-1])
            if lo >= hi:
                return None
            grid.append(tuple(x for x in sorted({*ca, *cb}) if lo <= x <= hi))
        a = _resample(cuts_a, self.mask, grid)
        b = _resample(cuts_b, other.mask, grid)
        return DyadicBoxSet._grid(self.dim, *_canonical(den, tuple(grid), op(a, b)))

    def union(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        return self._combine(other, np.logical_or, _hull)

    def intersect(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        if self.is_empty or other.is_empty:
            return DyadicBoxSet.empty(self.dim)
        out = self._combine(other, np.logical_and, _overlap)
        return DyadicBoxSet.empty(self.dim) if out is None else out

    def subtract(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        self._check(other)
        if self.is_empty or other.is_empty:
            return self
        return self._combine(other, lambda a, b: a & ~b, _own)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def symmetric_difference_measure(self, other: "DyadicBoxSet") -> Fraction:
        return self.subtract(other).measure + other.subtract(self).measure

    def equals_ae(self, other: "DyadicBoxSet") -> bool:
        self._check(other)
        return (self.den == other.den and self.cuts == other.cuts
                and np.array_equal(self.mask, other.mask))

    def contains_ae(self, other: "DyadicBoxSet") -> bool:
        return other.subtract(self).is_empty

    # -- exact transforms ----------------------------------------------------------

    def _monomial(self, source_axis, coeffs, offsets) -> "DyadicBoxSet":
        """Image under x_i -> coeffs[i] * x_{source_axis[i]} + offsets[i]."""
        if self.is_empty:
            return self
        den = math.lcm(*(self.den * c.denominator for c in coeffs),
                       *(t.denominator for t in offsets))
        mask = self.mask.transpose(tuple(source_axis))
        cuts = []
        flips = []
        for j, c, t in zip(source_axis, coeffs, offsets):
            k = c.numerator * (den // (self.den * c.denominator))
            b = t.numerator * (den // t.denominator)
            axis_cuts = [k * x + b for x in self.cuts[j]]
            if k < 0:
                axis_cuts.reverse()
            cuts.append(tuple(axis_cuts))
            flips.append(slice(None, None, -1) if k < 0 else slice(None))
        return DyadicBoxSet._grid(self.dim, *_reduced(den, tuple(cuts)), mask[tuple(flips)])

    def translate(self, vec) -> "DyadicBoxSet":
        return self._monomial(range(self.dim), [Fraction(1)] * self.dim,
                              [_frac(v) for v in vec])

    def scale(self, factor, center=None) -> "DyadicBoxSet":
        """x -> factor*(x - center) + center, exact rational factor."""
        factor = _frac(factor)
        if factor == 0:
            raise ValueError("zero scale")
        center = [Fraction(0)] * self.dim if center is None else [_frac(c) for c in center]
        return self._monomial(range(self.dim), [factor] * self.dim,
                              [c - factor * c for c in center])

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
        return self._monomial(source_axis, [row[j] for row, j in zip(rows, source_axis)],
                              translation)

    def reflect_axis(self, axis: int, level=Fraction(0)) -> "DyadicBoxSet":
        """Mirror x_axis -> 2*level - x_axis."""
        coeffs = [Fraction(-1) if i == axis else Fraction(1) for i in range(self.dim)]
        offsets = [2 * _frac(level) if i == axis else Fraction(0) for i in range(self.dim)]
        return self._monomial(range(self.dim), coeffs, offsets)

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
# group elements and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PieceMap:
    """Exact affine group element x -> L x + t with monomial L."""

    linear: tuple  # rows of Fractions
    translation: tuple
    label: str = ""

    @staticmethod
    def translate(vec, label: str = "") -> "PieceMap":
        n = len(vec)
        rows = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                     for i in range(n))
        return PieceMap(rows, tuple(_frac(v) for v in vec), label or f"t{tuple(map(str, vec))}")

    @staticmethod
    def dilate(dim: int, factor, theta=None, label: str = "") -> "PieceMap":
        factor = _frac(factor)
        theta = [Fraction(0)] * dim if theta is None else [_frac(v) for v in theta]
        rows = tuple(tuple(factor if i == j else Fraction(0) for j in range(dim))
                     for i in range(dim))
        trans = tuple(t - factor * t for t in theta)
        return PieceMap(rows, trans, label)

    @staticmethod
    def axis_affine(coeffs, offsets, label: str = "") -> "PieceMap":
        """Diagonal map x_i -> c_i x_i + o_i."""
        n = len(coeffs)
        rows = tuple(tuple(_frac(coeffs[i]) if i == j else Fraction(0) for j in range(n))
                     for i in range(n))
        return PieceMap(rows, tuple(_frac(o) for o in offsets), label)

    def apply(self, boxset: DyadicBoxSet) -> DyadicBoxSet:
        return boxset.transform(self.linear, self.translation)

    def inverse(self) -> "PieceMap":
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

    def is_translation(self) -> bool:
        return all(row[i] == 1 and all(x == 0 for j, x in enumerate(row) if j != i)
                   for i, row in enumerate(self.linear))


@dataclass
class VerificationReport:
    ok: bool
    pieces_disjoint: bool
    pieces_in_source: bool
    images_disjoint: bool
    images_in_target: bool
    measure_balanced: bool
    source_residual_measure: Fraction
    target_residual_measure: Fraction


@dataclass
class CongruenceCertificate:
    """Decomposition of a source set into group-moved pieces inside a target."""

    source: DyadicBoxSet
    target: DyadicBoxSet
    pieces: list  # (DyadicBoxSet, PieceMap)
    source_residual: DyadicBoxSet
    target_residual: DyadicBoxSet

    @property
    def residual_measure(self) -> Fraction:
        return max(self.source_residual.measure, self.target_residual.measure)

    def verify(self) -> VerificationReport:
        """Independent re-check: recompute every set relation from scratch."""
        dim = self.source.dim
        placed = DyadicBoxSet.empty(dim)
        covered = DyadicBoxSet.empty(dim)
        pieces_disjoint = images_disjoint = True
        for piece, g in self.pieces:
            if placed.intersect(piece).measure != 0:
                pieces_disjoint = False
            placed = placed.union(piece)
            image = g.apply(piece)
            if covered.intersect(image).measure != 0:
                images_disjoint = False
            covered = covered.union(image)
        pieces_in_source = self.source.contains_ae(placed)
        images_in_target = self.target.contains_ae(covered)
        src_res = self.source.subtract(placed).measure
        tgt_res = self.target.subtract(covered).measure
        measure_balanced = (
            sum((p.measure for p, _ in self.pieces), Fraction(0)) + src_res
            == self.source.measure
            and src_res == self.source_residual.measure
            and tgt_res == self.target_residual.measure
        )
        ok = (pieces_disjoint and pieces_in_source and images_disjoint
              and images_in_target and measure_balanced)
        return VerificationReport(ok, pieces_disjoint, pieces_in_source,
                                  images_disjoint, images_in_target,
                                  measure_balanced, src_res, tgt_res)

    def compose(self, second: "CongruenceCertificate") -> "CongruenceCertificate":
        """Certificate for source ~ second.target given self.target == second.source (a.e.)."""
        pieces = []
        for p1, g1 in self.pieces:
            img1 = g1.apply(p1)
            for p2, g2 in second.pieces:
                common = img1.intersect(p2)
                if common.is_empty:
                    continue
                back = g1.inverse().apply(common)
                combined = _compose_maps(g2, g1)
                pieces.append((back, combined))
        return _finish_certificate(self.source, second.target, pieces)


def _compose_maps(outer: PieceMap, inner: PieceMap) -> PieceMap:
    n = len(inner.translation)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(sum(outer.linear[i][k] * inner.linear[k][j] for k in range(n)))
        rows.append(tuple(row))
    trans = tuple(
        sum(outer.linear[i][k] * inner.translation[k] for k in range(n))
        + outer.translation[i]
        for i in range(n)
    )
    return PieceMap(tuple(rows), trans, label=f"{outer.label}*{inner.label}")


def _finish_certificate(source, target, assigned_pieces) -> CongruenceCertificate:
    dim = source.dim
    placed = DyadicBoxSet.empty(dim)
    covered = DyadicBoxSet.empty(dim)
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


def _assemble(source: DyadicBoxSet, target: DyadicBoxSet,
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
        kept = g.inverse().apply(allowed)
        assigned.append((kept, g))
        remaining = remaining.subtract(kept)
        uncovered = uncovered.subtract(allowed)
    return CongruenceCertificate(source, target, assigned, remaining, uncovered)


# ---------------------------------------------------------------------------
# congruence checkers
# ---------------------------------------------------------------------------


def translation_congruent(source: DyadicBoxSet, target: DyadicBoxSet,
                          spacings) -> CongruenceCertificate:
    """Decompose source into lattice translates partitioning target."""
    spacings = [_frac(s) for s in spacings]
    if len(spacings) != source.dim or any(s <= 0 for s in spacings):
        raise ValueError("need a positive spacing per axis")
    sbb, tbb = source.bounding_box(), target.bounding_box()
    if sbb is None or tbb is None:
        return _finish_certificate(source, target, [])
    ranges = []
    for (slo, shi), (tlo, thi), sp in zip(sbb, tbb, spacings):
        kmin = math.floor(float((tlo - shi) / sp))
        kmax = math.ceil(float((thi - slo) / sp))
        ranges.append(range(kmin, kmax + 1))
    keys = sorted(product(*ranges), key=lambda k: (sum(abs(x) for x in k), k))
    candidates = (
        (source, PieceMap.translate([k * s for k, s in zip(key, spacings)]))
        for key in keys
    )
    return _assemble(source, target, candidates)


def dilation_congruent(source: DyadicBoxSet, target: DyadicBoxSet,
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
        (source, PieceMap.dilate(dim, kappa ** k, theta, label=f"D^{k}"))
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


def weyl_congruent(source: DyadicBoxSet, figure) -> CongruenceCertificate:
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
    target = DyadicBoxSet(source.dim, (tuple(intervals),))
    candidates = []
    for box in source.boxes:
        axis_options = [
            list(_axis_fold_pieces(lo, hi, L, H))
            for (lo, hi), (L, H) in zip(box, intervals)
        ]
        for combo in product(*axis_options):
            piece = DyadicBoxSet(source.dim, (tuple((c[0], c[1]) for c in combo),))
            g = PieceMap.axis_affine([c[2] for c in combo], [c[3] for c in combo],
                                     label="fold")
            candidates.append((piece, g))
    candidates.sort(key=lambda cg: cg[0].boxes)
    return _assemble(source, target, candidates)


# ---------------------------------------------------------------------------
# group specifications and fundamental domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One of: translation lattice, dilation group, reflection (fold) group."""

    kind: str  # "translation" | "dilation" | "weyl"
    spacings: Optional[tuple] = None
    kappa: Optional[Fraction] = None
    theta: Optional[tuple] = None
    figure: object = None

    def __post_init__(self):
        if self.kind == "translation":
            if not self.spacings or any(_frac(s) <= 0 for s in self.spacings):
                raise ValueError("translation lattice needs positive spacings")
        elif self.kind == "dilation":
            if self.kappa is None or _frac(self.kappa) <= 1:
                raise ValueError("dilation group needs kappa > 1")
        elif self.kind == "weyl":
            if self.figure is None:
                raise ValueError("reflection group needs a figure")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")


@dataclass
class DomainReport:
    ok: bool
    uncovered_measure: Fraction
    overlap_measure: Fraction


def is_fundamental_domain(candidate: DyadicBoxSet, group: GroupSpec,
                          region: DyadicBoxSet) -> DomainReport:
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
        ranges = []
        for (clo, chi), (rlo, rhi), sp in zip(cbb, rbb, spacings):
            ranges.append(range(math.floor(float((rlo - chi) / sp)),
                                math.ceil(float((rhi - clo) / sp)) + 1))
        maps = [PieceMap.translate([k * s for k, s in zip(key, spacings)])
                for key in product(*ranges)]
    else:
        kappa = _frac(group.kappa)
        theta = [Fraction(0)] * dim if group.theta is None else [_frac(t) for t in group.theta]
        for box in region.boxes:
            if all(lo <= t <= hi for (lo, hi), t in zip(box, theta)):
                raise ValueError("region must be bounded away from the dilation center")
        power = _needed_power_range(candidate, region, kappa, theta, 60)
        maps = [PieceMap.dilate(dim, kappa ** k, theta) for k in range(-power, power + 1)]
    mass = Fraction(0)
    cover = DyadicBoxSet.empty(dim)
    for g in maps:
        image = g.apply(candidate).intersect(region)
        mass += image.measure
        cover = cover.union(image)
    uncovered = region.measure - cover.measure
    overlap = mass - cover.measure
    return DomainReport(uncovered == 0 and overlap == 0, uncovered, overlap)


# ---------------------------------------------------------------------------
# classical sets
# ---------------------------------------------------------------------------


def shannon_set() -> DyadicBoxSet:
    """[-2pi, -pi) U [pi, 2pi) in pi units."""
    return DyadicBoxSet(1, (((Fraction(-2), Fraction(-1)),),
                            ((Fraction(1), Fraction(2)),)))


def base_cube(dim: int, half: bool = True) -> DyadicBoxSet:
    """[0, 2pi)^dim or [-pi, pi)^dim in pi units."""
    if half:
        iv = (Fraction(-1), Fraction(1))
    else:
        iv = (Fraction(0), Fraction(2))
    return DyadicBoxSet.from_box(*([iv] * dim))


def square_annulus() -> DyadicBoxSet:
    """[-2pi, 2pi)^2 minus [-pi, pi)^2: the dilation-by-2I fundamental set."""
    outer = DyadicBoxSet.from_box((Fraction(-2), Fraction(2)), (Fraction(-2), Fraction(2)))
    inner = DyadicBoxSet.from_box((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1)))
    return outer.subtract(inner)


def is_wavelet_set_1d(candidate: DyadicBoxSet) -> dict:
    """Two-generator criterion: translation congruent to [0, 2pi) and
    dilation congruent to the two-sided Shannon set."""
    t = translation_congruent(candidate, DyadicBoxSet.from_box((Fraction(0), Fraction(2))),
                              [Fraction(2)])
    d = dilation_congruent(candidate, shannon_set(), kappa=2, allow_center=True)
    return {
        "translation_residual": t.residual_measure,
        "dilation_residual": d.residual_measure,
        "is_wavelet_set": t.residual_measure == 0 and d.residual_measure == 0,
        "translation_certificate": t,
        "dilation_certificate": d,
    }


# ---------------------------------------------------------------------------
# the two planar fixtures
# ---------------------------------------------------------------------------

TAIL_STANDIN_TERMS = 3


@dataclass
class PlanarFixture:
    """Truncated exact model of one of the two planar three-way tiling sets."""

    wavelet_set: DyadicBoxSet
    depth: int
    tail: Fraction               # exact omitted measure per mirror copy
    copies: int                  # number of mirror copies carrying a tail
    components: dict = field(default_factory=dict)

    @property
    def total_tail(self) -> Fraction:
        return self.copies * self.tail

    @property
    def measure_identity_holds(self) -> bool:
        return self.wavelet_set.measure + self.total_tail == 4


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
    g0 = DyadicBoxSet(2, (g0_box,))
    e1 = DyadicBoxSet(2, gap_boxes[:depth])
    tail = Fraction(1, 60) * Fraction(1, 16) ** depth
    # stand-in for the omitted gaps: the next tail_terms squares plus a
    # rectangle of the residual measure anchored at the corner (2/3, 2/3)
    m = depth + tail_terms
    deep_tail = Fraction(1, 60) * Fraction(1, 16) ** m
    corner = Fraction(2, 3)
    w = Fraction(2, 3) * Fraction(1, 4) ** (m + 1)
    h = deep_tail / w
    rect = ((corner - w, corner), (corner - h, corner))
    standin = DyadicBoxSet(2, gap_boxes[depth:] + [rect])
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
    g0 = DyadicBoxSet(2, (g0_box,))
    e = DyadicBoxSet(2, gap_boxes[:depth])
    tail = Fraction(1, 30) * Fraction(1, 16) ** depth
    m = depth + tail_terms
    deep_tail = Fraction(1, 30) * Fraction(1, 16) ** m
    corner = Fraction(2, 3)
    w = Fraction(2, 3) * Fraction(1, 4) ** (m + 1)
    h = deep_tail / w
    rect = ((corner - w, corner), (-h / 2, h / 2))
    standin = DyadicBoxSet(2, gap_boxes[depth:] + [rect])
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


@dataclass
class ThreeWayReport:
    translation_residual: Fraction
    dilation_residual: Optional[Fraction]
    weyl_residual: Fraction
    dilation_error: Optional[str] = None

    def within(self, bound) -> bool:
        bound = _frac(bound)
        return (self.dilation_error is None
                and self.translation_residual <= bound
                and self.dilation_residual <= bound
                and self.weyl_residual <= bound)


def three_way_check(candidate: DyadicBoxSet, figure, spacings, kappa=2,
                    theta=None) -> ThreeWayReport:
    """Translation, dilation, and reflection congruence residuals at once."""
    intervals = figure.box if isinstance(figure, FoldableFigure) else figure
    target = DyadicBoxSet(candidate.dim, (tuple(intervals),))
    t = translation_congruent(candidate, target, spacings)
    wcert = weyl_congruent(candidate, figure)
    annulus = target.scale(2, center=theta).subtract(target)
    try:
        d = dilation_congruent(candidate, annulus, kappa=kappa, theta=theta)
        d_res, d_err = d.residual_measure, None
    except ValueError as exc:
        d_res, d_err = None, str(exc)
    return ThreeWayReport(t.residual_measure, d_res, wcert.residual_measure, d_err)


# ---------------------------------------------------------------------------
# intersection of the reflection group with the lattice
# ---------------------------------------------------------------------------


@dataclass
class IntersectionGroup:
    """Translations common to the fold group of a box figure and a lattice."""

    generators: tuple  # one translation vector per axis, pi units

    def contains(self, vec) -> bool:
        for v, g in zip(vec, self.generators):
            q = _frac(v) / _frac(g)
            if q.denominator != 1:
                return False
        return True


def intersection_group(figure, spacings) -> IntersectionGroup:
    """Compute the common translation subgroup by composing mirror pairs.

    For a box figure, the fold group restricted to one axis is generated by
    the two mirrors at the interval ends; composing parallel mirrors at
    distance d gives the translation 2d, so the reflective translations form
    the lattice 2(hi-lo) Z per axis and the intersection with the given
    lattice is generated by the least common multiple per axis.
    """
    intervals = figure.box if isinstance(figure, FoldableFigure) else figure
    if intervals is None:
        raise ValueError("intersection analysis requires a box figure")
    gens = []
    for (lo, hi), sp in zip(intervals, spacings):
        period = 2 * (_frac(hi) - _frac(lo))
        sp = _frac(sp)
        # lcm of the two rational periods
        num = math.lcm(period.numerator * sp.denominator, sp.numerator * period.denominator)
        den = period.denominator * sp.denominator
        gens.append(Fraction(num, den))
    return IntersectionGroup(tuple(gens))


# ---------------------------------------------------------------------------
# spectral (orthonormal-basis) check
# ---------------------------------------------------------------------------


def spectral_defect(candidate: DyadicBoxSet, max_index: int = 5) -> float:
    """Largest defect of {e^{i k x}} orthogonality over the set.

    For a set translation congruent to the 2pi cube, the integrals of
    e^{i <k, x>} vanish for every nonzero integer vector k and equal (2pi)^n
    at k = 0; returns the max absolute deviation over |k_i| <= max_index.
    """
    n = candidate.dim
    worst = 0.0
    for k in product(range(-max_index, max_index + 1), repeat=n):
        total = 0 + 0j
        for box in candidate.boxes:
            term = 1 + 0j
            for (lo, hi), ki in zip(box, k):
                if ki == 0:
                    term *= math.pi * float(hi - lo)
                else:
                    term *= (cmath.exp(1j * ki * math.pi * float(hi))
                             - cmath.exp(1j * ki * math.pi * float(lo))) / (1j * ki)
            total += term
        expected = (2 * math.pi) ** n if all(x == 0 for x in k) else 0.0
        worst = max(worst, abs(total - expected))
    return worst


# ---------------------------------------------------------------------------
# abstract-pair wavelet set constructor
# ---------------------------------------------------------------------------


class ConstructionError(RuntimeError):
    def __init__(self, message: str, best_residual):
        super().__init__(f"{message} (best residual {best_residual})")
        self.best_residual = best_residual


@dataclass
class ConstructionResult:
    wavelet_set: DyadicBoxSet
    translation_certificate: CongruenceCertificate
    dilation_certificate: CongruenceCertificate
    iterations: int
    residual_history: list


def construct_wavelet_set(translation_domain: DyadicBoxSet,
                          dilation_domain: DyadicBoxSet,
                          spacings, kappa=2, theta=None,
                          epsilon=Fraction(1, 10 ** 6),
                          max_iterations: int = 50,
                          relocation_step=None) -> ConstructionResult:
    """Iterative congruence exchange between a translation and a dilation domain.

    Start from the translation fundamental domain.  Each round, the parts
    that cannot be placed in the dilation tiling (the inner leftovers around
    the center) are moved outward by lattice translations into empty space;
    lattice moves keep the translation congruence exact while the moved
    pieces land in high dilates, so the unplaced measure contracts
    geometrically.
    """
    epsilon = _frac(epsilon)
    dim = translation_domain.dim
    theta_v = [Fraction(0)] * dim if theta is None else [_frac(t) for t in theta]
    spacings = [_frac(s) for s in spacings]
    step = spacings if relocation_step is None else [_frac(s) for s in relocation_step]
    current = translation_domain
    history = []
    best = None
    for iteration in range(max_iterations + 1):
        cert = dilation_congruent(current, dilation_domain, kappa=kappa,
                                  theta=theta_v, allow_center=True)
        residual = cert.residual_measure
        history.append(residual)
        if best is None or residual < best:
            best = residual
        if residual <= epsilon:
            t_cert = translation_congruent(current, translation_domain, spacings)
            return ConstructionResult(current, t_cert, cert, iteration, history)
        moved = current
        for box in sorted(cert.source_residual.boxes):
            piece = DyadicBoxSet(dim, (box,))
            direction = []
            for (lo, hi), t in zip(box, theta_v):
                center = (lo + hi) / 2
                direction.append(1 if center >= t else -1)
            placed = False
            for j in range(1, 65):
                tau = [j * d * s for d, s in zip(direction, step)]
                shifted = piece.translate(tau)
                if moved.intersect(shifted).is_empty:
                    moved = moved.subtract(piece).union(shifted)
                    placed = True
                    break
            if not placed:
                raise ConstructionError("could not relocate a defective piece", best)
        current = moved
    raise ConstructionError("did not reach the requested residual", best)
