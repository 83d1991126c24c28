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

Every group is described by a `GroupSpec`, checked with its data per axis
when it is made, which `_group` checks against the dimension of the sets it
acts on before it makes the kernel's group.  The three congruence
checkers and `is_fundamental_domain` share one kernel, `_reduce_and_claim`.  A
group cuts a set into parts, one per group word, each mapped into the
group's fundamental domain; grids are refined so that every cell reduces
into one cell of the reduced breakpoints, and the certificate is built by
index arithmetic, with no set operation per part:
- lattice: per axis the period cells of the spacing, shifted onto cell 0;
  claims by k = target word - source word in the order (sum |k|, k);
- fold: per axis the slabs between mirrors, folded onto the figure box; the
  first source cell in lexicographic word order takes a target cell;
- dilation by kappa about the origin: the shells kappa**J B minus
  kappa**(J-1) B of the half-open box B of radius 1 about the origin, scaled
  by kappa**-J; a cell's shell is exact integer arithmetic, and claims go in
  ascending k = target shell - source shell.  When the origin lies in the
  closure of the source, the source repeats in every shell J <= J0 below
  its nearest breakpoint.  With M target shells only the top M copies of a
  repeating cell can be claimed: a deeper copy would claim after M
  shallower ones, each holding a distinct other target cell, of which there
  are M - 1.  So shells down to J0 - M + 1 are explicit, and the rest of
  the source, S meet kappa**(J0 - M) B, stays whole in the residual.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

import numpy as np

from .geometry import _frac, _int_dtype

Box = tuple  # ((lo, hi), ...) per axis, half-open, Fractions


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


def _grid_measure(den: int, cuts: tuple, weight: np.ndarray) -> Fraction:
    """The sum over the cells of a grid of an integer weight times the cell's volume."""
    # the bounding box volume in grid units times the largest weight bounds
    # every partial sum
    dtype = _int_dtype(math.prod(c[-1] - c[0] for c in cuts) * max(int(weight.max()), 1))
    total = weight.astype(dtype)
    for c in reversed(cuts):
        total = total @ np.array([b - a for a, b in zip(c, c[1:])], dtype=dtype)
    return Fraction(int(total), den ** len(cuts))


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
        if dim < 1:
            raise ValueError(f"a box set needs at least one axis, not {dim}")
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
            # each axis maps indices to coordinates increasingly, so sorting
            # the index boxes sorts the boxes
            self._boxes = tuple(
                tuple((coords[axis][i], coords[axis][j]) for axis, (i, j) in enumerate(box))
                for box in sorted(_index_boxes(self.mask)))
        return self._boxes

    @property
    def measure(self) -> Fraction:
        if self._measure is None:
            if self.is_empty:
                self._measure = Fraction(0)
            else:
                self._measure = _grid_measure(self.den, self.cuts, self.mask)
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

    # the grid is canonical, so equality of the fields is equality a.e.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim == other.dim and self.den == other.den and self.cuts == other.cuts
                and np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.dim, self.den, self.cuts, self.mask.tobytes()))

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
        return self == other

    def contains_ae(self, other: "DyadicBoxSet") -> bool:
        return other.subtract(self).is_empty

    # -- exact transforms ----------------------------------------------------------

    def _monomial(self, source_axis, coeffs, offsets) -> "DyadicBoxSet":
        """Image under x_i -> coeffs[i] * x_{source_axis[i]} + offsets[i], after
        the one check of a map against the set, which every transform takes:
        one coefficient and offset per axis, each source axis once, none 0."""
        if len(coeffs) != self.dim or len(offsets) != self.dim:
            raise ValueError(f"dimension mismatch: coefficients for {len(coeffs)} axes and "
                             f"offsets for {len(offsets)} on a {self.dim}-D set")
        if sorted(source_axis) != list(range(self.dim)):
            raise ValueError("exact transforms need monomial matrices")
        if 0 in coeffs:
            raise ValueError("zero scale")
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

    def scale(self, factor) -> "DyadicBoxSet":
        """x -> factor*x, exact rational factor."""
        return self._monomial(range(self.dim), [_frac(factor)] * self.dim,
                              [Fraction(0)] * self.dim)

    def transform(self, linear, translation=None) -> "DyadicBoxSet":
        """Image under x -> L x + t for a monomial (box-preserving) matrix L."""
        rows = [[_frac(x) for x in row] for row in linear]
        offsets = [_frac(v) for v in ([0] * self.dim if translation is None else translation)]
        source_axis = []
        for row in rows:
            nz = [j for j, x in enumerate(row) if x != 0]
            if len(nz) != 1:
                raise ValueError("exact transforms need monomial matrices")
            source_axis.append(nz[0])
        return self._monomial(source_axis, [row[j] for row, j in zip(rows, source_axis)], offsets)

    def reflect_axis(self, axis: int) -> "DyadicBoxSet":
        """Mirror x_axis -> -x_axis."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"no axis {axis} in a {self.dim}-D set")
        coeffs = [Fraction(-1) if i == axis else Fraction(1) for i in range(self.dim)]
        return self._monomial(range(self.dim), coeffs, [Fraction(0)] * self.dim)

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
    def translate(vec) -> "PieceMap":
        return PieceMap.axis_affine([1] * len(vec), vec, f"t{tuple(map(str, vec))}")

    @staticmethod
    def dilate(dim: int, factor, label: str = "") -> "PieceMap":
        return PieceMap.axis_affine([factor] * dim, [0] * dim, label)

    @staticmethod
    def axis_affine(coeffs, offsets, label: str = "") -> "PieceMap":
        """Diagonal map x_i -> c_i x_i + o_i."""
        n = len(coeffs)
        rows = tuple(tuple(_frac(coeffs[i]) if i == j else Fraction(0) for j in range(n))
                     for i in range(n))
        return PieceMap(rows, tuple(_frac(o) for o in offsets), label)

    def apply(self, boxset: DyadicBoxSet) -> DyadicBoxSet:
        return boxset.transform(self.linear, self.translation)


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


class CongruenceCertificate:
    """Decomposition of a source set into group-moved pieces inside a target.

    `pieces` is a list of (DyadicBoxSet, PieceMap).  A checker's certificate
    keeps its claim instead (`_claimed_pieces`), builds the list from it on
    the first read of `pieces` and then drops the claim, so a caller that
    reads only the residuals builds no piece.
    """

    __hash__ = None

    def __init__(self, source: DyadicBoxSet, target: DyadicBoxSet, pieces: list,
                 source_residual: DyadicBoxSet, target_residual: DyadicBoxSet):
        self.source, self.target = source, target
        self.source_residual, self.target_residual = source_residual, target_residual
        self._pieces, self._claim = pieces, None

    @property
    def pieces(self) -> list:
        if self._claim is not None:
            self._pieces, self._claim = _claimed_pieces(*self._claim), None
        return self._pieces

    def _fields(self) -> tuple:
        return (self.source, self.target, self.pieces, self.source_residual,
                self.target_residual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        names = ("source", "target", "pieces", "source_residual", "target_residual")
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields())) + ")")

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


# ---------------------------------------------------------------------------
# congruence checkers: one reduce-and-claim kernel
# ---------------------------------------------------------------------------


def _level(d: Fraction, kappa: Fraction) -> int:
    """The largest integer J with kappa**J <= d, for d > 0, by exact comparison."""
    j, r = 0, Fraction(1)
    while r > d:
        j, r = j - 1, r / kappa
    while r * kappa <= d:
        j, r = j + 1, r * kappa
    return j


def _spread(boxset: DyadicBoxSet) -> Optional[tuple]:
    """(least, greatest) sup-norm distance from the origin to the closure of a
    set, the least 0 exactly when the origin lies in the closure; None for
    the empty set."""
    if boxset.is_empty:
        return None
    far = max(max(-c[0], c[-1]) for c in boxset.cuts)
    near = np.zeros((1,) * boxset.dim, dtype=_int_dtype(2 * far))
    for axis, c in enumerate(boxset.cuts):
        d = np.array([max(a, -b, 0) for a, b in zip(c, c[1:])], dtype=near.dtype)
        near = np.maximum(near, d.reshape((-1,) + (1,) * (boxset.dim - axis - 1)))
    return Fraction(int(near[boxset.mask].min()), boxset.den), Fraction(far, boxset.den)


class _Slabs:
    """The lattice (`mirror` False) or the fold group (`mirror` True) of a box,
    in grid units: a word is the tuple of a cell's slabs, one per axis."""

    scale, joint = 1, False

    def __init__(self, source, target, intervals, mirror):
        self.den = den = math.lcm(source.den, target.den,
                                  *(x.denominator for iv in intervals for x in iv))
        self.intervals, self.mirror = intervals, mirror
        self.ends = [(int(lo * den), int(hi * den)) for lo, hi in intervals]
        self.words = tuple([range((c[0] - lo) // (hi - lo), (c[-1] - 1 - lo) // (hi - lo) + 1)
                            for c, (lo, hi) in zip(_rescaled(s, den), self.ends)]
                           for s in (source, target))
        # the fold's target is the box, slab 0, so -k is the source word
        self.rank = ((lambda k: tuple(-x for x in k)) if mirror
                     else (lambda k: (sum(map(abs, k)), k)))

    def reduce(self, i, m, x, back=False):
        lo, hi = self.ends[i]
        if self.mirror and m % 2:
            return lo + hi + m * (hi - lo) - x
        return x + m * (hi - lo) if back else x - m * (hi - lo)

    def axis_word(self, i, a, b):
        lo, hi = self.ends[i]
        return (a - lo) // (hi - lo)

    def element(self, key):
        if not self.mirror:
            return PieceMap.translate([k * (hi - lo) for k, (lo, hi) in zip(key, self.intervals)])
        return PieceMap.axis_affine([-1 if k % 2 else 1 for k in key],
                                    [2 * L + (1 - k) * (H - L) if k % 2 else k * (H - L)
                                     for k, (L, H) in zip(key, self.intervals)], label="fold")


class _Shells:
    """The powers of D x = kappa x, in grid units: a word is a cell's shell,
    the greatest over the axes of the least J whose box kappa**J B holds the
    cell there, read off the integer radii kappa**J."""

    joint = True

    def __init__(self, source, target, kappa, spread):
        (near, far), (near_t, far_t) = spread
        # a point at sup-distance d from the origin lies in a shell J with
        # d <= kappa**J, and a cell reaches down to the least J with
        # kappa**J > its least distance d
        low_t, top_t, top = (_level(near_t, kappa) + 1, -_level(1 / far_t, kappa),
                             -_level(1 / far, kappa))
        if near > 0:
            floor = _level(near, kappa)
        else:  # the lump: shells J <= J0 - M repeat and cannot claim
            nearest = Fraction(min(abs(x) for c in source.cuts for x in c if x), source.den)
            floor = _level(nearest, kappa) - (top_t - low_t + 1)
        self.low, high = min(floor, low_t - 1), max(top, top_t)
        self.power = {j: kappa ** j for j in range(self.low, high + 1)}
        self.scale = (kappa.numerator * kappa.denominator) ** (max(high - self.low, -self.low,
                                                                   high) + 1)
        self.den = den = math.lcm(source.den, target.den) * self.scale
        inner = den * kappa.denominator // kappa.numerator
        self.ends = [(-den, -inner, inner, den)] * source.dim
        self.radii = [int(den * p) for p in self.power.values()]
        self.words = tuple([range(lo, hi + 1)] * source.dim
                           for lo, hi in ((floor + 1, top), (low_t, top_t)))
        self.kappa, self.dim, self.rank = kappa, source.dim, (lambda k: k)

    def reduce(self, i, j, x, back=False):
        f = self.power[j] if back else 1 / self.power[j]
        return x * f.numerator // f.denominator

    def axis_word(self, i, a, b):
        return self.low + np.searchsorted(np.array(self.radii, dtype=a.dtype),
                                          np.maximum(-a, b))

    def element(self, key):
        return PieceMap.dilate(self.dim, self.kappa ** key[0], label=f"D^{key[0]}")


def _parts(group, cuts, mask, words, T, dtype) -> tuple:
    """Refine a set so that each true cell lies in one part and reduces into
    one cell of T.  Returns the refined grid and mask; for the true cells in
    a part their indices, word ids and flat indices of T; and which words
    hold which cells of T."""
    grid, own, table = [], [], []
    for i, (c, t, ws) in enumerate(zip(cuts, T, words)):
        g = np.unique(np.concatenate([np.array(c, dtype=dtype)] + [
            y[(c[0] < y) & (y < c[-1])] for y in (group.reduce(i, w, t, True) for w in ws)]))
        a, b = g[:-1], g[1:]
        own.append((np.maximum(group.axis_word(i, a, b), ws[0] - 1) - ws[0]).astype(np.intp))
        table.append(np.array([np.searchsorted(t, np.minimum(group.reduce(i, w, a),
                                                             group.reduce(i, w, b)), "right") - 1
                               for w in ws], dtype=np.intp))
        grid.append(tuple(g.tolist()))
    mask = _resample(cuts, mask, grid)
    cells = np.nonzero(mask)
    own = [w[c] for w, c in zip(own, cells)]
    if group.joint:  # a cell's shell is the greatest over its axes; -1 is the lump
        own = [np.maximum.reduce(own)] * len(own)
    word = own[0] if group.joint else np.ravel_multi_index(own, [len(ws) for ws in words])
    cells = tuple(c[word >= 0] for c in cells)
    index = tuple(where[w[word >= 0], c] for where, w, c in zip(table, own, cells))
    flat = np.ravel_multi_index(index, tuple(len(t) - 1 for t in T))
    has = np.zeros((math.prod(map(len, words[:1] if group.joint else words)),
                    math.prod(len(t) - 1 for t in T)), dtype=bool)
    has[word[word >= 0], flat] = True
    return tuple(grid), mask, cells, word[word >= 0], flat, has


def _reduction(source, target, group) -> tuple:
    """The parts of both sets over their reduced breakpoints T."""
    sets = [(_rescaled(s, group.den), s.mask, w) for s, w in zip((source, target), group.words)]
    reach = max(abs(x) for x in (*(c[k] for cuts, _, _ in sets for c in cuts for k in (0, -1)),
                                 *(x for e in group.ends for x in e)))
    dtype = _int_dtype(16 * reach * group.scale)
    T = []
    for i, ends in enumerate(group.ends):
        points = [np.array(ends, dtype=dtype)]
        for cuts, _, words in sets:
            c = np.array(cuts[i], dtype=dtype)
            points.extend(y[(ends[0] <= y) & (y <= ends[-1])]
                          for y in (group.reduce(i, w, c) for w in words[i]))
        T.append(np.unique(np.concatenate(points)))
    return tuple(_parts(group, *s, T, dtype) for s in sets)


def _reduce_and_claim(source, target, group) -> CongruenceCertificate:
    """Certify source against target under a group, by the reduction above.

    A source part claims a target part's copy of a reduced cell when both
    are still free, pair by pair in the group's rank of k = target word -
    source word.  The certificate has one piece per group element used, in
    that order, built from the claim on first read (`_claimed_pieces`), and
    the unclaimed cells are the residuals.  The group is None when a set is
    empty (`_group`).
    """
    if group is None:
        return CongruenceCertificate(source, target, [], source, target)
    dim, den = source.dim, group.den
    (sgrid, smask, scells, sw, sc, free_s), (tgrid, tmask, tcells, tw, tc, free_t) = \
        _reduction(source, target, group)
    words = [[(j,) for j in ws[0]] if group.joint else list(product(*ws)) for ws in group.words]
    pairs: dict = {}  # k -> the pairs of (source word, target word) that hold cells
    for s, t in product(np.flatnonzero(free_s.any(axis=1)), np.flatnonzero(free_t.any(axis=1))):
        pairs.setdefault(tuple(b - a for a, b in zip(words[0][s], words[1][t])), []).append((s, t))
    keys = sorted(pairs, key=group.rank)
    claim = np.full(free_s.shape, -1, dtype=np.int32)
    for n, k in enumerate(keys):
        for s, t in pairs[k]:
            hit = free_s[s] & free_t[t]
            free_s[s] &= ~hit
            free_t[t] &= ~hit
            claim[s, hit] = n
    key_of = claim[sw, sc]
    held = key_of >= 0
    cells, key_of = tuple(c[held] for c in scells), key_of[held]
    kept, left = np.zeros_like(smask), np.zeros_like(tmask)
    kept[cells] = True
    left[tuple(c[free_t[tw, tc]] for c in tcells)] = True
    cert = CongruenceCertificate(source, target, None,
                                 DyadicBoxSet._grid(dim, *_canonical(den, sgrid, smask & ~kept)),
                                 DyadicBoxSet._grid(dim, *_canonical(den, tgrid, left)))
    cert._claim = (group, sgrid, cells, key_of, keys)
    return cert


def _claimed_pieces(group, grid, cells, key_of, keys) -> list:
    """A claim's pieces: per key index n in ascending order, the claimed cells
    of the refined source grid with index n as one canonical set, moved by
    the group element of keys[n]."""
    pieces = []
    for n in np.unique(key_of):
        part_cells = tuple(c[key_of == n] for c in cells)
        lo = [int(c.min()) for c in part_cells]
        part = np.zeros([int(c.max()) + 1 - l for c, l in zip(part_cells, lo)], dtype=bool)
        part[tuple(c - l for c, l in zip(part_cells, lo))] = True
        cuts = tuple(g[l:l + k + 1] for g, l, k in zip(grid, lo, part.shape))
        pieces.append((DyadicBoxSet._grid(len(grid), *_canonical(group.den, cuts, part)),
                       group.element(keys[n])))
    return pieces


# ---------------------------------------------------------------------------
# group specifications: the one description and check of a group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One of: translation lattice, dilation group, reflection (fold) group.

    The lattice has a positive spacing per axis, the dilation group is
    dilation by kappa about the origin, x -> kappa x with kappa > 1, and the
    fold group has a `FoldableFigure` with a box of positive widths.  A spec
    is checked when made, and keeps its period cells (0, s) or its box per
    axis as Fractions (`_axes`).
    """

    kind: str  # "translation" | "dilation" | "weyl"
    spacings: Optional[tuple] = None
    kappa: Optional[Fraction] = None
    figure: object = None
    _per_axis: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "translation":
            axes = tuple((Fraction(0), _frac(s)) for s in self.spacings or ())
            if not axes or any(hi <= 0 for _, hi in axes):
                raise ValueError("translation lattice needs positive spacings")
        elif self.kind == "dilation":
            if self.kappa is None or _frac(self.kappa) <= 1:
                raise ValueError("dilation group needs kappa > 1")
            axes = None
        elif self.kind == "weyl":
            if self.figure is None:
                raise ValueError("reflection group needs a figure")
            box = getattr(self.figure, "box", None)
            if box is None:
                raise ValueError("a box figure is required")
            axes = tuple((_frac(lo), _frac(hi)) for lo, hi in box)
            if any(lo >= hi for lo, hi in axes):
                raise ValueError("the figure box needs positive widths")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")
        object.__setattr__(self, "_per_axis", axes)


def _axes(spec: GroupSpec, dim: int) -> tuple:
    """A lattice's or a fold group's data per axis (`GroupSpec`), checked
    against the dimension of the sets it acts on."""
    axes = spec._per_axis
    if len(axes) != dim:
        raise ValueError(f"dimension mismatch: {len(axes)} axes of the {spec.kind} group "
                         f"for {dim}-D sets")
    return axes


def _group(spec: GroupSpec, source: DyadicBoxSet, target: DyadicBoxSet,
           allow_center: bool = False, names=("source", "target")):
    """Check a spec against two sets and make the kernel's group for them.

    The sets and the group have one dimension, and the dilation centre, the
    origin, lies outside the closure of the target, and of the source unless
    `allow_center`.  None when a set is empty: there is nothing to reduce.
    """
    if source.dim != target.dim:
        raise ValueError(f"dimension mismatch: a {source.dim}-D {names[0]} "
                         f"and a {target.dim}-D {names[1]}")
    if spec.kind != "dilation":
        axes = _axes(spec, source.dim)
        if source.is_empty or target.is_empty:
            return None
        return _Slabs(source, target, axes, spec.kind == "weyl")
    spread = [_spread(s) for s in (source, target)]
    for s, name, allowed in zip(spread, names, (allow_center, False)):
        if s is not None and s[0] == 0 and not allowed:
            raise ValueError(f"dilation center lies in the closure of the {name}")
    if source.is_empty or target.is_empty:
        return None
    return _Shells(source, target, _frac(spec.kappa), spread)


def translation_congruent(source: DyadicBoxSet, target: DyadicBoxSet,
                          spacings) -> CongruenceCertificate:
    """Decompose source into lattice translates partitioning target."""
    lattice = GroupSpec("translation", spacings=tuple(spacings))
    return _reduce_and_claim(source, target, _group(lattice, source, target))


def dilation_congruent(source: DyadicBoxSet, target: DyadicBoxSet,
                       kappa=2, allow_center: bool = False) -> CongruenceCertificate:
    """Decompose source into powers of D(x) = kappa*x covering target.

    The origin may lie in the closure of the source only with
    `allow_center`, and never in the closure of the target.
    """
    dilations = GroupSpec("dilation", kappa=kappa)
    return _reduce_and_claim(source, target, _group(dilations, source, target, allow_center))


def weyl_congruent(source: DyadicBoxSet, figure) -> CongruenceCertificate:
    """Fold source into a box foldable figure; congruent iff it tiles it once.

    The folding group is generated by the reflections about the figure's
    bounding hyperplanes; per axis the fold is the triangle wave of period
    2(H - L) onto [L, H], and each reflection word used is one piece.
    """
    folds = GroupSpec("weyl", figure=figure)
    target = DyadicBoxSet(source.dim, (_axes(folds, source.dim),))
    return _reduce_and_claim(source, target, _group(folds, source, target))


@dataclass
class DomainReport:
    ok: bool
    uncovered_measure: Fraction
    overlap_measure: Fraction


def is_fundamental_domain(candidate: DyadicBoxSet, group: GroupSpec,
                          region: DyadicBoxSet) -> DomainReport:
    """Check that the group orbit of the candidate partitions the region.

    A point of the region is covered as often as parts of the candidate hold
    its reduced cell, under the lattice, the dilation group or the fold
    group alike: it is uncovered where that count is 0 and overlapped
    count - 1 times where it is above 1.
    """
    g = _group(group, candidate, region, names=("candidate", "region"))
    if g is None:
        return DomainReport(not candidate.is_empty, region.measure, Fraction(0))
    held, (grid, mask, cells, _, flat, _) = _reduction(candidate, region, g)
    count = held[-1].sum(axis=0)[flat]
    weight = np.zeros((2,) + mask.shape, dtype=np.intp)
    weight[(0,) + cells], weight[(1,) + cells] = count == 0, np.maximum(count - 1, 0)
    uncovered, overlap = (_grid_measure(g.den, grid, w) for w in weight)
    return DomainReport(uncovered == 0 and overlap == 0, uncovered, overlap)


# ---------------------------------------------------------------------------
# classical sets
# ---------------------------------------------------------------------------


def shannon_set() -> DyadicBoxSet:
    """[-2pi, -pi) U [pi, 2pi) in pi units."""
    return DyadicBoxSet(1, (((Fraction(-2), Fraction(-1)),),
                            ((Fraction(1), Fraction(2)),)))


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


def _staircase(depth: int, tail_terms: int, y_side, shift, names) -> tuple:
    """(tail, {G0, E, B, C, A1} under `names`, stand-in) of a planar fixture.

    The gap G_k has the x-side [beta_k, beta_k + 4^-k / 2) with beta_k =
    2/3 (1 - 4^-k), and the y-side `y_side` of it.  E holds G_1 .. G_depth;
    the gaps beyond G_n have the measure 16 m(G_1) / (15 16^n), and the
    stand-in for those beyond G_depth is the next `tail_terms` gaps and a box
    of the rest, from G_(m+1) to the corner 2/3, m = depth + tail_terms.
    B = 2 G_0 minus G_0, E and the stand-in, C = (G_0 u E) + `shift`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")

    def gap(k):
        lo = Fraction(2, 3) * (1 - Fraction(1, 4) ** k)
        x = (lo, lo + Fraction(1, 2) * Fraction(1, 4) ** k)
        return x, y_side(*x)

    m = depth + tail_terms
    first, *gaps, last = [gap(k) for k in range(m + 2)]
    (x0, x1), (y0, y1) = gaps[0]
    rest = 16 * (x1 - x0) * (y1 - y0) / 15
    # the y-side of an x-side of length t has the length t (y1 - y0) / (x1 - x0)
    lo, corner = last[0][0], Fraction(2, 3)
    t = rest / 16 ** m / (corner - lo) * (x1 - x0) / (y1 - y0)
    g0 = DyadicBoxSet(2, (first,))
    e = DyadicBoxSet(2, gaps[:depth])
    standin = DyadicBoxSet(2, gaps[depth:] + [((lo, corner), y_side(corner - t, corner))])
    tail = rest / 16 ** depth
    assert standin.measure == tail
    ge = g0.union(e)
    c = ge.translate(shift)
    b = g0.scale(2).subtract(ge.union(standin))
    return tail, dict(zip(names + ("A1",), (g0, e, b, c, b.union(c)))), standin


def build_w1(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Four-quadrant planar wavelet set built from a staircase of gap squares
    on the diagonal, marching to (2pi/3, 2pi/3).

    The infinite staircase is truncated at `depth`; the omitted measure (an
    exact geometric series) is carved out of B_1 by a stand-in region of
    exactly that measure near the accumulation corner, so the measure
    identity m(W) + 4*tail = 4*pi^2 holds as an exact rational identity.
    """
    tail, parts, standin = _staircase(depth, tail_terms, lambda lo, hi: (lo, hi), (2, 2),
                                      ("G0", "E1", "B1", "C1"))
    a1 = parts["A1"]
    a2, a4 = a1.reflect_axis(0), a1.reflect_axis(1)
    a3 = a2.reflect_axis(1)
    return PlanarFixture(a1.union(a2).union(a3).union(a4), depth, tail, 4,
                         {**parts, "A2": a2, "A3": a3, "A4": a4, "tail_standin": standin})


def build_w2(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Two-piece planar wavelet set symmetric about the y-axis, its gaps
    centred on the x-axis."""
    tail, parts, standin = _staircase(depth, tail_terms, lambda lo, hi: (lo - hi, hi - lo),
                                      (2, 0), ("G0", "E", "B", "D"))
    a2 = parts["A1"].reflect_axis(0)
    return PlanarFixture(parts["A1"].union(a2), depth, tail, 2,
                         {**parts, "A2": a2, "tail_standin": standin})


@dataclass
class ThreeWayReport:
    translation_residual: Fraction
    dilation_residual: Fraction
    weyl_residual: Fraction

    def within(self, bound) -> bool:
        bound = _frac(bound)
        return (self.translation_residual <= bound
                and self.dilation_residual <= bound
                and self.weyl_residual <= bound)


def three_way_check(candidate: DyadicBoxSet, figure, spacings) -> ThreeWayReport:
    """Translation, dilation by 2, and reflection congruence residuals at once;
    the dilation target is the annulus 2B minus B of the figure box B.  A
    checker's ValueError goes through, as when the origin lies in the
    closure of the candidate."""
    # only the residual measures are kept, so no certificate outlives its check
    wcert = weyl_congruent(candidate, figure)
    box, w_res = wcert.target, wcert.residual_measure
    del wcert
    t_res = translation_congruent(candidate, box, spacings).residual_measure
    d_res = dilation_congruent(candidate, box.scale(2).subtract(box)).residual_measure
    return ThreeWayReport(t_res, d_res, w_res)


# ---------------------------------------------------------------------------
# intersection of the reflection group with the lattice
# ---------------------------------------------------------------------------


def intersection_group(figure, spacings) -> GroupSpec:
    """The translations common to the fold group of a box figure and a
    lattice, as the lattice they form.

    For a box figure, the fold group restricted to one axis is generated by
    the two mirrors at the interval ends; composing parallel mirrors at
    distance d gives the translation 2d, so the reflective translations form
    the lattice 2(hi-lo) Z per axis and the intersection with the given
    lattice is generated by the least common multiple per axis.
    """
    lattice = GroupSpec("translation", spacings=tuple(spacings))._per_axis
    gens = []
    for (_, sp), (lo, hi) in zip(lattice, _axes(GroupSpec("weyl", figure=figure), len(lattice))):
        period = 2 * (hi - lo)
        # lcm of the two rational periods
        num = math.lcm(period.numerator * sp.denominator, sp.numerator * period.denominator)
        gens.append(Fraction(num, period.denominator * sp.denominator))
    return GroupSpec("translation", spacings=tuple(gens))


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
                          spacings, kappa=2,
                          epsilon=Fraction(1, 10 ** 6),
                          max_iterations: int = 50,
                          relocation_step=None) -> ConstructionResult:
    """Iterative congruence exchange between a translation domain and a
    dilation domain, dilating about the origin.

    Start from the translation fundamental domain.  Each round, the parts
    that cannot be placed in the dilation tiling (the inner leftovers around
    the center) are moved outward by lattice translations into empty space;
    lattice moves keep the translation congruence exact while the moved
    pieces land in high dilates, so the unplaced measure contracts
    geometrically.
    """
    epsilon = _frac(epsilon)
    dim = translation_domain.dim
    def lattice(gens):  # checked before the first round, not after the last
        return [s for _, s in _axes(GroupSpec("translation", spacings=tuple(gens)), dim)]
    spacings = lattice(spacings)
    step = spacings if relocation_step is None else lattice(relocation_step)
    current = translation_domain
    history = []
    for iteration in range(max_iterations + 1):
        cert = dilation_congruent(current, dilation_domain, kappa=kappa, allow_center=True)
        residual = cert.residual_measure
        history.append(residual)
        if residual <= epsilon:
            t_cert = translation_congruent(current, translation_domain, spacings)
            return ConstructionResult(current, t_cert, cert, iteration, history)
        moved = current
        for box in sorted(cert.source_residual.boxes):
            piece = DyadicBoxSet(dim, (box,))
            direction = [1 if lo + hi >= 0 else -1 for lo, hi in box]
            for j in range(1, 65):
                tau = [j * d * s for d, s in zip(direction, step)]
                shifted = piece.translate(tau)
                if moved.intersect(shifted).is_empty:
                    moved = moved.subtract(piece).union(shifted)
                    break
            else:
                raise ConstructionError("could not relocate a defective piece", min(history))
        current = moved
    raise ConstructionError("did not reach the requested residual", min(history))
