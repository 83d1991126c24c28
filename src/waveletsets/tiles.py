"""Exact wavelet-set computations with half-open boxes.

Coordinates are rational multiples of pi (a box [0, 2) here is [0, 2*pi) in
the plane), so measures in pi^n units are plain Fractions and congruence
residuals compare exactly.  Group elements are exact affine maps whose linear
parts are monomial matrices (signed scaled permutations), which carry boxes
to boxes.

A box set is a canonical integer grid (`DyadicBoxSet`): a denominator, sorted
integer breakpoints per axis and a boolean mask over the cells between them.
Every binary set operation is one mask operation on the sorted union of
both sets' breakpoints, whose empty boundary slabs the canonical form
trims; measures are exact integer sums, and equality almost everywhere is
a comparison of grids.
One painter (`_paint`) puts lists of integer boxes on one grid, for a new
set and for the planar fixtures, whose parts are then mask operations and
flips on that grid.  `DyadicBoxSet.boxes` is a view derived from the grid
for output and for per-box iteration, listed from whole-array runs of the
mask; which boxes it lists in 2-D and above is not part of the contract
(in 1-D it lists the maximal intervals).

Every group is described by a `GroupSpec`, checked with its data per axis
when it is made, which `_group` checks against the dimension of the sets it
acts on before it makes the kernel's group.  The three congruence
checkers share one kernel, `_reduce_and_claim`; `is_fundamental_domain`
counts orbit copies on its reduction, which the verdicts read where their
target is a fundamental domain.  A group cuts a set into parts, one per
group word, each mapped into the group's fundamental domain; grids are
refined so that every cell reduces into one cell of the reduced
breakpoints, and the certificate is built by index arithmetic, with no set
operation per part:
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
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Iterable, Optional

import numpy as np

from .geometry import _frac, _int_dtype, _json_fractions, _json_value
from .reflections import box_widths

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
        lo, hi = [slice(None)] * dim, [slice(None)] * dim
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
    past them on either side: cells outside `cuts` are empty, so the empty
    set's grid, with no breakpoints, resamples to all-false."""
    # a false slab on each side of every axis holds the cells outside
    out = np.zeros(tuple(n + 2 for n in mask.shape), dtype=bool)
    out[(slice(1, -1),) * mask.ndim] = mask
    for axis, (axis_cuts, axis_grid) in enumerate(zip(cuts, grid)):
        index = [bisect_right(axis_cuts, x) for x in axis_grid[:-1]]
        out = out.take(np.array(index, dtype=np.intp), axis=axis)
    return out


def _grid_measure(den: int, cuts: tuple, weight: np.ndarray) -> Fraction:
    """The sum over the cells of a grid of an integer weight times their volume."""
    if weight.size == 0:
        return Fraction(0)
    # the box volume in grid units times the largest weight bounds every partial sum
    dtype = _int_dtype(math.prod(c[-1] - c[0] for c in cuts) * max(int(weight.max()), 1))
    total = weight.astype(dtype)
    for c in reversed(cuts):
        total = total @ np.array([b - a for a, b in zip(c, c[1:])], dtype=dtype)
    return Fraction(int(total), den ** len(cuts))


def _index_boxes(mask: np.ndarray) -> np.ndarray:
    """Cover the true cells by index boxes, one row (i0, j0, i1, j1, ...) of
    [i, j) per axis: maximal runs along the last axis, merged along each
    earlier axis, last to first, over consecutive slabs that hold the same
    box of the other axes (one sort of the rows per axis); the rows in
    lexicographic order, as the runs of a 1-D mask already are."""
    dim = mask.ndim
    padded = np.zeros(mask.shape[:-1] + (mask.shape[-1] + 2,), dtype=bool)
    padded[..., 1:-1] = mask
    # the run ends of each line along the last axis come in pairs, in C order
    *lines, ends = np.nonzero(padded[..., 1:] != padded[..., :-1])
    rows = np.stack([c for i in lines for c in (i[::2], i[::2] + 1)] + [ends[::2], ends[1::2]],
                    axis=1)
    for axis in range(dim - 2, -1, -1):
        lo, hi = 2 * axis, 2 * axis + 1
        rest = [k for k in range(2 * dim) if k // 2 != axis]
        rows = rows[np.lexsort(rows[:, [lo] + rest].T)]
        joins = (rows[1:, rest] == rows[:-1, rest]).all(axis=1) & (rows[1:, lo] == rows[:-1, hi])
        opens, closes = np.ones((2, len(rows)), dtype=bool)
        opens[1:], closes[:-1] = ~joins, ~joins
        ends = rows[closes, hi]
        rows = rows[opens]
        rows[:, hi] = ends
    return rows[np.lexsort(rows.T[::-1])] if dim > 1 else rows


def _paint(dim: int, box_lists: list, mirrored=()) -> tuple:
    """(cuts, masks): lists of integer boxes ((lo, hi), ...) painted on one
    grid, whose breakpoints per axis are the ends of every box, closed under
    negation along the axes in `mirrored`, so the mirror image of a mask
    along one of them is its flip.  Each list gets one mask, true on the
    cells its boxes cover."""
    cuts = []
    for axis in range(dim):
        ends = {x for boxes in box_lists for box in boxes for x in box[axis]}
        if axis in mirrored:
            ends |= {-x for x in ends}
        cuts.append(tuple(sorted(ends)))
    position = [{x: i for i, x in enumerate(c)} for c in cuts]
    masks = []
    for boxes in box_lists:
        mask = np.zeros(tuple(max(len(c) - 1, 0) for c in cuts), dtype=bool)
        for box in boxes:
            mask[tuple(slice(pos[lo], pos[hi]) for pos, (lo, hi) in zip(position, box))] = True
        masks.append(mask)
    return tuple(cuts), masks


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
        cuts, (mask,) = _paint(dim, [ints])
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
            ends = _index_boxes(self.mask).T.tolist()
            sides = []
            for axis, c in enumerate(self.cuts):
                coords = [Fraction(x, self.den) for x in c]
                sides.append(zip(map(coords.__getitem__, ends[2 * axis]),
                                 map(coords.__getitem__, ends[2 * axis + 1])))
            # each axis maps indices to coordinates increasingly, so the
            # boxes are in the order of the index rows
            self._boxes = tuple(zip(*sides))
        return self._boxes

    @property
    def measure(self) -> Fraction:
        if self._measure is None:
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

    def _combine(self, other: "DyadicBoxSet", op) -> "DyadicBoxSet":
        """op of both masks resampled on the sorted union of both sets'
        breakpoints, as a canonical set: `_canonical` trims whatever op
        leaves empty."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        cuts_a, cuts_b = _rescaled(self, den), _rescaled(other, den)
        grid = tuple(tuple(sorted({*ca, *cb})) for ca, cb in zip(cuts_a, cuts_b))
        a = _resample(cuts_a, self.mask, grid)
        b = _resample(cuts_b, other.mask, grid)
        return DyadicBoxSet._grid(self.dim, *_canonical(den, grid, op(a, b)))

    def union(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        return self._combine(other, np.logical_or)

    def intersect(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        return self._combine(other, np.logical_and)

    def subtract(self, other: "DyadicBoxSet") -> "DyadicBoxSet":
        return self._combine(other, lambda a, b: a & ~b)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def symmetric_difference_measure(self, other: "DyadicBoxSet") -> Fraction:
        return self._combine(other, np.logical_xor).measure

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
        cuts, flips = [], []
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
        data = _json_value(json.loads(text), dict, keys=("dim", "boxes"))
        if data.get("unit") != "pi":
            raise ValueError("expected coordinates in pi units")
        if type(data["dim"]) is not int:
            raise ValueError(f"dim must be an integer, not {data['dim']!r}")
        boxes = []
        for k, entry in enumerate(_json_value(data["boxes"], list, "boxes")):
            _json_value(entry, dict, f"boxes[{k}]", ("lo", "hi"))
            lo, hi = (_json_fractions(entry[key], f"boxes[{k}].{key}") for key in ("lo", "hi"))
            if len(lo) != len(hi):
                raise ValueError(f"box {k} has {len(lo)} lo and {len(hi)} hi coordinates")
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

    `pieces` is a list of (DyadicBoxSet, PieceMap), or a checker's builder
    of it (`_claimed_pieces`), run on the first read of `pieces`, so a
    caller that reads only the residuals builds no piece."""

    def __init__(self, source: DyadicBoxSet, target: DyadicBoxSet, pieces,
                 source_residual: DyadicBoxSet, target_residual: DyadicBoxSet):
        self.source, self.target, self._pieces = source, target, pieces
        self.source_residual, self.target_residual = source_residual, target_residual

    @property
    def pieces(self) -> list:
        if callable(self._pieces):
            self._pieces = self._pieces()
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
        """Independent re-check of every set relation, from the pieces and
        maps alone.  The pieces (and their images) are disjoint almost
        everywhere exactly when their measures sum to the measure of their
        union."""
        placed = covered = DyadicBoxSet.empty(self.source.dim)
        piece_sum = image_sum = Fraction(0)
        for piece, g in self.pieces:
            image = g.apply(piece)
            placed, covered = placed.union(piece), covered.union(image)
            piece_sum, image_sum = piece_sum + piece.measure, image_sum + image.measure
        pieces_disjoint = piece_sum == placed.measure
        images_disjoint = image_sum == covered.measure
        pieces_in_source = self.source.contains_ae(placed)
        images_in_target = self.target.contains_ae(covered)
        src_res = self.source.subtract(placed).measure
        tgt_res = self.target.subtract(covered).measure
        measure_balanced = (
            piece_sum + src_res == self.source.measure
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
        return PieceMap.axis_affine([self.kappa ** key[0]] * self.dim, [0] * self.dim, f"D^{key[0]}")


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
    return CongruenceCertificate(source, target,
                                 partial(_claimed_pieces, group, sgrid, cells, key_of, keys),
                                 DyadicBoxSet._grid(dim, *_canonical(den, sgrid, smask & ~kept)),
                                 DyadicBoxSet._grid(dim, *_canonical(den, tgrid, left)))


def _claimed_pieces(group, grid, cells, key_of, keys) -> list:
    """A claim's pieces: per key index n in ascending order, the claimed cells
    with index n painted on the whole refined source grid and made one
    canonical set, moved by the group element of keys[n]."""
    pieces = []
    for n in np.unique(key_of):
        part = np.zeros(tuple(len(g) - 1 for g in grid), dtype=bool)
        part[tuple(c[key_of == n] for c in cells)] = True
        pieces.append((DyadicBoxSet._grid(len(grid), *_canonical(group.den, grid, part)),
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
            box_widths(self.figure)
            axes = tuple((_frac(lo), _frac(hi)) for lo, hi in self.figure.box)
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
    its reduced cell, under any group: it is uncovered where that count is 0
    and overlapped count - 1 times where it is above 1.  Each measure is
    summed on its own canonical grid, as a residual set's is, in int64."""
    g = _group(group, candidate, region, names=("candidate", "region"))
    if g is None:
        return DomainReport(not candidate.is_empty, region.measure, Fraction(0))
    held, (grid, mask, cells, _, flat, _) = _reduction(candidate, region, g)
    count = held[-1].sum(axis=0)[flat]
    weight = np.zeros((2,) + mask.shape, dtype=np.intp)
    weight[(0,) + cells], weight[(1,) + cells] = count == 0, np.maximum(count - 1, 0)
    uncovered, overlap = (_grid_measure(*_canonical(g.den, grid, w)) for w in weight)
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
    dilation congruent to the two-sided Shannon set.  A congruence claim into
    [0, 2pi), a fundamental domain of 2pi Z, leaves exactly the surplus copies
    and the uncovered points, which the orbit count (`is_fundamental_domain`)
    measures; the dilation residual is a certificate's."""
    t = is_fundamental_domain(candidate, GroupSpec("translation", spacings=(2,)),
                              DyadicBoxSet.from_box((0, 2)))
    t_res = max(t.uncovered_measure, t.overlap_measure)
    d_res = dilation_congruent(candidate, shannon_set(), allow_center=True).residual_measure
    return {"translation_residual": t_res, "dilation_residual": d_res,
            "is_wavelet_set": t_res == 0 and d_res == 0}


# ---------------------------------------------------------------------------
# the two planar fixtures
# ---------------------------------------------------------------------------

TAIL_STANDIN_TERMS = 3


@dataclass
class PlanarFixture:
    """Truncated exact model of one of the two planar three-way tiling sets.

    `components` maps the name of each part of the construction to its set;
    the builders paint all of them on one grid and each becomes a set on
    its first read (`_Components`).
    """

    wavelet_set: DyadicBoxSet
    depth: int
    tail: Fraction               # exact omitted measure per mirror copy
    copies: int                  # number of mirror copies carrying a tail
    components: Mapping = field(default_factory=dict)

    @property
    def measure_identity_holds(self) -> bool:
        return self.wavelet_set.measure + self.copies * self.tail == 4


class _Components(Mapping):
    """Named masks on one grid (den, cuts), each made a canonical set on its
    first read, which then stands in its place."""

    def __init__(self, den: int, cuts: tuple, masks: dict):
        self._den, self._cuts, self._items = den, cuts, masks

    def __getitem__(self, name) -> DyadicBoxSet:
        item = self._items[name]
        if isinstance(item, np.ndarray):
            item = self._items[name] = DyadicBoxSet._grid(
                len(self._cuts), *_canonical(self._den, self._cuts, item))
        return item

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self):
        return repr(dict(self))


def _staircase(depth: int, tail_terms: int, y_side, shift, names, mirrors) -> PlanarFixture:
    """A planar fixture: the staircase of gaps, its parts under `names`, and
    the copies of A1 in `mirrors`, each named with the axes it is mirrored
    along.

    The gap G_k has the x-side [beta_k, beta_k + 4^-k / 2) with beta_k =
    2/3 (1 - 4^-k), and the y-side `y_side` of it.  E holds G_1 .. G_depth;
    the gaps beyond G_n have the measure 16 m(G_1) / (15 16^n), and the
    stand-in for those beyond G_depth is the next `tail_terms` gaps and a box
    of the rest, from G_(m+1) to the corner 2/3, m = depth + tail_terms.
    B = 2 G_0 minus G_0, E and the stand-in, C = (G_0 u E) + `shift` and
    A1 = B u C.  The boxes of G_0, E, the stand-in, 2 G_0 and C are painted
    once on one grid closed under negation along the mirror axes (`_paint`),
    so B, A1 and the copies are mask operations and flips, and the wavelet
    set, A1 and its copies, is one canonical grid of their union.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if tail_terms < 0:
        raise ValueError("tail_terms must be at least 0")

    m = depth + tail_terms
    # coordinates are integers over f unit, where the corner 2/3 is
    # f 4^(m+2) and G_k has the x-side [corner - 4 p, corner - p), p = f 4^(m+1-k)
    unit = 6 * 4 ** (m + 1)

    def gap(k, f):
        p, corner = f * 4 ** (m + 1 - k), f * 4 ** (m + 2)
        return (corner - 4 * p, corner - p), y_side(corner - 4 * p, corner - p)

    (x0, x1), (y0, y1) = gap(1, 1)
    rest = Fraction(16 * (x1 - x0) * (y1 - y0), 15 * unit ** 2)
    # the box from G_(m+1) to the corner is 4 units wide, and the y-side of
    # an x-side of t units has the length t (y1 - y0) / (x1 - x0)
    t = rest / 16 ** m * unit ** 2 / 4 * (x1 - x0) / (y1 - y0)
    f = t.denominator
    first, *gaps, last = [gap(k, f) for k in range(m + 2)]
    corner, den = f * 4 ** (m + 2), f * unit
    cuts, (g0, e, standin, two_g0, c) = _paint(2, [
        [first], gaps[:depth], gaps[depth:] + [((last[0][0], corner),
                                               y_side(corner - t.numerator, corner))],
        [tuple((2 * a, 2 * b) for a, b in first)],
        [tuple((a + v * den, b + v * den) for (a, b), v in zip(box, shift))
         for box in [first] + gaps[:depth]]],
        {axis for axes in mirrors.values() for axis in axes})
    tail = rest / 16 ** depth
    held = _grid_measure(*_canonical(den, cuts, standin))
    if held != tail:
        raise ArithmeticError(f"the tail stand-in has the measure {held}, "
                              f"not the omitted tail {tail}")
    b = two_g0 & ~(g0 | e | standin)
    a1 = b | c
    copies = {name: a1[tuple(slice(None, None, -1) if axis in axes else slice(None)
                             for axis in range(2))] for name, axes in mirrors.items()}
    masks = {**dict(zip(names + ("A1",), (g0, e, b, c, a1))), **copies, "tail_standin": standin}
    union = np.logical_or.reduce([a1, *copies.values()])
    return PlanarFixture(DyadicBoxSet._grid(2, *_canonical(den, cuts, union)), depth, tail,
                         1 + len(copies), _Components(den, cuts, masks))


def build_w1(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Four-quadrant planar wavelet set built from a staircase of gap squares
    on the diagonal, marching to (2pi/3, 2pi/3).

    The infinite staircase is truncated at `depth`; the omitted measure (an
    exact geometric series) is carved out of B_1 by a stand-in region of
    exactly that measure near the accumulation corner, so the measure
    identity m(W) + 4*tail = 4*pi^2 holds as an exact rational identity.
    """
    return _staircase(depth, tail_terms, lambda lo, hi: (lo, hi), (2, 2),
                      ("G0", "E1", "B1", "C1"), {"A2": (0,), "A3": (0, 1), "A4": (1,)})


def build_w2(depth: int, tail_terms: int = TAIL_STANDIN_TERMS) -> PlanarFixture:
    """Two-piece planar wavelet set symmetric about the y-axis, its gaps
    centred on the x-axis."""
    return _staircase(depth, tail_terms, lambda lo, hi: (lo - hi, hi - lo), (2, 0),
                      ("G0", "E", "B", "D"), {"A2": (0,)})


@dataclass
class ThreeWayReport:
    translation_residual: Fraction
    dilation_residual: Fraction
    weyl_residual: Fraction

    def within(self, bound) -> bool:
        return max(self.translation_residual, self.dilation_residual,
                   self.weyl_residual) <= _frac(bound)


def three_way_check(candidate: DyadicBoxSet, figure, spacings) -> ThreeWayReport:
    """Translation, dilation by 2, and reflection congruence residuals at once;
    the dilation target is the annulus 2B minus B of the figure box B.  A
    checker's ValueError goes through, as when the origin lies in the
    closure of the candidate.  B is a fundamental domain of its fold group,
    so the reflection residual is the orbit count's (`is_wavelet_set_1d`)."""
    folds = GroupSpec("weyl", figure=figure)
    box = DyadicBoxSet(candidate.dim, (_axes(folds, candidate.dim),))
    w = is_fundamental_domain(candidate, folds, box)
    t_res = translation_congruent(candidate, box, spacings).residual_measure
    d_res = dilation_congruent(candidate, box.scale(2).subtract(box)).residual_measure
    return ThreeWayReport(t_res, d_res, max(w.uncovered_measure, w.overlap_measure))


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
    geometrically.  It runs at most max_iterations + 1 rounds, so 0 runs one.
    """
    if max_iterations < 0:
        raise ValueError("max_iterations must be at least 0")
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
