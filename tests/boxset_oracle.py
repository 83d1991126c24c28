"""Reference box-set algebra for the differential tests of `waveletsets.tiles`.

This is the list-of-disjoint-boxes implementation that `DyadicBoxSet` used
before its canonical grid kernel: every operation splits boxes pairwise and
merges face-sharing boxes with `_coalesce`.  It is slow but simple, and
`tests/test_boxset_grid.py` uses it as the oracle for exact measures and
set relations.  Keep it unchanged.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Optional

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

