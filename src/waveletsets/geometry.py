"""Small exact linear algebra: vectors, matrices, affine maps, hyperplanes.

Everything is dimension-checked and exact, over Fractions and ints.  One
forward elimination, `_eliminate`, on rows held as a Fraction scale times a
primitive integer vector, is behind every solve: `rank` counts its pivots,
`Mat.det` multiplies them, `Mat.inverse` back-substitutes with the same row
step, and `fif` reads an exact L D L^T from them.  `_int_dtype` is the one
int64-or-Python-int rule of the integer arrays of `surfaces` and `tiles`,
and `_frac` the one Fraction coercion of `tiles` and `fif`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class Vec(tuple):
    """An immutable dense vector."""

    def __new__(cls, entries: Iterable):
        return super().__new__(cls, tuple(entries))

    def _check(self, other):
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other):
        self._check(other)
        return Vec(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        self._check(other)
        return Vec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Vec(-a for a in self)

    def scale(self, c):
        return Vec(c * a for a in self)

    def dot(self, other):
        self._check(other)
        return sum(a * b for a, b in zip(self, other))

    def __repr__(self):
        return f"Vec{tuple(self)!r}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Mat:
    """An immutable dense matrix stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows)))

    def scale(self, c) -> "Mat":
        return Mat([[c * a for a in r] for r in self.rows])

    def matvec(self, v: Sequence) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return Vec(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return Mat(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def det(self) -> Fraction:
        """The signed product of the pivots (`_eliminate`)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots = _eliminate(self.rows, self.ncols)
        if len(pivots) < self.nrows:
            return Fraction(0)
        order = [r for _, r, _, _ in pivots]
        sign = (-1) ** sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
        return sign * math.prod(scale * vec[c] for c, _, scale, vec in pivots)

    def inverse(self) -> "Mat":
        """[A | I] eliminated (`_eliminate`), then back-substituted by `_step`."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        pivots = _eliminate([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        # the scales cancel in each row's division by its pivot
        vecs = [vec for _, _, _, vec in pivots]
        for k in reversed(range(n)):
            for j in range(k):
                if vecs[j][k]:
                    vecs[j] = _step(1, vecs[j], vecs[k], k)[1]
        return Mat([[Fraction(x, vec[k]) for x in vec[n:]] for k, vec in enumerate(vecs)])

    def __repr__(self):
        return f"Mat({list(map(list, self.rows))!r})"


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _numerators(values: Sequence) -> tuple:
    """(d, [v d for v in values]): Fractions (or ints) over one denominator
    d, the lcm of theirs, as integer numerators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _int_dtype(bound: int):
    """int64 when bound, a bound on every intermediate of a product, is below
    2**63; Python ints (dtype=object) otherwise."""
    return np.int64 if bound < 2 ** 63 else object


def _primitive(den: int, nums: list) -> tuple:
    """The row nums / den as (Fraction scale, vector of coprime integers)."""
    g = math.gcd(*nums) or 1
    return Fraction(g, den), [x // g for x in nums]


def _step(scale: Fraction, vec: list, pivot: list, c: int) -> tuple:
    """(scale, vec) less the multiple of the pivot row that clears column c."""
    g = math.gcd(vec[c], pivot[c])
    a, b = pivot[c] // g, vec[c] // g
    factor, vec = _primitive(a, [a * x - b * y for x, y in zip(vec, pivot)])
    return scale * factor, vec


def _eliminate(rows: Sequence[Sequence], ncols: int) -> list:
    """Forward elimination of rows of Fractions or ints on their first ncols
    columns, each row held as a Fraction scale times a primitive integer
    vector (`_primitive`, `_step`).  Column by column, the first remaining
    row that is nonzero there is the next pivot row and is cleared from every
    remaining row.  Returns the pivots in order, each as (column, index of
    the row it came from, scale, vector); the pivot is scale * vector[column].
    """
    rest = [(r, *_primitive(*_numerators(row))) for r, row in enumerate(rows)]
    pivots = []
    for c in range(ncols):
        k = next((k for k, (_, _, vec) in enumerate(rest) if vec[c]), None)
        if k is None:
            continue
        r, scale, pivot = rest.pop(k)
        pivots.append((c, r, scale, pivot))
        rest = [(q, *_step(s, vec, pivot, c)) if vec[c] else (q, s, vec) for q, s, vec in rest]
    return pivots


def rank(vectors: Sequence[Sequence]) -> int:
    """The rank of a list of vectors of Fractions or ints."""
    return len(_eliminate(vectors, len(vectors[0]))) if vectors else 0


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------


class AffineMap:
    """x -> Ax + b; composes and inverts exactly (e.g. similitudes)."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: Mat, shift: Sequence):
        if linear.nrows != linear.ncols:
            raise ValueError("linear part must be square")
        if linear.nrows != len(tuple(shift)):
            raise ValueError("shift dimension mismatch")
        self.linear = linear
        self.shift = Vec(shift)

    @classmethod
    def _exact(cls, linear: Mat, shift: Vec) -> "AffineMap":
        """A map of this class from parts that already satisfy its checks."""
        amap = object.__new__(cls)
        amap.linear, amap.shift = linear, shift
        return amap

    @property
    def dim(self) -> int:
        return self.linear.nrows

    def apply(self, x: Sequence) -> Vec:
        return self.linear.matvec(x) + self.shift

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Returns self after other, i.e. x -> self(other(x)).

        Two maps of one class compose within it (isometries to an isometry);
        any other pair gives a plain AffineMap.
        """
        cls = type(self) if type(other) is type(self) else AffineMap
        return cls._exact(self.linear.matmul(other.linear),
                          self.linear.matvec(other.shift) + self.shift)

    def inverse(self) -> "AffineMap":
        inv = self.linear.inverse()
        return self._exact(inv, -inv.matvec(self.shift))

    def key(self):
        return (self.linear.rows, tuple(self.shift))

    def __eq__(self, other):
        return type(other) is type(self) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"{type(self).__name__}(linear={self.linear!r}, shift={self.shift!r})"


class AffineIsometry(AffineMap):
    """An AffineMap whose linear part is orthogonal, A^T A == I exactly,
    checked at construction."""

    __slots__ = ()

    def __init__(self, linear: Mat, shift: Vec):
        super().__init__(linear, shift)
        if linear.transpose().matmul(linear) != Mat.identity(linear.nrows):
            raise ValueError("linear part is not orthogonal")

    # bound here too: the layer tracer in perfbench/spans.py wraps `apply`
    # through each class's own `__dict__`
    apply = AffineMap.apply

    @staticmethod
    def identity(n: int) -> "AffineIsometry":
        return AffineIsometry._exact(Mat.identity(n), Vec([Fraction(0)] * n))

    @staticmethod
    def translation(shift: Sequence) -> "AffineIsometry":
        return AffineIsometry._exact(Mat.identity(len(shift)), Vec(shift))


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------


class Hyperplane:
    """The set {x : <x, normal> = offset}, stored in a canonical scaling,
    exactly: a float entry is read as its Fraction."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence, offset):
        normal = Vec(map(Fraction, normal))
        if all(a == 0 for a in normal):
            raise ValueError("zero normal vector")
        lead = next(a for a in normal if a != 0)
        self.normal = normal.scale(1 / lead)
        self.offset = Fraction(offset) / lead

    def side(self, x: Sequence):
        """Returns <x, normal> - offset; zero means x lies on the plane."""
        return self.normal.dot(x) - self.offset

    def reflection(self) -> AffineIsometry:
        """The orthogonal reflection across the hyperplane."""
        nn = self.normal.dot(self.normal)
        rows = [[Fraction(i == j) - 2 * a * b / nn for j, b in enumerate(self.normal)]
                for i, a in enumerate(self.normal)]
        shift = Vec(2 * self.offset * a / nn for a in self.normal)
        return AffineIsometry._exact(Mat(rows), shift)

    def key(self):
        return (tuple(self.normal), self.offset)

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Hyperplane(normal={tuple(self.normal)}, offset={self.offset})"
