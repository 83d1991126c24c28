"""Small exact linear algebra: vectors, matrices, affine maps, hyperplanes.

Everything is dimension-checked and works over exact number types
(Fraction, int) as well as floats.  Determinants are expanded directly for
the small dimensions used here; ranks and matrix inverses both go through
one Gauss-Jordan elimination, `_row_reduce`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


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

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            (a, b), (c, d) = self.rows
            return a * d - b * c
        total = None
        for j in range(n):
            minor = Mat([r[:j] + r[j + 1 :] for r in self.rows[1:]])
            term = self.rows[0][j] * minor.det()
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; exact when entries support exact division."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        work = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in work]
        if _row_reduce(work, n) < n:
            raise ValueError("singular matrix")
        return Mat([row[n:] for row in work])

    def __repr__(self):
        return f"Mat({list(map(list, self.rows))!r})"


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _row_reduce(work: list, ncols: int) -> int:
    """Gauss-Jordan elimination in place on the first ncols columns.

    Each pivot row is divided by its pivot and cleared from every other row,
    so the pivot columns end as unit vectors.  Returns the rank, the number
    of pivots.
    """
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pv = work[row][col]
        work[row] = [x / pv for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        row += 1
    return row


def rank(vectors: Sequence[Sequence]) -> int:
    """The rank of a list of vectors, over Fractions."""
    work = [[Fraction(a) for a in v] for v in vectors]
    return _row_reduce(work, len(work[0])) if work else 0


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
    """The set {x : <x, normal> = offset}, stored in a canonical scaling."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence, offset):
        normal = Vec(normal)
        if all(a == 0 for a in normal):
            raise ValueError("zero normal vector")
        lead = next(a for a in normal if a != 0)
        normal = normal.scale(Fraction(1) / lead) if not isinstance(lead, float) else normal.scale(1.0 / lead)
        offset = offset / lead
        self.normal = normal
        self.offset = offset

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
