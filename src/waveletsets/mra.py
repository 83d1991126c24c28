"""Multiresolution analysis over reflection-subdivided box figures.

The sample space V0, restricted to the scaled domain D = kappa*F, is spanned
by self-affine atoms: one polynomial data function (a power of the first
coordinate) on a single subdivision cell, zero data elsewhere, all with the
same vertical scaling.  Gram-Schmidt of the exact atom Gram matrix gives an
orthonormal scaling vector Phi; refinement and wavelet filters follow from
the exact cell relations of the atoms, so the filter residuals are at the
level of floating-point roundoff.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fif import orthonormalize
from .geometry import AffineIsometry, Mat, Vec, _json_fractions, _json_value
from .reflections import FoldableFigure, box_figure, box_widths, subdivide, unit_square_figure
from .surfaces import (
    FractalSurface,
    SurfaceSpec,
    _cascade,
    _fractions,
    gram_from_moments,
    moments,
)


@dataclass(frozen=True)
class MRAConfig:
    """Base figure, subdivision order, polynomial degree, vertical scaling."""

    figure: FoldableFigure = field(default_factory=unit_square_figure)
    kappa: int = 2
    degree: int = 1
    scaling: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "scaling", Fraction(self.scaling))
        box_widths(self.figure, cells=True)
        for name in ("kappa", "degree"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.kappa < 2:
            raise ValueError("kappa must be at least 2")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if abs(self.scaling) >= 1:
            raise ValueError("vertical scaling must satisfy |s| < 1")

    @property
    def dim(self) -> int:
        return len(self.figure.box)

    @property
    def cell_count(self) -> int:
        return self.kappa ** self.dim

    @property
    def generator_count(self) -> int:
        return (self.degree + 1) * self.cell_count

    @property
    def wavelet_count(self) -> int:
        return (self.kappa ** self.dim - 1) * self.generator_count


class MultiresolutionBasis:
    """Orthonormal scaling vector, refinement and wavelet filters."""

    def __init__(self, config: MRAConfig):
        self.config = config
        kappa, d, s = config.kappa, config.degree, config.scaling
        dim = config.dim
        widths = box_widths(config.figure)
        self.domain = box_figure([(0, kappa * w) for w in widths])
        self.maps = tuple(subdivide(self.domain, kappa))

        # atoms: index a = cell * (d+1) + power q of the first coordinate,
        # with data x1^q on that one cell; they share one template's system:
        # its geometry and integer moment tables are built once for all of them
        data = [[{(q,) + (0,) * (dim - 1): Fraction(1)} if i == j else {} for i in range(len(self.maps))]
                for j in range(config.cell_count) for q in range(d + 1)]
        template = SurfaceSpec(self.domain.vertices, self.maps, data[0], s)
        self.atoms = [FractalSurface(template.with_data(lam)) for lam in data]
        na = config.generator_count
        # each atom's moments (its one cell's data row through the shared
        # tables), used by both the Gram matrix and the filters
        self.atom_moments = [moments(a, d) for a in self.atoms]
        gram = gram_from_moments(self.atoms, self.atom_moments)
        self.atom_gram = gram

        self.coeffs = orthonormalize(gram).T  # row a holds phi^a in atom coordinates

        # refinement words r_j = (kappa u_j)^{-1}; cells kappa*u_j(D) tile kappa*D
        self.words = [AffineIsometry(u.linear.scale(Fraction(kappa)),
                                     u.shift.scale(Fraction(kappa))).inverse() for u in self.maps]

        # P(r_j)[a, b] = <lambda_j^(a), phi^b> + s*delta_ab, from exact atom moments
        mono = np.zeros((d + 1, na))
        for q in range(d + 1):
            expo = (q,) + (0,) * (dim - 1)
            for c in range(na):
                mono[q, c] = float(self.atom_moments[c][expo])
        poly_vs_phi = mono @ self.coeffs.T  # [q, b] = <x1^q, phi^b>
        self.P = []
        for j in range(config.cell_count):
            block = self.coeffs[:, j * (d + 1) : (j + 1) * (d + 1)]  # [a, q]
            self.P.append(block @ poly_vs_phi + float(s) * np.eye(na))

        # fine-scale coordinates: phi^b restricted to cell j has coordinates
        # P_j[b, :] / sqrt(N) in the orthonormal per-cell basis; V and W are
        # the column views of the one array [V | W]
        n_cells = config.cell_count
        root, n = math.sqrt(n_cells), n_cells * na
        self.VW = np.zeros((n, n))
        self.V, self.W = self.VW[:, :na], self.VW[:, na:]
        for j in range(n_cells):
            self.V[j * na : (j + 1) * na] = self.P[j].T / root
        # the wavelets: the last columns of V's full Householder Q, in compact
        # WY form Q = I - Y T Y^T (Schreiber and Van Loan, 1989): Y holds the
        # unit lower trapezoidal reflectors of one QR of the thin V, and T is
        # upper triangular, column k from columns 0..k-1 of Y^T Y
        h, tau = np.linalg.qr(self.V, mode="raw")
        Y = np.tril(h.T, -1) + np.eye(n, na)
        yty = _times(Y.T, Y)
        T = np.zeros((na, na))
        for k in range(na):
            T[:k, k] = -tau[k] * (T[:k, :k] @ yty[:k, k])
            T[k, k] = tau[k]
        # W = [0; I] - Z, set in place in [V | W] with no identity array, and
        # Z let go before VWT is made, so the build holds two n x n arrays
        Z = _times(_times(Y, T), Y[na:].T)
        np.negative(Z[:na], out=self.W[:na])
        np.fill_diagonal(self.W[na:], 1)
        self.W[na:] -= Z[na:]
        del Z
        self.VWT = np.ascontiguousarray(self.VW.T)  # synthesize's factor, C-ordered

    # -- pointwise values -----------------------------------------------------

    def centroid_samples(self, depth: int):
        """Cell centroids at the given depth with exact atom values there.

        Returns (points, values[natoms, npts], cell weight).  Each atom's
        values run from the domain's centroid, the mean of its vertices,
        through the one integer cascade of the surface meshes
        (`surfaces._cascade`), which keeps every leaf (leaves outer, cells
        inner), so each level's points are the centroids of its cells; each
        value is the float of its exact one, one correctly rounded integer
        division.  The box gives only the cell weight.
        """
        vertices = self.domain.vertices
        centroid = Vec(sum(c) / len(vertices) for c in zip(*vertices))

        def leaves(images, values):
            return images.transpose(1, 2, 0).reshape(len(centroid), -1), values.T.reshape(-1)

        rows = []
        for atom in self.atoms:
            dp, cols, dv, vals = _cascade(atom.spec, [centroid], [atom.value_at(centroid)], depth,
                                          leaves)
            rows.append([v / dv for v in vals.tolist()])
        pts = [Vec(p) for p in zip(*_fractions(dp, *cols))]
        measure = math.prod(float(w) for w in box_widths(self.domain))
        return pts, np.array(rows), measure / len(pts)

    # -- one-level transforms ---------------------------------------------------

    def analyze(self, fine: dict) -> tuple:
        """Split per-word fine-scale coordinates into sample and detail parts.

        The word vectors, each one-dimensional of the fine width, are
        stacked _CHUNK_ROWS at a time and transformed by [V | W] in `_times`
        into the one array whose row views the two dicts hold.
        """
        keys, vectors = list(fine), list(fine.values())
        width, na = self.V.shape
        message = f"each word vector must have shape ({width},)"
        split = np.empty((len(keys), width))
        for start in range(0, len(keys), _CHUNK_ROWS):
            part = vectors[start:start + _CHUNK_ROWS]
            _times(_stack(part, width, message), self.VW, split[start:start + len(part)])
        return dict(zip(keys, split[:, :na])), dict(zip(keys, split[:, na:]))

    def synthesize(self, coarse: dict, detail: dict) -> dict:
        """Inverse of analyze: the [coarse | detail] rows times [V | W]^T in
        `_times`.  The words go _CHUNK_ROWS at a time: each side of a chunk
        is stacked as one array, with a zero row for a word that side lacks,
        and the two sides side by side multiply into the one array whose row
        views the dict holds."""
        keys = list(coarse) + [k for k in detail if k not in coarse]
        na, width = self.V.shape[1], len(self.VW)
        out = np.empty((len(keys), width))
        sides = [(side, np.zeros(size), f"each {name} vector must have shape ({size},)")
                 for name, side, size in (("coarse", coarse, na), ("detail", detail, width - na))]
        for first in range(0, len(keys), _CHUNK_ROWS):
            chunk = keys[first:first + _CHUNK_ROWS]
            split = np.hstack([_stack([side.get(k, zeros) for k in chunk], len(zeros), message)
                               for side, zeros, message in sides])
            _times(split, self.VWT, out[first:first + len(chunk)])
        return dict(zip(keys, out))

    def reconstruction_residual(self) -> float:
        """max |sum_j P_j P_j^T - N I| over the N cells: how far the float
        refinement filters miss the perfect-reconstruction identity, which
        holds exactly for the exact filters."""
        total = sum(p @ p.T for p in self.P)
        return float(np.abs(total - self.config.cell_count * np.eye(len(total))).max())

    def filter_bank(self) -> "FilterBank":
        """The words, copies of the P_j, and each wavelet filter
        Q_j = sqrt(N) W_j^T, made here from the rows W_j of W for cell j, so
        the bank shares no array with the basis."""
        na, n_cells = self.V.shape[1], self.config.cell_count
        Q = [math.sqrt(n_cells) * self.W[j * na : (j + 1) * na].T for j in range(n_cells)]
        return FilterBank(list(self.words), [p.copy() for p in self.P], Q)


def _stack(vectors, width: int, message: str) -> np.ndarray:
    """The vectors as the rows of one float array, or ValueError(message)
    unless each has shape (width,).

    A stack that numpy accepts is checked by its own shape, at no cost per
    vector.  Vectors of different lengths get numpy's "inhomogeneous shape"
    error, which names no expected shape: only then is each vector's shape
    examined.
    """
    try:
        rows = np.array(vectors, dtype=float)
    except ValueError:
        for v in vectors:
            try:
                shape = np.shape(v)
            except ValueError:  # a ragged nested entry
                shape = None
            if shape != (width,):
                raise ValueError(message) from None
        raise
    if rows.shape != (len(vectors), width):
        raise ValueError(message)
    return rows


# OpenBLAS runs a gemm of at most 65536 * 4 multiply-adds on the calling
# thread (its interface/gemm.c); a larger one wakes its worker threads, which
# then spin for a while after the product
_ONE_THREAD_GEMM = 2 ** 18
# BLAS packs mat once per product, so a stack of blocks costs more than one
# product the fewer rows each block has.  On a 2-vCPU host, blocks of 8 or 9
# rows of a 2,000-row table took no more wall time than the one product
# woken from idle workers, and blocks of 4 to 7 rows 1.3-2.6 times as much
_FEWEST_BLOCK_ROWS = 8
# analyze and synthesize stack and multiply the words this many at a time,
# so they hold one chunk beyond their outputs.  On a 2-vCPU host, analyze
# plus synthesize of a 2,000-word table took the same median time within
# 5 % with chunks of 128 to 512 rows at fine widths 32, 48 and 162 (4.1,
# 4.5 and 14.8 ms at 256), about 9 % more at width 162 with the whole table
# as one chunk, and 3-26 % more with chunks of 32 rows
_CHUNK_ROWS = 256


def _times(rows: np.ndarray, mat: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """rows @ mat, in blocks of b rows that OpenBLAS runs on the calling thread.

    b is the largest row count whose product has at most 2^18 multiply-adds;
    one np.matmul runs all the full blocks as a stack, one more the remaining
    rows.  A product that already stays on the calling thread, or whose
    blocks would have fewer than _FEWEST_BLOCK_ROWS rows (a square mat wider
    than 181), is the one product.  The product goes into out, a C-ordered
    array of its shape, when one is given.
    """
    n, (k, m) = len(rows), mat.shape
    b = _ONE_THREAD_GEMM // (k * m)
    if n * k * m <= _ONE_THREAD_GEMM or b < _FEWEST_BLOCK_ROWS:
        return np.matmul(rows, mat, out=out)
    full = n - n % b
    out = np.empty((n, m)) if out is None else out
    np.matmul(rows[:full].reshape(-1, b, k), mat, out=out[:full].reshape(-1, b, m))
    if full < n:
        np.matmul(rows[full:], mat, out=out[full:])
    return out


def build(config: MRAConfig) -> MultiresolutionBasis:
    return MultiresolutionBasis(config)


# ---------------------------------------------------------------------------
# filter bank serialization
# ---------------------------------------------------------------------------


def _iso_to_obj(iso: AffineIsometry) -> dict:
    return {
        "linear": [[str(Fraction(v)) for v in row] for row in iso.linear.rows],
        "shift": [str(Fraction(v)) for v in iso.shift],
    }


def _float_lists(value: list, pad: str) -> str:
    """json.dumps(value, indent=2) of nested lists of floats, its lines
    indented by pad after the first: each float by float.__repr__, and NaN
    and +-inf as json writes them (no finite repr has an "n" in it)."""
    if not value:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value[0], list):
        body = sep.join(_float_lists(v, inner) for v in value)
    else:
        body = sep.join(map(float.__repr__, value))
        if "n" in body:
            body = body.replace("inf", "Infinity").replace("nan", "NaN")
    return "[\n" + inner + body + "\n" + pad + "]"


@dataclass
class FilterBank:
    """Refinement and wavelet matrices keyed by their words."""

    words: list
    P: list
    Q: list

    def to_json(self) -> str:
        """The text of json.dumps(payload, indent=2, sort_keys=True) for the
        words as exact strings and P and Q as nested lists of floats
        (`json_pieces`, joined)."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of `to_json` in pieces, one per matrix, so a writer holds
        one matrix's floats and text at a time.  The float lists are written
        without the json module's indent encoder, which walks each of their
        values in Python."""
        words = json.dumps([_iso_to_obj(w) for w in self.words], indent=2, sort_keys=True)
        for lead, key, mats in (("{", "P", self.P), (",", "Q", self.Q)):
            yield f'{lead}\n  "{key}": '
            if not mats:
                yield "[]"
                continue
            for k, m in enumerate(mats):
                yield (",\n    " if k else "[\n    ") + _float_lists(
                    np.asarray(m, dtype=float).tolist(), "    ")
            yield "\n  ]"
        yield ',\n  "words": ' + words.replace("\n", "\n  ") + "\n}"

    @staticmethod
    def from_json(text: str) -> "FilterBank":
        """The bank of a `to_json` text, refused unless it has one P_j of
        shape (na, na) and one Q_j of shape ((N - 1) na, na) for each of its
        N words."""
        payload = _json_value(json.loads(text), dict, keys=("words", "P", "Q"))
        words, P, Q = (_json_value(payload[key], list, key) for key in ("words", "P", "Q"))
        for j, word in enumerate(words):
            _json_value(word, dict, f"words[{j}]", ("linear", "shift"))
            words[j] = AffineIsometry(Mat(_json_fractions(word["linear"], f"words[{j}].linear", 2)),
                                      Vec(_json_fractions(word["shift"], f"words[{j}].shift")))
        try:
            P, Q = ([np.array(m) for m in ms] for ms in (P, Q))
        except ValueError:  # numpy's inhomogeneous shape
            raise ValueError("expected each P and Q in rows of one length") from None
        n, na = len(words), len(P[0]) if P else 0
        if ([p.shape for p in P] != [(na, na)] * n
                or [q.shape for q in Q] != [((n - 1) * na, na)] * n):
            raise ValueError(f"a bank of {n} words needs {n} P of shape ({na}, {na}) "
                             f"and {n} Q of shape ({(n - 1) * na}, {na})")
        return FilterBank(words, P, Q)
