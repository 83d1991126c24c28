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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .fif import orthonormalize
from .geometry import AffineIsometry, AffineMap, Mat, Vec
from .reflections import FoldableFigure, box_figure, subdivide, unit_square_figure
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

    figure: Optional[FoldableFigure] = None
    kappa: int = 2
    degree: int = 1
    scaling: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.figure is None:
            object.__setattr__(self, "figure", unit_square_figure(2))
        object.__setattr__(self, "scaling", Fraction(self.scaling))
        if self.figure.box is None:
            raise ValueError("the base figure must be a box")
        if any(lo != 0 for lo, _ in self.figure.box):
            raise ValueError("the base figure must have a vertex at the origin")
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


def scaled_cell_word(u: AffineMap, kappa: int) -> AffineIsometry:
    """The isometry kappa * u for a similitude u with ratio 1/kappa."""
    return AffineIsometry(u.linear.scale(Fraction(kappa)), u.shift.scale(Fraction(kappa)))


class MultiresolutionBasis:
    """Orthonormal scaling vector, refinement and wavelet filters."""

    def __init__(self, config: MRAConfig):
        self.config = config
        kappa, d, s = config.kappa, config.degree, config.scaling
        dim = config.dim
        widths = [hi - lo for lo, hi in config.figure.box]
        self.domain = box_figure("scaled-domain", [(0, kappa * w) for w in widths])
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
        self.words = [scaled_cell_word(u, kappa).inverse() for u in self.maps]

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
        # P_j[b, :] / sqrt(N) in the orthonormal per-cell basis
        n_cells = config.cell_count
        root = math.sqrt(n_cells)
        V = np.zeros((n_cells * na, na))
        for j in range(n_cells):
            V[j * na : (j + 1) * na, :] = self.P[j].T / root
        qfull, _ = np.linalg.qr(np.hstack([V, np.eye(n_cells * na)]))
        self.V = V
        self.W = qfull[:, na : n_cells * na]
        self.VW = np.hstack([self.V, self.W])
        self.Q = [root * self.W[j * na : (j + 1) * na, :].T for j in range(n_cells)]

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
        measure = 1.0
        for lo, hi in self.domain.box:
            measure *= float(hi - lo)
        return pts, np.array(rows), measure / len(pts)

    # -- one-level transforms ---------------------------------------------------

    def analyze(self, fine: dict) -> tuple:
        """Split per-word fine-scale coordinates into sample and detail parts.

        The word vectors are stacked as rows, each one-dimensional of the
        fine width, and transformed by [V | W] in `_times`.
        """
        if not fine:
            return {}, {}
        keys = list(fine)
        na = self.V.shape[1]
        rows = np.array(list(fine.values()), dtype=float)
        if rows.shape != (len(keys), self.V.shape[0]):
            raise ValueError(f"each word vector must have shape ({self.V.shape[0]},)")
        split = _times(rows, self.VW)
        return dict(zip(keys, split[:, :na])), dict(zip(keys, split[:, na:]))

    def synthesize(self, coarse: dict, detail: dict) -> dict:
        """Inverse of analyze: the stacked [coarse | detail] rows times
        [V | W]^T in `_times`; a word missing from one side has zeros there.
        Each side is stacked as one array and set into its rows at once."""
        keys = list(coarse) + [k for k in detail if k not in coarse]
        na, nw = self.V.shape[1], self.W.shape[1]
        split = np.zeros((len(keys), na + nw))
        index = {k: r for r, k in enumerate(keys)}
        for side, cols in ((coarse, slice(None, na)), (detail, slice(na, None))):
            if side:
                split[[index[k] for k in side], cols] = np.array(list(side.values()), dtype=float)
        rows = _times(split, self.VW.T)
        return {k: rows[r] for r, k in enumerate(keys)}

    def reconstruction_residual(self) -> float:
        """max |sum_j P_j P_j^T - N I| over the N cells: how far the float
        refinement filters miss the perfect-reconstruction identity, which
        holds exactly for the exact filters."""
        total = sum(p @ p.T for p in self.P)
        return float(np.abs(total - self.config.cell_count * np.eye(len(total))).max())

    def filter_bank(self) -> "FilterBank":
        return FilterBank(list(self.words), [p.copy() for p in self.P], [q.copy() for q in self.Q])


# OpenBLAS runs a gemm of at most 65536 * 4 multiply-adds on the calling
# thread (its interface/gemm.c); a larger one wakes its worker threads, which
# then spin for a while after the product
_ONE_THREAD_GEMM = 2 ** 18


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, in blocks of b rows that OpenBLAS runs on the calling thread.

    b is the largest row count whose product has at most 2^18 multiply-adds;
    one np.matmul runs all the full blocks as a stack, one more the remaining
    rows.  BLAS packs mat once per product, so blocks cost little more than
    one product only while each has at least as many rows as mat has
    columns: a mat wider than b (a fine width above 64), or a table whose
    whole product already stays on the calling thread, takes the one product.
    """
    n, (k, m) = len(rows), mat.shape
    b = _ONE_THREAD_GEMM // (k * m)
    if n * k * m <= _ONE_THREAD_GEMM or b < m:
        return np.matmul(rows, mat)
    full = n - n % b
    out = np.empty((n, m))
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


def _iso_from_obj(obj: dict) -> AffineIsometry:
    linear = Mat([[Fraction(v) for v in row] for row in obj["linear"]])
    shift = Vec(Fraction(v) for v in obj["shift"])
    return AffineIsometry(linear, shift)


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
        payload = json.loads(text)
        return FilterBank(
            [_iso_from_obj(o) for o in payload["words"]],
            [np.array(m) for m in payload["P"]],
            [np.array(m) for m in payload["Q"]],
        )
