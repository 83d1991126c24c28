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
    gram_from_moments,
    moments,
    poly_val,
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

        # atoms: index a = cell * (d+1) + power of the first coordinate
        self._atom_data = []
        for j in range(config.cell_count):
            for q in range(d + 1):
                expo = (q,) + (0,) * (dim - 1)
                data = [{} for _ in self.maps]
                data[j] = {expo: Fraction(1)}
                self._atom_data.append(tuple(data))
        # the atoms share one template's system: its geometry, integral table
        # and inverted moment system are built once for all of them
        template = SurfaceSpec(self.domain.vertices, self.maps, self._atom_data[0], s)
        self.atoms = [FractalSurface(template.with_data(data)) for data in self._atom_data]
        na = config.generator_count
        # each atom's moments (its right-hand side times the shared inverse),
        # used by both the Gram matrix and the filters
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

        Returns (points, values[natoms, npts], cell weight); the values
        propagate level by level through the exact cell relations.
        """
        centroid = Vec(Fraction(lo + hi, 2) for lo, hi in self.domain.box)
        base = [a.value_at(centroid) for a in self.atoms]
        leaves = [(centroid, base)]
        s = self.config.scaling
        for _ in range(depth):
            nxt = []
            for pt, vals in leaves:
                for j, u in enumerate(self.maps):
                    pushed = [
                        poly_val(self._atom_data[c][j], pt) + s * vals[c]
                        for c in range(len(vals))
                    ]
                    nxt.append((u.apply(pt), pushed))
            leaves = nxt
        pts = [pt for pt, _ in leaves]
        values = np.array([[float(v) for v in vals] for _, vals in leaves]).T
        measure = 1.0
        for lo, hi in self.domain.box:
            measure *= float(hi - lo)
        return pts, values, measure / len(leaves)

    # -- one-level transforms ---------------------------------------------------

    def analyze(self, fine: dict) -> tuple:
        """Split per-word fine-scale coordinates into sample and detail parts.

        The word vectors are stacked as rows, so one product with [V | W]
        transforms them all.
        """
        keys = list(fine)
        na = self.V.shape[1]
        rows = np.array([np.asarray(fine[k], dtype=float) for k in keys])
        # an empty dict stacks to shape (0,); give it the (0, fine) shape
        rows = rows.reshape(len(keys), self.V.shape[0])
        split = rows @ self.VW
        coarse = {k: split[r, :na] for r, k in enumerate(keys)}
        detail = {k: split[r, na:] for r, k in enumerate(keys)}
        return coarse, detail

    def synthesize(self, coarse: dict, detail: dict) -> dict:
        """Inverse of analyze: one product of the stacked [coarse | detail]
        rows with [V | W]^T; a word missing from one side has zeros there."""
        keys = list(coarse) + [k for k in detail if k not in coarse]
        na, nw = self.V.shape[1], self.W.shape[1]
        split = np.zeros((len(keys), na + nw))
        for r, k in enumerate(keys):
            if k in coarse:
                split[r, :na] = np.asarray(coarse[k], dtype=float)
            if k in detail:
                split[r, na:] = np.asarray(detail[k], dtype=float)
        rows = split @ self.VW.T
        return {k: rows[r] for r, k in enumerate(keys)}

    def filter_bank(self) -> "FilterBank":
        return FilterBank(list(self.words), [p.copy() for p in self.P], [q.copy() for q in self.Q])


def build(config: MRAConfig) -> MultiresolutionBasis:
    return MultiresolutionBasis(config)


# ---------------------------------------------------------------------------
# filter bank serialization
# ---------------------------------------------------------------------------


def _frac_str(v: Fraction) -> str:
    return str(Fraction(v))


def _iso_to_obj(iso: AffineIsometry) -> dict:
    return {
        "linear": [[_frac_str(v) for v in row] for row in iso.linear.rows],
        "shift": [_frac_str(v) for v in iso.shift],
    }


def _iso_from_obj(obj: dict) -> AffineIsometry:
    linear = Mat([[Fraction(v) for v in row] for row in obj["linear"]])
    shift = Vec(Fraction(v) for v in obj["shift"])
    return AffineIsometry(linear, shift)


@dataclass
class FilterBank:
    """Refinement and wavelet matrices keyed by their words."""

    words: list
    P: list
    Q: list

    def to_json(self) -> str:
        payload = {
            "words": [_iso_to_obj(w) for w in self.words],
            "P": [[[float(v) for v in row] for row in m] for m in self.P],
            "Q": [[[float(v) for v in row] for row in m] for m in self.Q],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FilterBank":
        payload = json.loads(text)
        return FilterBank(
            [_iso_from_obj(o) for o in payload["words"]],
            [np.array(m) for m in payload["P"]],
            [np.array(m) for m in payload["Q"]],
        )
