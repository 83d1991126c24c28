"""Exact wavelet-set tilings, fractal interpolation, and reflection-group
multiresolution analysis.

Submodules:
  geometry     exact vectors, matrices, affine maps, hyperplanes, ranks, inverses
  reflections  root systems, affine mirrors, foldable figures, folding, subdivision
  tiles        dyadic box sets, congruence certificates, wavelet-set fixtures
  fif          fractal interpolation on an interval, a 1-D front end to surfaces
  surfaces     the self-affine engine: surfaces over foldable figures, moments
  mra          multiresolution filter banks from subdivided box figures
  render       deterministic CSV/SVG exporters
  cli          command-line front end
"""

from .geometry import AffineIsometry, AffineMap, Hyperplane, Mat, Vec
from .reflections import (
    FoldableFigure,
    RootSystem,
    box_figure,
    centered_square_figure,
    fold,
    klein_four_root_system,
    right_triangle_figure,
    subdivide,
    unit_square_figure,
)
from .tiles import (
    CongruenceCertificate,
    DyadicBoxSet,
    build_w1,
    build_w2,
    construct_wavelet_set,
    dilation_congruent,
    intersection_group,
    is_fundamental_domain,
    is_wavelet_set_1d,
    shannon_set,
    three_way_check,
    translation_congruent,
    weyl_congruent,
)
from .fif import FractalFunction, cardinal_basis, uniform_cardinal_basis
from .surfaces import (
    FractalSurface,
    SurfaceSpec,
    basis_surfaces,
    fixed_point,
    validate_condition_star,
)
from .mra import FilterBank, MRAConfig, MultiresolutionBasis

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
