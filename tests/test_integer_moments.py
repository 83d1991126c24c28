"""The integer moment kernel of `waveletsets.surfaces` against the oracles.

Moments, inner products, Gram matrices and forced data are integer matrix
products over one denominator per table (`surfaces._System.tables`), with
one Fraction per output entry.  They must equal, as Fractions, the Fraction
loops of `selfaffine_oracle.py`: `cell_surface_moments`,
`cell_surface_inner_product`, `cell_surface_gram_matrix`,
`surface_gram_matrix`, `fif_gram_matrix` and `forced_data`.  The domains are
simplices (the Kuhn simplex cut into its 2^dim Freudenthal cells, moved by
x -> c x + t) and boxes (`reflections.subdivide`) in 1 to 3 dimensions; the
data have degree 0 to 3 with empty cells; the scalings are one value or one
per cell, and families mix members of several systems (equal maps and
vertices, other scalings).
"""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import selfaffine_oracle as oracle
from test_selfaffine_oracle import _old
from waveletsets import fif
from waveletsets import surfaces as sf
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets.reflections import box_figure, subdivide

KERNEL = settings(max_examples=30, deadline=None)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# |s| < 1 over a small or a large denominator
scalings = st.one_of(st.integers(1, 12), st.integers(2, 2 ** 64)).flatmap(
    lambda den: st.integers(-den + 1, den - 1).map(lambda p: F(p, den)))


def _moved(vertices, maps, c, t):
    """The domain and maps conjugated by x -> c x + t."""
    dim = len(vertices[0])
    move = AffineMap(Mat([[c * (i == j) for j in range(dim)] for i in range(dim)]), Vec([t] * dim))
    back = move.inverse()
    return (tuple(move.apply(Vec(v)) for v in vertices),
            tuple(move.compose(u).compose(back) for u in maps))


def kuhn_simplex(dim):
    """The simplex 1 >= x_1 >= ... >= x_dim >= 0 and its Freudenthal cells:
    the maps x -> h + P x / 2 (h a corner of the half cube, P a coordinate
    permutation) whose images lie in it, which tile it."""
    vertices = tuple(tuple(F(int(j < k)) for j in range(dim)) for k in range(dim + 1))
    maps = []
    for h in itertools.product((F(0), F(1, 2)), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            u = AffineMap(Mat([[F(int(perm[j] == i), 2) for j in range(dim)] for i in range(dim)]), Vec(h))
            centre = u.apply(Vec(F(dim - j, dim + 1) for j in range(dim)))
            if all(a > b for a, b in zip((1,) + tuple(centre), tuple(centre) + (0,))):
                maps.append(u)
    assert len(maps) == 2 ** dim
    return vertices, tuple(maps)


def subdivided_box(widths, kappa):
    figure = box_figure([(0, w) for w in widths])
    corners = [()]
    for lo, hi in figure.box:
        corners = [c + (t,) for c in corners for t in (lo, hi)]
    return tuple(corners), tuple(subdivide(figure, kappa))


@st.composite
def domains(draw, simplex=None):
    """(vertices, maps) of a simplex or a box in 1 to 3 dimensions."""
    dim = draw(st.integers(1, 3), label="dim")
    if simplex is None:
        simplex = draw(st.booleans(), label="simplex")
    if simplex:
        vertices, maps = kuhn_simplex(dim)
    else:
        widths = draw(st.lists(st.sampled_from([1, 2, F(1, 3)]), min_size=dim, max_size=dim))
        vertices, maps = subdivided_box(widths, 3 if dim == 1 and draw(st.booleans()) else 2)
    c = draw(st.sampled_from([1, 2, F(2, 3)]), label="c")
    return _moved(vertices, maps, c, draw(st.sampled_from([0, F(1, 5), -3]), label="t"))


@st.composite
def cell_data(draw, dim, n):
    """One polynomial of degree 0..3 (at most 2 in 3-D) per cell; some cells empty."""
    top = 2 if dim == 3 else 3
    out = []
    for _ in range(n):
        degree = draw(st.integers(-1, top), label="degree")  # -1: no data on this cell
        coeffs = st.one_of(st.just(F(0)), st.just(F(0)), small_fracs)
        out.append({e: c for e in sf._monomials_upto(dim, max(degree, 0)) if (c := draw(coeffs))}
                   if degree >= 0 else {})
    return out


def _scaling(draw, n):
    if draw(st.booleans(), label="per cell"):
        return tuple(draw(st.lists(scalings, min_size=n, max_size=n), label="s"))
    return draw(scalings, label="s")


@st.composite
def families(draw):
    """Surfaces on one domain: the members of one or two systems (a template
    and, below 3-D, a `with_data` spec), the systems differing in their scalings."""
    vertices, maps = draw(domains())
    n, dim = len(maps), len(vertices[0])
    members = []
    for _ in range(draw(st.integers(1, 2), label="systems")):
        template = sf.SurfaceSpec(vertices, maps, draw(cell_data(dim, n)), _scaling(draw, n))
        members.append(template)
        members += [template.with_data(draw(cell_data(dim, n)))
                    for _ in range(draw(st.integers(0, int(dim < 3)), label="members"))]
    return [sf.FractalSurface(spec) for spec in members]


@KERNEL
@given(family=families(), data=st.data())
def test_moments_and_pairs_match_the_fraction_loops(family, data):
    for k in data.draw(st.permutations(range(len(family))), label="order"):
        degree = data.draw(st.integers(0, 3), label="requested degree")
        if family[k].spec.dim == 3:
            degree = min(degree, 2)
        assert sf.moments(family[k], degree) == oracle.cell_surface_moments(family[k], degree)
    a, b = (data.draw(st.integers(0, len(family) - 1), label=k) for k in "ab")
    assert sf.inner_product(family[a], family[b]) == oracle.cell_surface_inner_product(family[a], family[b])
    assert sf.gram_matrix(family) == oracle.cell_surface_gram_matrix(family)


@KERNEL
@given(domain=domains(), data=st.data())
def test_one_scaling_gram_matches_the_surface_oracle(domain, data):
    vertices, maps = domain
    n, dim = len(maps), len(vertices[0])
    s = data.draw(scalings, label="s")
    template = sf.SurfaceSpec(vertices, maps, data.draw(cell_data(dim, n)), s)
    family = [template, template.with_data(data.draw(cell_data(dim, n)))]
    family = [sf.FractalSurface(spec) for spec in family]
    assert sf.gram_matrix(family) == oracle.surface_gram_matrix(family)


@KERNEL
@given(xs=st.lists(small_fracs, min_size=2, max_size=6, unique=True).map(sorted), data=st.data())
def test_function_gram_matches_the_fif_oracle(xs, data):
    n = len(xs) - 1
    s = data.draw(st.lists(scalings, min_size=n, max_size=n), label="s")
    rows = data.draw(st.lists(st.lists(small_fracs, min_size=n + 1, max_size=n + 1),
                              min_size=1, max_size=4), label="values")
    family = fif._interpolation(xs, rows, s)
    assert fif.gram_matrix(family) == oracle.fif_gram_matrix([_old(f) for f in family])


@KERNEL
@given(domain=domains(simplex=True), data=st.data())
def test_forced_data_matches_the_fraction_loop(domain, data):
    vertices, maps = domain
    spec = sf.SurfaceSpec(vertices, maps, [{}] * len(maps), _scaling(data.draw, len(maps)))
    points = list(dict.fromkeys([*spec.vertices, *(u.apply(v) for u in maps for v in spec.vertices)]))
    values = st.one_of(st.integers(-2, 2), small_fracs)
    tables = [{p: data.draw(values, label="value") for p in points}
              for _ in range(data.draw(st.integers(1, 3), label="tables"))]
    got, want = sf._forced_data(spec, tables), oracle.forced_data(spec, tables)
    assert [[list(lam.items()) for lam in row] for row in got] == \
        [[list(lam.items()) for lam in row] for row in want]
    assert all(isinstance(c, F) for row in got for lam in row for c in lam.values())
