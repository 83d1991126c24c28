"""Families on one shared system against the oracles and against fresh specs.

Specs made by `SurfaceSpec.with_data` (and the fractal functions of one
cardinal basis) share everything that does not depend on their data: map
inverses, domain geometry, the monomial-integral table, the inverted moment
system of each degree, the vertex interpolation inverse and one 1-D mesh
point list per depth.  Every moment, inner product, Gram matrix and mesh of
a member must equal the oracle in `selfaffine_oracle.py` and the same member
built as a fresh spec, which starts a system of its own.  Families mix data
degrees, so several moment degrees are filled on one system, in a drawn
order; they use one scaling or one per cell, on a triangle or on a
subdivided box.  Families that mix several systems must pair like the
Fraction loops, and `mesh(1)` must hold every domain vertex.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import selfaffine_oracle as oracle
from test_selfaffine_oracle import _old
from waveletsets import fif, mra
from waveletsets.geometry import AffineMap, Mat, Vec
from waveletsets import surfaces as sf
from waveletsets.reflections import box_figure, right_triangle_figure, subdivide

FAMILIES = settings(max_examples=60, deadline=None)
SURFACE_BASES = settings(max_examples=15, deadline=None)
BUILDS = settings(max_examples=6, deadline=None)

modes = st.sampled_from(["translation", "reflection"])
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# |s| < 1 over a small or a large denominator
scalings = st.one_of(st.integers(1, 12), st.integers(2, 2 ** 64)).flatmap(
    lambda den: st.integers(-den + 1, den - 1).map(lambda p: F(p, den)))


def _box_domain(widths, kappa):
    figure = box_figure([(0, w) for w in widths])
    corners = [()]
    for lo, hi in figure.box:
        corners = [c + (t,) for c in corners for t in (lo, hi)]
    return tuple(corners), tuple(subdivide(figure, kappa))


DOMAINS = {
    "triangle": (right_triangle_figure().vertices, sf.quarter_triangle_maps()),
    "square": _box_domain((1, 1), 2),
    "wide box": _box_domain((2, F(1, 3)), 2),
    "square, kappa 3": _box_domain((1, 1), 3),
}


EX52 = sf.fixture("ex5.2").data


def _fresh(spec):
    """The same spec built anew, on a system of its own."""
    return sf.SurfaceSpec(spec.vertices, spec.maps, spec.data, spec.scaling)


@st.composite
def polynomials(draw, dim):
    """A polynomial of a drawn degree 0..2, with many zero coefficients."""
    degree = draw(st.integers(0, 2), label="degree")
    coeffs = st.one_of(st.just(F(0)), small_fracs)
    return {e: c for e in sf._monomials_upto(dim, degree) if (c := draw(coeffs))}


@st.composite
def surface_families(draw):
    """(template spec, members built from it with `with_data`)."""
    vertices, maps = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)), label="domain")]
    n = len(maps)
    if draw(st.booleans(), label="per cell"):
        scaling = tuple(draw(st.lists(scalings, min_size=n, max_size=n), label="s"))
    else:
        scaling = draw(scalings, label="s")
    data = st.lists(polynomials(len(vertices[0])), min_size=n, max_size=n)
    template = sf.SurfaceSpec(vertices, maps, draw(data, label="template data"), scaling)
    members = [template.with_data(draw(data, label="data"))
               for _ in range(draw(st.integers(1, 3), label="members"))]
    return template, [sf.FractalSurface(spec) for spec in [template] + members]


@FAMILIES
@given(family=surface_families(), data=st.data())
def test_surface_family_matches_oracle_and_fresh_specs(family, data):
    template, members = family
    assert all(f.spec._system is template._system for f in members)
    fresh = [sf.FractalSurface(_fresh(f.spec)) for f in members]
    # moments at drawn requested degrees in a drawn order: a requested degree
    # below a member's data degree must still give the data degree's moments
    order = data.draw(st.permutations(range(len(members))), label="order")
    for k in order:
        degree = data.draw(st.integers(0, 2), label="requested degree")
        want = oracle.cell_surface_moments(members[k], degree)
        assert sf.moments(members[k], degree) == want
        assert sf.moments(fresh[k], degree) == want
    a, b = (data.draw(st.integers(0, len(members) - 1), label=k) for k in "ab")
    want = oracle.cell_surface_inner_product(members[a], members[b])
    assert sf.inner_product(members[a], members[b]) == want
    assert sf.inner_product(fresh[a], fresh[b]) == want
    gram = oracle.cell_surface_gram_matrix(members)
    assert sf.gram_matrix(members) == gram
    assert sf.gram_matrix(fresh) == gram


def _mesh_outcome(run):
    """The mesh items in order, or the type and message of the error raised."""
    try:
        return list(run().items())
    except ArithmeticError as exc:
        return type(exc), str(exc)


@FAMILIES
@given(family=surface_families(), depth=st.integers(0, 2), data=st.data())
def test_surface_family_meshes_match_oracle_and_fresh_specs(family, depth, data):
    # random data rarely agree on shared faces, so most meshes raise, and
    # they must raise alike
    template, members = family
    f = members[data.draw(st.integers(0, len(members) - 1), label="member")]
    want = _mesh_outcome(lambda: sf.FractalSurface(_fresh(f.spec)).mesh(depth))
    assert _mesh_outcome(lambda: f.mesh(depth)) == want
    if not isinstance(template.scaling, tuple):  # the oracle mesh takes one scaling
        assert _mesh_outcome(lambda: oracle.surface_mesh(oracle.FractalSurface(f.spec), depth)) == want


def _triangle(size):
    """The right triangle scaled by size and its quarter maps conjugated to it."""
    vertices = tuple((size * x, size * y) for x, y in right_triangle_figure().vertices)
    return vertices, tuple(AffineMap(u.linear, u.shift.scale(size)) for u in sf.quarter_triangle_maps())


@SURFACE_BASES
@given(s=scalings, per_cell=st.booleans(), size=st.sampled_from([1, 2, F(1, 3)]),
       depth=st.integers(0, 3))
def test_vertex_basis_meshes_match_fresh_specs(s, per_cell, size, depth):
    # with one scaling the members agree on shared faces, so their meshes
    # exist; different scalings per cell would break them past level 1, so
    # the basis refuses them
    vertices, maps = _triangle(size)
    data = [oracle.poly_compose_affine(p, AffineMap(Mat([[1 / size, 0], [0, 1 / size]]), Vec((0, 0))))
            for p in EX52]
    spec = sf.SurfaceSpec(vertices, maps, data, (s, -s, s / 2, s) if per_cell else s)
    if per_cell and s != 0:
        with pytest.raises(ValueError, match="one vertical scaling"):
            sf.basis_surfaces(spec)
        return
    basis = list(sf.basis_surfaces(spec).values())
    assert all(b.spec._system is spec._system for b in basis)
    for b in basis:
        want = _mesh_outcome(lambda: sf.FractalSurface(_fresh(b.spec)).mesh(depth))
        assert _mesh_outcome(lambda: b.mesh(depth)) == want
        assert isinstance(want, list)
    fresh = [sf.FractalSurface(_fresh(b.spec)) for b in basis]
    assert sf.gram_matrix(basis) == oracle.cell_surface_gram_matrix(basis) == sf.gram_matrix(fresh)


@st.composite
def function_families(draw):
    """(members, the same members each built anew): a uniform cardinal basis
    in either mode or a cardinal basis on non-uniform knots with a scaling
    per cell."""
    if draw(st.booleans(), label="uniform"):
        n, mode, s = draw(st.integers(1, 4)), draw(modes), draw(scalings, label="s")
        basis = fif.uniform_cardinal_basis(n, s, mode)
        fresh = [fif.FractalFunction.from_uniform_data(n, [c.data for c in _old(f).cells], [s] * n,
                                                       mode) for f in basis]
        return basis, fresh
    xs = sorted(draw(st.lists(small_fracs, min_size=2, max_size=5, unique=True), label="xs"))
    s = draw(st.lists(scalings, min_size=len(xs) - 1, max_size=len(xs) - 1), label="s")
    basis = fif.cardinal_basis(xs, s)
    fresh = [fif.FractalFunction.from_interpolation(xs, [int(j == i) for j in range(len(xs))], s)
             for i in range(len(xs))]
    return basis, fresh


@FAMILIES
@given(family=function_families(), data=st.data())
def test_function_family_matches_oracle_and_fresh_functions(family, data):
    basis, fresh = family
    assert all(f.spec._system is basis[0].spec._system for f in basis)
    assert all(_old(f).cells == _old(g).cells for f, g in zip(basis, fresh))
    # meshes at drawn depths in a drawn order, so one system holds several
    for _ in range(3):
        k = data.draw(st.integers(0, len(basis) - 1), label="member")
        depth = data.draw(st.integers(0, 4), label="depth")
        want = oracle.fif_mesh(_old(basis[k]), depth)
        assert basis[k].mesh(depth) == want
        assert fresh[k].mesh(depth) == want
    for k in data.draw(st.permutations(range(len(basis))), label="order"):
        degree = data.draw(st.integers(0, 3), label="degree")
        want = oracle.moments(_old(basis[k]), degree)
        assert fif.moments(basis[k], degree) == want == fif.moments(fresh[k], degree)
    a, b = (data.draw(st.integers(0, len(basis) - 1), label=k) for k in "ab")
    want = oracle.fif_inner_product(_old(basis[a]), _old(basis[b]))
    assert fif.inner_product(basis[a], basis[b]) == want == fif.inner_product(fresh[a], fresh[b])
    want = oracle.fif_gram_matrix([_old(f) for f in basis])
    assert fif.gram_matrix(basis) == want == fif.gram_matrix(fresh)


@BUILDS
@given(kappa=st.integers(2, 3), degree=st.integers(0, 2), s=scalings, square=st.booleans())
@example(kappa=2, degree=2, s=F(-3, 7), square=True)
def test_mra_atoms_share_one_system_and_match_oracle(kappa, degree, s, square):
    if kappa == 3 and square:
        degree = min(degree, 1)  # the oracle takes seconds beyond this
    figure = (box_figure([(0, 1), (0, 1)]) if square
              else box_figure([(0, 1)]))
    basis = mra.build(mra.MRAConfig(figure=figure, kappa=kappa, degree=degree, scaling=s))
    assert len({id(a.spec._system) for a in basis.atoms}) == 1
    assert basis.atom_moments == [oracle.cell_surface_moments(a, degree) for a in basis.atoms]
    assert basis.atom_gram == oracle.surface_gram_matrix(basis.atoms)


# -- edges ---------------------------------------------------------------------


def test_mesh_lists_are_each_members_own():
    basis = fif.uniform_cardinal_basis(3, F(1, 2), "reflection")
    fresh = [fif.FractalFunction.from_uniform_data(3, [c.data for c in _old(f).cells],
                                                   [F(1, 2)] * 3, "reflection") for f in basis]
    assert basis[1].mesh(3) == fresh[1].mesh(3)
    xs, ys = basis[0].mesh(3)
    xs[0] = F(99)
    xs.append(F(100))
    ys.clear()
    assert basis[1].mesh(3) == fresh[1].mesh(3)
    assert basis[0].mesh(3) == fresh[0].mesh(3)


@pytest.mark.parametrize("cut", [-1, 1])
def test_with_data_still_counts_data_functions(cut):
    spec = sf.fixture("ex5.2")
    data = list(spec.data[:cut]) if cut < 0 else list(spec.data) + [spec.data[0]]
    with pytest.raises(ValueError, match="one data function per similitude required"):
        spec.with_data(data)


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(sorted(DOMAINS)), data=st.data())
def test_inner_product_across_separate_systems_matches_oracle(domain, data):
    # equal maps and vertices, built twice; the scalings may differ per cell,
    # so the pair denominator must come from both surfaces
    vertices, maps = DOMAINS[domain]
    n = len(maps)
    cell_data = st.lists(polynomials(len(vertices[0])), min_size=n, max_size=n)
    per_cell = st.lists(scalings, min_size=n, max_size=n).map(tuple)
    f, g = (sf.FractalSurface(sf.SurfaceSpec(vertices, maps, data.draw(cell_data, label="data"),
                                             data.draw(st.one_of(scalings, per_cell), label="s")))
            for _ in "fg")
    assert f.spec._system is not g.spec._system
    want = oracle.cell_surface_inner_product(f, g)
    assert sf.inner_product(f, g) == want
    assert sf.gram_matrix([f, g]) == oracle.cell_surface_gram_matrix([f, g])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), mode=modes, data=st.data())
def test_functions_pair_on_shared_maps_whatever_their_scalings(n, mode, data):
    # fif pairs functions as the surfaces engine does: the maps and the
    # domain must agree, the scalings per cell need not
    polys = st.lists(st.lists(small_fracs, min_size=1, max_size=3), min_size=n, max_size=n)
    per_cell = st.lists(scalings, min_size=n, max_size=n)
    f, g = (fif.FractalFunction.from_uniform_data(n, data.draw(polys, label="data"),
                                                  data.draw(per_cell, label="s"), mode)
            for _ in "fg")
    assert fif.inner_product(f, g) == oracle.cell_surface_inner_product(f, g)
    assert fif.gram_matrix([f, g]) == oracle.cell_surface_gram_matrix([f, g])
    assert fif.gram_matrix_quadrature([f, g], depth=3).shape == (2, 2)
    # same domain [0, n], other maps
    other = fif.FractalFunction.from_interpolation([0, F(1, 3), n], [0, 1, 0], [F(1, 2)] * 2)
    for pair in ([f, other], [other, g]):
        with pytest.raises(ValueError, match="share domain and similitudes"):
            fif.inner_product(*pair)
        with pytest.raises(ValueError, match="share domain and similitudes"):
            fif.gram_matrix(pair)
        with pytest.raises(ValueError, match="share domain and similitudes"):
            fif.gram_matrix_quadrature(pair)


@st.composite
def several_systems(draw):
    """Members of 2 to 4 systems on one domain, each system a separately
    built spec with a scaling of its own, shared by its cells or one per
    cell, and 0 to 2 more members made by `with_data`: on [0, n] in either
    layout, or on the right triangle."""
    if draw(st.booleans(), label="1-D"):
        n, mode = draw(st.integers(1, 4), label="n"), draw(modes, label="mode")
        vertices, maps = ((0,), (n,)), fif.uniform_maps(n, mode)
    else:
        vertices, maps = DOMAINS["triangle"]
    n, dim = len(maps), len(vertices[0])
    data = st.lists(polynomials(dim), min_size=n, max_size=n)
    per_cell = st.lists(scalings, min_size=n, max_size=n).map(tuple)
    systems = []
    for _ in range(draw(st.integers(2, 4), label="systems")):
        template = sf.SurfaceSpec(vertices, maps, draw(data, label="data"),
                                  draw(st.one_of(scalings, per_cell), label="s"))
        systems.append([template] + [template.with_data(draw(data, label="member data"))
                                     for _ in range(draw(st.integers(0, 2), label="members"))])
    make = fif.FractalFunction if dim == 1 else sf.FractalSurface
    return [[make(spec) for spec in members] for members in systems]


@settings(max_examples=30, deadline=None)
@given(systems=several_systems(), data=st.data())
def test_families_of_several_systems_pair_like_the_oracles(systems, data):
    # each pair forms 1 - sum_i det_i s_a,i s_b,i from its two members' own
    # scalings, so a Gram over members of several systems must equal the
    # Fraction loops, and each system's block the fif oracle's
    family = [f for members in systems for f in members]
    assert len({id(f.spec._system) for f in family}) == len(systems)
    order = data.draw(st.permutations(range(len(family))), label="order")
    family = [family[k] for k in order]
    gram = sf.gram_matrix(family)
    assert gram == oracle.cell_surface_gram_matrix(family)
    a, b = (data.draw(st.integers(0, len(family) - 1), label=k) for k in "ab")
    assert sf.inner_product(family[a], family[b]) == gram[a][b] == \
        oracle.cell_surface_inner_product(family[a], family[b])
    if isinstance(family[0], fif.FractalFunction):
        assert fif.gram_matrix(family) == gram
        for members in systems:
            assert fif.gram_matrix(members) == oracle.fif_gram_matrix([_old(f) for f in members])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), mode=modes, s=scalings, data=st.data())
def test_function_systems_keep_one_point_list_per_depth(n, mode, s, data):
    # meshes of depths 1-6 of every member, in a drawn order: the system
    # keeps one point list per depth, the first mesh's, and each call
    # returns it in a new list, so a caller's edits do not reach the next
    basis = fif.uniform_cardinal_basis(n, s, mode)
    calls = [(k, depth) for k in range(n + 1) for depth in range(1, 7)]
    for k, depth in data.draw(st.permutations(calls), label="order"):
        xs, ys = basis[k].mesh(depth)
        assert (xs, ys) == oracle.fif_mesh(_old(basis[k]), depth)
        xs[0] = F(99)
        xs.append(F(100))
    orbits = basis[0].spec._system.orbits
    assert sorted(orbits) == list(range(1, 7))
    assert all(type(pts) is list and len(pts) == n ** depth + 1 for depth, pts in orbits.items())
    assert all(orbits[depth] == oracle.fif_mesh(_old(basis[0]), depth)[0] for depth in orbits)


def test_first_mesh_of_ex52_holds_every_domain_vertex():
    # `mesh(1)` holds the outer and inner vertices of the first refinement
    spec = sf.fixture("ex5.2")
    surf = sf.FractalSurface(spec)
    mesh = surf.mesh(1)
    assert set(mesh) == set(sf.level_one_vertices(spec))
    assert all(mesh[v] == value for v, value in surf.vertex_values().items())


@pytest.mark.parametrize("kappa", [2, 3])
@pytest.mark.parametrize("widths", [[(0, 1)], [(0, 1), (0, 1)], [(0, F(1, 3)), (0, F(2, 5))]])
def test_first_mesh_on_the_mra_boxes_holds_every_domain_vertex(kappa, widths):
    # the MRA's box system with the data g o u_i - s g of an affine g, whose
    # surface is g
    basis = mra.build(mra.MRAConfig(figure=box_figure(widths), kappa=kappa, degree=0))
    template, s = basis.atoms[0].spec, F(2, 7)
    g = {(0,) * len(widths): F(1, 3), (1,) + (0,) * (len(widths) - 1): F(-2, 5)}
    lam = [oracle.poly_add(oracle.poly_compose_affine(g, u), {e: -s * c for e, c in g.items()})
           for u in template.maps]
    surf = sf.FractalSurface(sf.SurfaceSpec(template.vertices, template.maps, lam, s))
    mesh = surf.mesh(1)
    assert set(template.vertices) <= set(mesh)
    assert all(mesh[v] == value == sf.poly_val(g, v) for v, value in surf.vertex_values().items())
