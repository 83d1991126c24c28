"""Acceptance gate: every contract criterion, one printed line each."""

import time
from fractions import Fraction as F

import numpy as np

from waveletsets import fif, mra, surfaces, tiles
from waveletsets.geometry import Mat, Vec
from waveletsets.reflections import centered_square_figure, affine_reflection, klein_four_root_system


def report(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return ok


def test_criterion_1_shannon_set_is_exact():
    t0 = time.perf_counter()
    e0 = tiles.shannon_set()
    t = tiles.translation_congruent(e0, tiles.DyadicBoxSet.from_box((F(0), F(2))), [F(2)])
    d = tiles.dilation_congruent(e0, e0, kappa=2, allow_center=True)
    crit = tiles.is_wavelet_set_1d(e0)
    elapsed = time.perf_counter() - t0
    ok = (t.residual_measure == 0 and d.residual_measure == 0
          and crit["is_wavelet_set"] and elapsed < 1.0)
    assert report(f"criterion 1: Shannon set exact residual 0 in {elapsed:.3f}s", ok)


def test_criterion_2_w1_three_way_within_tail():
    t0 = time.perf_counter()
    fx = tiles.build_w1(8)
    # exact geometric tail: 8 * sum_{k>8} (pi / 2^(2k+1))^2, in pi^2 units
    bound = 8 * sum(F(1, 4) ** (2 * k + 1) for k in range(9, 60))
    bound += 8 * F(1, 4) ** 121 / (1 - F(1, 16))  # closed-form remainder
    assert bound == 8 * fx.tail
    rep = tiles.three_way_check(fx.wavelet_set, centered_square_figure(), (2, 2))
    identity = fx.wavelet_set.measure + 4 * fx.tail == 4
    elapsed = time.perf_counter() - t0
    ok = rep.within(bound) and identity and elapsed < 10.0
    assert report(
        f"criterion 2: W1 residuals ({rep.translation_residual}, {rep.dilation_residual}, "
        f"{rep.weyl_residual}) <= {bound} pi^2, exact identity, {elapsed:.2f}s", ok)


def test_criterion_3_w2_three_way_and_reflection_cover():
    t0 = time.perf_counter()
    fx = tiles.build_w2(8)
    bound = 8 * fx.tail
    rep = tiles.three_way_check(fx.wavelet_set, centered_square_figure(), (2, 2))
    d = fx.components["D"]
    b = fx.components["B"]
    rho2_d = d.reflect_axis(0).translate((2, 0))
    rho1_dm = d.reflect_axis(0).reflect_axis(0).translate((-2, 0))
    cover = rho2_d.union(rho1_dm)
    target = tiles.DyadicBoxSet.from_box((-1, 1), (-1, 1)).subtract(b).subtract(b.reflect_axis(0))
    cert = tiles.translation_congruent(cover, target, [F(2), F(2)])
    cover_ok = cert.verify().ok and cert.residual_measure == 2 * fx.tail
    identity = fx.wavelet_set.measure + 2 * fx.tail == 4
    elapsed = time.perf_counter() - t0
    ok = rep.within(bound) and identity and cover_ok and elapsed < 10.0
    assert report(
        f"criterion 3: W2 residuals within {bound} pi^2, reflection cover certified "
        f"(residual = omitted tail {2 * fx.tail}), {elapsed:.2f}s", ok)


def test_criterion_4_constructor_reaches_tolerance_and_recertifies():
    t0 = time.perf_counter()
    res = tiles.construct_wavelet_set(
        tiles.DyadicBoxSet.from_box((F(-1), F(1))), tiles.shannon_set(), [F(2)],
        kappa=2, epsilon=F(1, 10 ** 6), max_iterations=50)
    elapsed = time.perf_counter() - t0
    t_ok = res.translation_certificate.verify().ok
    d_ok = res.dilation_certificate.verify().ok
    ok = (res.residual_history[-1] <= F(1, 10 ** 6)
          and res.translation_certificate.residual_measure <= F(1, 10 ** 6)
          and res.iterations <= 50 and t_ok and d_ok and elapsed < 30.0)
    assert report(
        f"criterion 4: constructor residual {float(res.residual_history[-1]):.2e} "
        f"in {res.iterations} iterations, re-certified, {elapsed:.2f}s", ok)


def test_criterion_5_two_cell_fixture_knots_and_contraction():
    f = fif.fixture("ex3.3")
    knots_ok = f.knot_values() == [0, F(7, 10), 0]
    diffs = f.operator_iterates(12, 20)
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(diffs, diffs[1:])]
    decay_ok = all(b <= 0.6 * a + 1e-12 for a, b in zip(gaps, gaps[1:]) if a > 1e-13)
    ok = knots_ok and decay_ok
    assert report("criterion 5: two-cell fixture knots (0, 0.7, 0) exact, "
                  "iterate gaps decay by factor <= 0.6 over 20 steps", ok)


def test_criterion_6_three_cell_fixture_both_modes():
    f = fif.fixture("ex3.5", "translation")
    g = fif.fixture("ex3.5", "reflection")
    want = [0, 1, F(1, 2), F(3, 2)]
    ok = f.knot_values() == want and g.knot_values() == want
    assert report("criterion 6: three-cell knots (0, 1, 1/2, 3/2) exact in both layouts", ok)


def test_criterion_7_surface_fixture_vertices_and_validator():
    spec = surfaces.fixture("ex5.2")
    surf = surfaces.fixed_point(spec)
    outer_ok = all(v == 0 for v in surf.vertex_values().values())
    lv = surf.mesh(1)
    # fixed-point oracle values; the often-quoted 1/2 at (1/2, 0) fails the
    # cell relations, so the oracle value 1/5 is reported instead
    inner_ok = (lv[(F(1, 2), F(0))] == F(1, 5)
                and lv[(F(1, 2), F(1, 2))] == F(1, 2)
                and lv[(F(0), F(1, 2))] == F(3, 10))
    accepts = surfaces.validate_condition_star(spec).valid
    bad = list(spec.data)
    bad[2] = dict(bad[2])
    bad[2][(0, 0)] += F(1, 10)
    rejects = not surfaces.validate_condition_star(spec.with_data(bad)).valid
    ok = outer_ok and inner_ok and accepts and rejects
    assert report("criterion 7: surface outer vertices 0, oracle inner values "
                  "(1/5 flagged, 1/2, 3/10), validator accepts fixture and "
                  "rejects perturbation", ok)


def test_criterion_8_mra_filters():
    t0 = time.perf_counter()
    basis = mra.build(mra.MRAConfig())
    dims_ok = basis.config.generator_count == 8 and basis.config.wavelet_count == 24
    gram = np.array([[float(v) for v in row] for row in basis.atom_gram])
    phi_ok = np.abs(basis.coeffs @ gram @ basis.coeffs.T - np.eye(8)).max() < 1e-8
    psi_ok = np.abs(basis.W.T @ basis.W - np.eye(24)).max() < 1e-8
    cross_ok = np.abs(basis.V.T @ basis.W).max() < 1e-8
    pts, atomvals, _ = basis.centroid_samples(5)
    phi = basis.coeffs @ atomvals
    s = float(basis.config.scaling)
    resid = 0.0
    for j in range(4):
        pulled = np.array(
            [[float(surfaces.poly_val(basis.atoms[c].spec.data[j], y)) + s * atomvals[c, k]
              for k, y in enumerate(pts)] for c in range(8)])
        resid = max(resid, np.abs(basis.coeffs @ pulled - basis.P[j] @ phi).max())
    rng = np.random.default_rng(5)
    fine = {"r": rng.standard_normal(32)}
    back = basis.synthesize(*basis.analyze(fine))
    pr = np.abs(back["r"] - fine["r"]).max()
    elapsed = time.perf_counter() - t0
    ok = (dims_ok and phi_ok and psi_ok and cross_ok and resid < 1e-6
          and pr < 1e-6 and elapsed < 60.0)
    assert report(
        f"criterion 8: |A|=8 |B|=24, refinement residual {resid:.1e} on depth-5 mesh, "
        f"orthonormality to 1e-8, round trip {pr:.1e}, {elapsed:.1f}s", ok)


def test_criterion_9_group_suite():
    w = klein_four_root_system().weyl_group()
    rho1 = Mat([[-1, 0], [0, 1]])
    rho2 = Mat([[1, 0], [0, -1]])
    klein_ok = (len(w) == 4 and
                rho1.matmul(rho2).matmul(rho1.matmul(rho2)) == Mat.identity(2))
    # in pi units: mirrors at <x, r> = k and <x, r> = l compose to the exact
    # lattice translation by 2(k - l) r for a unit root r
    comp_ok = True
    for r in ((1, 0), (0, 1)):
        for k, l in ((3, 1), (-2, 4)):
            comp = affine_reflection(r, k).compose(affine_reflection(r, l))
            comp_ok = comp_ok and comp.linear == Mat.identity(2)
            comp_ok = comp_ok and comp.shift == Vec(r).scale(2 * (k - l))
    group = tiles.intersection_group(centered_square_figure(), (2, 2))
    lattice_ok = group == tiles.GroupSpec("translation", spacings=(4, 4))
    ok = klein_ok and comp_ok and lattice_ok
    assert report("criterion 9: Klein four order 4, mirror compositions are exact "
                  "lattice translations, the intersection group is the 4pi lattice", ok)


def test_criterion_10_property_suites_configured():
    import test_properties as tp

    suites = [getattr(tp, name) for name in dir(tp) if name.startswith("test_")]
    counts = [s._hypothesis_internal_use_settings.max_examples for s in suites]
    ok = len(suites) == 5 and all(c >= 500 for c in counts)
    assert report(
        f"criterion 10: {len(suites)} randomized property suites at "
        f"{min(counts)}+ cases each (run in this same test session)", ok)
