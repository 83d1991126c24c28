"""Multiresolution filter oracles: dimensions, orthogonality, refinement."""

import numpy as np
import pytest

import selfaffine_oracle as oracle
from waveletsets import cli, mra
from waveletsets import surfaces as sf
from waveletsets.geometry import AffineIsometry
from waveletsets.reflections import box_figure


@pytest.fixture(scope="module")
def basis():
    return mra.build(mra.MRAConfig())


def test_dimension_formulas(basis):
    cfg = basis.config
    assert cfg.cell_count == 4
    assert cfg.generator_count == 8
    assert cfg.wavelet_count == 24
    assert basis.coeffs.shape == (8, 8)
    assert basis.W.shape == (32, 24)


def test_scaling_vector_is_orthonormal(basis):
    g = np.array([[float(v) for v in row] for row in basis.atom_gram])
    err = np.abs(basis.coeffs @ g @ basis.coeffs.T - np.eye(8)).max()
    assert err < 1e-12


def test_atom_gram_is_exact_and_symmetric(basis):
    g = basis.atom_gram
    assert all(g[a][b] == g[b][a] for a in range(8) for b in range(8))
    # disjoint-cell atoms with the same scaling still overlap through the
    # common fixed-point tail, so off-diagonal entries are genuine rationals
    assert g[0][0] > 0


def test_refinement_identity_on_refined_centroids(basis):
    pts, atomvals, _ = basis.centroid_samples(5)
    phi = basis.coeffs @ atomvals
    s = float(basis.config.scaling)
    worst = 0.0
    for j in range(4):
        pulled = np.array(
            [
                [float(sf.poly_val(basis._atom_data[c][j], y)) + s * atomvals[c, k] for k, y in enumerate(pts)]
                for c in range(8)
            ]
        )
        lhs = basis.coeffs @ pulled  # [a, k] = phi^a(u_j(pts[k]))
        rhs = basis.P[j] @ phi
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-6


def test_filter_support_is_one_per_cell(basis):
    assert len(basis.words) == basis.config.cell_count
    assert len({w.key() for w in basis.words}) == len(basis.words)


def test_wavelets_orthonormal_and_orthogonal_to_v0(basis):
    assert np.abs(basis.W.T @ basis.W - np.eye(24)).max() < 1e-10
    assert np.abs(basis.V.T @ basis.W).max() < 1e-10
    assert np.abs(basis.V.T @ basis.V - np.eye(8)).max() < 1e-10


def test_two_scale_consistency(basis):
    total = sum(p @ p.T for p in basis.P)
    assert np.abs(total - 4 * np.eye(8)).max() < 1e-10


def test_analysis_synthesis_roundtrip(basis):
    rng = np.random.default_rng(7)
    fine = {("cell", i): rng.standard_normal(32) for i in range(3)}
    coarse, detail = basis.analyze(fine)
    back = basis.synthesize(coarse, detail)
    assert max(np.abs(back[k] - fine[k]).max() for k in fine) < 1e-6


def test_stacked_transforms_match_per_word_products(basis):
    rng = np.random.default_rng(5)
    fine = {w: rng.standard_normal(32) for w in range(50)}
    coarse, detail = basis.analyze(fine)
    for w, y in fine.items():
        assert np.abs(coarse[w] - basis.V.T @ y).max() < 1e-12
        assert np.abs(detail[w] - basis.W.T @ y).max() < 1e-12
    # words present on one side only are zero on the other
    coarse["only-coarse"] = rng.standard_normal(8)
    detail["only-detail"] = rng.standard_normal(24)
    back = basis.synthesize(coarse, detail)
    assert set(back) == set(fine) | {"only-coarse", "only-detail"}
    for w in fine:
        assert np.abs(back[w] - (basis.V @ coarse[w] + basis.W @ detail[w])).max() < 1e-12
    assert np.abs(back["only-coarse"] - basis.V @ coarse["only-coarse"]).max() < 1e-12
    assert np.abs(back["only-detail"] - basis.W @ detail["only-detail"]).max() < 1e-12
    assert basis.analyze({}) == ({}, {}) and basis.synthesize({}, {}) == {}


def test_build_solves_one_moment_system_per_atom(monkeypatch):
    solved = []
    moments = sf.moments

    def counting(f, degree):
        solved.append(f)
        return moments(f, degree)

    monkeypatch.setattr(sf, "moments", counting)
    monkeypatch.setattr(mra, "moments", counting)
    b = mra.build(mra.MRAConfig(kappa=3, degree=1))
    assert len(b.atoms) == 18
    assert len(solved) == 18 and {id(f) for f in solved} == {id(a) for a in b.atoms}


def test_zero_roundtrip(basis):
    coarse, detail = basis.analyze({"w": np.zeros(32)})
    assert np.abs(basis.synthesize(coarse, detail)["w"]).max() == 0.0


def test_one_level_parseval(basis):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(32)
    coarse, detail = basis.analyze({"w": y})
    lhs = float(y @ y)
    rhs = float(coarse["w"] @ coarse["w"] + detail["w"] @ detail["w"])
    assert abs(lhs - rhs) < 1e-6


def test_riesz_block_gram_eigenvalues(basis):
    # translated copies have disjoint interiors; the block Gram over a block
    # of cells is block-diagonal with the exact one-cell Gram in each block
    one = basis.coeffs @ np.array([[float(v) for v in row] for row in basis.atom_gram]) @ basis.coeffs.T
    block = np.kron(np.eye(9), one)
    eig = np.linalg.eigvalsh(block)
    assert eig.min() > 1 - 1e-8 and eig.max() < 1 + 1e-8


def test_approximation_energies_increase(basis):
    pts, _, weight = basis.centroid_samples(5)
    target = np.array([np.sin(float(x) + 0.5 * float(y)) for x, y in pts])
    energies = []
    for level in range(4):
        # orthonormal level-`level` basis: sqrt(N^level) phi^a o u_w^{-1} per word w
        words = [()]
        for _ in range(level):
            words = [w + (j,) for w in words for j in range(4)]
        energy = 0.0
        for w in words:
            cell = None
            for j in w:
                cell = basis.maps[j] if cell is None else cell.compose(basis.maps[j])
            inv = cell.inverse() if cell is not None else None
            inside = []
            for k, p in enumerate(pts):
                q = inv.apply(p) if inv is not None else p
                if all(0 <= qi <= 2 for qi in q):
                    inside.append((k, q))
            atoms = [[float(a.evaluate(q).value) for _, q in inside] for a in basis.atoms]
            vals = basis.coeffs @ np.array(atoms) * (2.0 ** level)
            sel = np.array([target[k] for k, _ in inside])
            coords = vals @ sel * weight
            energy += float(coords @ coords)
        energies.append(energy)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_haar_two_scale_coefficients():
    cfg = mra.MRAConfig(figure=box_figure("unit-interval", [(0, 1)]), kappa=2, degree=0, scaling=0)
    b = mra.build(cfg)
    assert np.abs(b.P[0] - np.array([[1.0, 1.0], [0.0, 0.0]])).max() < 1e-12
    assert np.abs(b.P[1] - np.array([[0.0, 0.0], [1.0, 1.0]])).max() < 1e-12


def test_filter_bank_json_roundtrip(basis):
    fb = basis.filter_bank()
    fb2 = mra.FilterBank.from_json(fb.to_json())
    assert fb.to_json() == fb2.to_json()
    assert all(a == b for a, b in zip(fb.words, fb2.words))
    assert max(np.abs(a - b).max() for a, b in zip(fb.P, fb2.P)) == 0.0


# -- filter words against the former isometry algebra ----------------------


@pytest.mark.parametrize("kappa,degree", [(2, 1), (3, 2)])
def test_filter_json_is_byte_identical_to_former_words(tmp_path, capsys, kappa, degree):
    # P and Q do not involve the words; the words' JSON must not change
    out = tmp_path / "bank.json"
    assert cli.main(["mra", "build", "--kappa", str(kappa), "--degree", str(degree),
                     "--out", str(out)]) == 0
    basis = mra.build(mra.MRAConfig(kappa=kappa, degree=degree))
    ident = oracle.AffineIsometry.identity(2)
    words = [oracle.scaled_cell_word(ident, u, kappa).inverse() for u in basis.maps]
    assert all(type(w) is AffineIsometry for w in basis.words)
    want = tmp_path / "want.json"
    cli._write(str(want), mra.FilterBank(words, basis.P, basis.Q).to_json())
    assert out.read_bytes() == want.read_bytes()
