"""Multiresolution filter oracles: dimensions, orthogonality, refinement."""

import json
import math
from fractions import Fraction as F

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
                [float(sf.poly_val(basis.atoms[c].spec.data[j], y)) + s * atomvals[c, k] for k, y in enumerate(pts)]
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


def _row_loop_transforms(basis, fine, coarse, detail):
    """analyze and synthesize as they were: one row slice assignment per word."""
    keys, na = list(fine), basis.V.shape[1]
    split = np.array([fine[k] for k in keys]).reshape(len(keys), -1) @ basis.VW
    analyzed = ({k: split[r, :na] for r, k in enumerate(keys)},
                {k: split[r, na:] for r, k in enumerate(keys)})
    keys = list(coarse) + [k for k in detail if k not in coarse]
    split = np.zeros((len(keys), basis.VW.shape[1]))
    for r, k in enumerate(keys):
        if k in coarse:
            split[r, :na] = np.asarray(coarse[k], dtype=float)
        if k in detail:
            split[r, na:] = np.asarray(detail[k], dtype=float)
    rows = split @ basis.VW.T
    return analyzed, {k: rows[r] for r, k in enumerate(keys)}


@pytest.mark.parametrize("words", ["equal", "disjoint", "overlapping"])
def test_stacked_transforms_are_bit_identical_to_the_row_loop(basis, words):
    rng = np.random.default_rng(3)
    fine = {("w", i): rng.standard_normal(32) for i in range(60)}
    coarse, detail = basis.analyze(fine)
    if words == "disjoint":
        coarse = {k: v for k, v in coarse.items() if k[1] % 2}
        detail = {k: list(v) for k, v in detail.items() if not k[1] % 2}
    elif words == "overlapping":
        coarse = {k: v for k, v in coarse.items() if k[1] >= 20}
        detail = dict(reversed([(k, v) for k, v in detail.items() if k[1] < 40]))
    (want_coarse, want_detail), want = _row_loop_transforms(basis, fine, coarse, detail)
    for got, expect in ((basis.analyze(fine)[0], want_coarse), (basis.analyze(fine)[1], want_detail),
                        (basis.synthesize(coarse, detail), want)):
        assert list(got) == list(expect)
        assert all(np.array_equal(got[k], expect[k]) for k in expect)


SQUARE = box_figure("unit-square", [(0, 1), (0, 1)])
INTERVAL = box_figure("unit-interval", [(0, 1)])
# (figure, kappa, degree) at fine widths 16, 32, 48, 64, 27 (the interval) and 162
TRANSFORM_WIDTHS = {16: (SQUARE, 2, 0), 32: (SQUARE, 2, 1), 48: (SQUARE, 2, 2), 64: (SQUARE, 2, 3),
                    27: (INTERVAL, 3, 2), 162: (SQUARE, 3, 1)}


@pytest.fixture(scope="module")
def bases():
    return {w: mra.build(mra.MRAConfig(figure=fig, kappa=k, degree=d))
            for w, (fig, k, d) in TRANSFORM_WIDTHS.items()}


@pytest.mark.parametrize("width", sorted(TRANSFORM_WIDTHS))
def test_blocked_transforms_match_the_single_product(bases, width):
    # a block of b rows, or a 1-row remainder, may round in the last bits
    # apart from the one product: the largest gap measured on these
    # standard-normal tables is 1.4e-15, so 1e-14 bounds it; the widths
    # above 64 take the one product itself
    basis = bases[width]
    VW, na = basis.VW, basis.V.shape[1]
    assert VW.shape == (width, width)
    b = 2 ** 18 // width ** 2
    rng = np.random.default_rng(width)
    for n in sorted({0, 1, 2, b - 1, b, b + 1, 2000}):
        rows = rng.standard_normal((n, width))
        coarse, detail = basis.analyze(dict(enumerate(rows)))
        split = np.array([np.concatenate([coarse[i], detail[i]]) for i in range(n)]).reshape(n, width)
        back = basis.synthesize({i: r[:na] for i, r in enumerate(rows)},
                                {i: r[na:] for i, r in enumerate(rows)})
        back = np.array([back[i] for i in range(n)]).reshape(n, width)
        for got, want in ((split, rows @ VW), (back, rows @ VW.T)):
            if width > 64:
                assert np.array_equal(got, want)
            else:
                assert n == 0 or np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("width", sorted(TRANSFORM_WIDTHS))
def test_transform_products_stay_on_the_calling_blas_thread(bases, monkeypatch, width):
    # every product of a transform of width <= 64 has at most 2^18
    # multiply-adds, the largest gemm OpenBLAS keeps on the calling thread;
    # a wider one is the one product of the whole table
    basis = bases[width]
    shapes, matmul = [], np.matmul

    def recording(a, b, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    rows = np.random.default_rng(1).standard_normal((2000, width))
    coarse, detail = basis.analyze(dict(enumerate(rows)))
    basis.synthesize(coarse, detail)
    if width > 64:
        assert shapes == [((2000, width), (width, width))] * 2
    else:
        assert len(shapes) >= 2
        assert all(a[-2] * a[-1] * b[-1] <= 2 ** 18 for a, b in shapes)
        assert sum(math.prod(a[:-1]) for a, _ in shapes) == 2 * 2000


@pytest.mark.parametrize("fine", [
    {"a": np.zeros((2, 16))}, {"a": np.zeros(31)}, {"a": np.zeros(33)}, {"a": 0.0},
    {"a": np.zeros(32), "b": np.zeros(31)}, {"a": np.zeros(32), "b": [np.zeros(32)]},
])
def test_analyze_refuses_a_word_that_is_not_one_fine_vector(basis, fine):
    with pytest.raises(ValueError):
        basis.analyze(fine)


def test_centroid_samples_refuse_a_negative_depth(basis):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        basis.centroid_samples(-1)
    pts, values, weight = basis.centroid_samples(0)
    assert len(pts) == 1 and values.shape == (8, 1) and weight == 4.0


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


@pytest.mark.parametrize("fields, name", [
    ({"kappa": 2.5}, "kappa"), ({"kappa": F(5, 2)}, "kappa"), ({"kappa": 3.0}, "kappa"),
    ({"degree": 1.5}, "degree"), ({"degree": F(1)}, "degree"),
])
def test_config_requires_integer_kappa_and_degree(fields, name):
    # refused at construction, naming the field, not by `build` with a TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        mra.MRAConfig(**fields)


def test_config_accepts_numpy_integers():
    cfg = mra.MRAConfig(kappa=np.int64(3), degree=np.int64(0))
    assert (cfg.cell_count, cfg.generator_count) == (9, 9)


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


def _json_module_text(bank):
    """The filter bank's JSON as the json module's indent encoder writes it."""
    payload = {"words": [mra._iso_to_obj(w) for w in bank.words],
               "P": [[[float(v) for v in row] for row in m] for m in bank.P],
               "Q": [[[float(v) for v in row] for row in m] for m in bank.Q]}
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("kappa,degree", [(2, 1), (3, 2)])
def test_filter_json_is_the_json_module_text(kappa, degree):
    bank = mra.build(mra.MRAConfig(kappa=kappa, degree=degree)).filter_bank()
    assert bank.to_json() == _json_module_text(bank)


def test_filter_json_comes_in_one_piece_per_matrix(basis):
    bank = basis.filter_bank()
    pieces = list(bank.json_pieces())
    # the opening of P, its matrices and close, the same for Q, and the words
    assert len(pieces) == 2 + len(bank.P) + 2 + len(bank.Q) + 1
    assert "".join(pieces) == _json_module_text(bank)


def test_filter_json_writes_non_finite_and_edge_floats_as_json_does(basis):
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 0.1]
    bank = mra.FilterBank(basis.words[:2], [np.array([odd, odd[::-1]]), np.zeros((0, 3)), [[1, -2]]],
                          [np.zeros((2, 0)), np.array([[np.float32(0.1)]])])
    assert bank.to_json() == _json_module_text(bank)
    assert "NaN" in bank.to_json() and "-Infinity" in bank.to_json()
    empty = mra.FilterBank([], [], [])
    assert empty.to_json() == _json_module_text(empty)


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
