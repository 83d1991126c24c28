"""Command-line contract: exit codes, echoed values, deterministic files."""

import json
import pathlib
import re
import shlex
import time
from fractions import Fraction as F

import numpy as np
import pytest

import waveletsets
from waveletsets import cli, fif, mra, render, surfaces
from waveletsets.mra import FilterBank


def run(args):
    return cli.main(args)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_exits_two(capsys):
    assert run(["bogus"]) == 2


def test_missing_required_flag_exits_two(capsys):
    assert run(["fif", "example"]) == 2


def test_unknown_fixture_exits_one(capsys):
    assert run(["fif", "example", "--name", "nope"]) == 1


@pytest.mark.parametrize("command,kind", [("fif example", "function"),
                                          ("surface fixture", "surface")])
def test_unknown_fixture_is_named_on_stderr(capsys, command, kind):
    assert run(command.split() + ["--name", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown {kind} fixture: nope\n"


def test_fixture_without_the_asked_layout_exits_one(capsys):
    # ex3.3 is an interpolation function with the translation layout only
    assert run(["fif", "example", "--name", "ex3.3", "--mode", "reflection"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fixture ex3.3 has only the translation layout\n"


@pytest.mark.parametrize("argv", [
    ["tiles", "w1", "--depth", "0"],
    ["mra", "build", "--kappa", "1"],
    ["fif", "basis", "--scaling", "abc"],
    ["fif", "example", "--name", "ex3.3", "--depth", "-1"],
    ["surface", "fixture", "--name", "ex5.2", "--depth", "-2"],
    ["mra", "build", "--degree", "-1"],
    ["mra", "build", "--scaling", "1"],
    ["fif", "basis", "--scaling", "3/2"],
    # meshes of more than 2**20 leaf cells
    ["fif", "basis", "--n", "4", "--depth", "11"],
    ["fif", "example", "--name", "ex3.3", "--depth", "21"],
    ["surface", "fixture", "--name", "ex5.2", "--depth", "11"],
    # `fif basis` meshes all n + 1 functions: (n + 1) * n**depth leaf cells
    ["fif", "basis", "--n", "4", "--depth", "10"],
    ["fif", "basis", "--n", "8", "--depth", "6"],
    ["fif", "basis", "--n", "64", "--depth", "3"],
    # a one-cell mesh has no cell bound, but each level still costs work
    ["fif", "basis", "--n", "1", "--depth", "2000000"],
    # planar fixtures stop at PLANAR_DEPTH_LIMIT = 64
    ["tiles", "w1", "--depth", "65"],
    # cost bounds: BASIS_CELLS_LIMIT, MRA_KAPPA_LIMIT, MRA_DEGREE_LIMIT,
    # CONSTRUCT_ITERATIONS_LIMIT
    ["fif", "basis", "--n", "65", "--depth", "1"],
    ["mra", "build", "--kappa", "5"],
    ["mra", "build", "--figure", "interval", "--degree", "5"],
    ["tiles", "construct", "--epsilon", "0", "--max-iterations", "1001"],
    ["mra", "build", "--figure", "cube"],
    # a zero denominator is a malformed fraction
    ["fif", "basis", "--scaling", "1/0"],
    ["mra", "build", "--scaling=-1/0"],
    ["tiles", "construct", "--epsilon", "1/0"],
])
def test_bad_parameter_exits_two(capsys, argv):
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                   if line.startswith("waveletsets ")]


def test_readme_has_cli_examples():
    assert README_COMMANDS


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_example_runs(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert run(argv) == 0
    capsys.readouterr()


def test_fif_example_echoes_knots(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    assert run(["fif", "example", "--name", "ex3.3", "--depth", "10",
                "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "knots: 0, 0.7, 0" in out
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("argv, meshes", [
    (["fif", "example", "--name", "ex3.3", "--depth", "10"],
     lambda: [fif.fixture("ex3.3").mesh(10)]),
    (["fif", "example", "--name", "ex3.5", "--mode", "reflection", "--depth", "6"],
     lambda: [fif.fixture("ex3.5", "reflection").mesh(6)]),
    (["fif", "basis", "--n", "4", "--scaling", "0.4", "--depth", "6"],
     lambda: [b.mesh(6) for b in fif.uniform_cardinal_basis(4, F(2, 5))]),
    (["fif", "basis", "--n", "3", "--mode", "reflection", "--scaling=-3/7", "--depth", "5"],
     lambda: [b.mesh(5) for b in fif.uniform_cardinal_basis(3, F(-3, 7), "reflection")]),
], ids=["ex3.3", "ex3.5 reflection", "basis 0.4", "basis -3/7 reflection"])
def test_fif_svg_equals_the_float_first_path(capsys, tmp_path, argv, meshes):
    # the CLI hands the mesh Fractions to the exporter, which makes each
    # float once; the bytes are those of converting every point first
    svg = tmp_path / "out.svg"
    assert run(argv + ["--svg", str(svg)]) == 0
    curves = [list(zip(map(float, xs), map(float, ys))) for xs, ys in meshes()]
    assert svg.read_bytes() == render.polylines_svg(curves).encode()


def test_fif_basis_reports_four_graphs(capsys):
    assert run(["fif", "basis", "--n", "3", "--mode", "reflection"]) == 0
    assert "4 basis functions" in capsys.readouterr().out


def test_fif_basis_builds_no_mesh_without_an_output(capsys, tmp_path, monkeypatch):
    # no output reads a mesh, so none is built; the printed text is the same
    built, mesh = [], fif.FractalFunction.mesh
    monkeypatch.setattr(fif.FractalFunction, "mesh",
                        lambda self, depth: built.append(depth) or mesh(self, depth))
    assert run(["fif", "basis", "--n", "3", "--depth", "5"]) == 0
    assert built == []
    assert capsys.readouterr().out == "4 basis functions on [0, 3], mode translation\n"
    csv = tmp_path / "basis.csv"
    assert run(["fif", "basis", "--n", "3", "--depth", "5", "--csv", str(csv)]) == 0
    assert built == [5] * 4
    assert capsys.readouterr().out == f"4 basis functions on [0, 3], mode translation\nwrote {csv}\n"


def test_fif_example_builds_no_mesh_without_an_output(capsys, tmp_path, monkeypatch):
    # the knot line reads no mesh, so one is built only for --csv or --svg
    built, mesh = [], fif.FractalFunction.mesh
    monkeypatch.setattr(fif.FractalFunction, "mesh",
                        lambda self, depth: built.append(depth) or mesh(self, depth))
    assert run(["fif", "example", "--name", "ex3.3", "--depth", "6"]) == 0
    assert built == []
    knots = capsys.readouterr().out
    assert knots.startswith("knots: ") and knots.count("\n") == 1
    csv = tmp_path / "example.csv"
    assert run(["fif", "example", "--name", "ex3.3", "--depth", "6", "--csv", str(csv)]) == 0
    assert built == [6]
    assert capsys.readouterr().out == f"{knots}wrote {csv}\n"


def test_surface_fixture_reports_vertices(capsys, tmp_path):
    # the outer vertices, then the inner ones of the first refinement in order
    csv = tmp_path / "mesh.csv"
    assert run(["surface", "fixture", "--name", "ex5.2", "--depth", "4",
                "--csv", str(csv)]) == 0
    assert capsys.readouterr().out == (
        "outer vertex (0, 0): 0\n"
        "outer vertex (1, 0): 0\n"
        "outer vertex (0, 1): 0\n"
        "inner vertex (0, 0.5): 3/10\n"
        "inner vertex (0.5, 0): 1/5\n"
        "inner vertex (0.5, 0.5): 1/2\n"
        "note: the fixed-point relations force f(1/2, 0) = 1/5; the value 1/2 "
        f"sometimes quoted for this vertex does not satisfy them\nwrote {csv}\n")
    assert csv.read_text().startswith("x,y,z")


def test_surface_fixture_builds_one_mesh(capsys, tmp_path, monkeypatch):
    # the vertex lines and the written files all read the one depth mesh,
    # which evaluates the vertices once
    meshes, vertex_calls = [], []
    mesh, vertex_values = surfaces.FractalSurface.mesh, surfaces.FractalSurface.vertex_values
    monkeypatch.setattr(surfaces.FractalSurface, "mesh",
                        lambda self, depth: meshes.append(depth) or mesh(self, depth))
    monkeypatch.setattr(surfaces.FractalSurface, "vertex_values",
                        lambda self: vertex_calls.append(1) or vertex_values(self))
    assert run(["surface", "fixture", "--name", "ex5.2", "--depth", "4",
                "--csv", str(tmp_path / "mesh.csv"), "--svg", str(tmp_path / "mesh.svg")]) == 0
    assert meshes == [4] and vertex_calls == [1]


def test_mra_build_reports_dimensions(capsys, tmp_path):
    out_file = tmp_path / "fb.json"
    assert run(["mra", "build", "--figure", "square", "--kappa", "2",
                "--degree", "1", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "scaling functions: 8" in out
    assert "wavelets: 24" in out
    bank = FilterBank.from_json(out_file.read_text())
    assert len(bank.words) == 4 and bank.Q[0].shape == (24, 8)
    # written one matrix at a time, with the bytes of the whole text
    assert out_file.read_text() == bank.to_json()
    assert float(_reconstruction_residual(out)) < 1e-12


def _reconstruction_residual(out):
    lines = [line for line in out.splitlines()
             if line.startswith("perfect-reconstruction residual (float): ")]
    assert len(lines) == 1
    return lines[0].rsplit(" ", 1)[1]


def test_mra_build_reports_its_float_accuracy_loss_near_scaling_one(capsys):
    # the float filters lose accuracy as |s| nears 1; the build reports the
    # miss, and past the residual bound it fails instead of hiding it
    assert run(["mra", "build", "--scaling", "999999/1000000"]) == 1
    captured = capsys.readouterr()
    assert 1e-6 < float(_reconstruction_residual(captured.out)) < 1e-1
    assert captured.err.startswith("error:")


# the bound lies between the cap's residual at s = 16777215/16777216
# (5.71e-06 here) and the (2, 1) residual at s = 999999/1000000 (7.63e-04);
# the cap's 52 MB filter file is not written
@pytest.mark.parametrize("args, code, out", [
    (["--kappa", "2", "--degree", "1", "--scaling", "999999/1000000"], 1, True),
    (["--kappa", "4", "--degree", "4", "--scaling", "999999/1000000"], 1, True),
    (["--kappa", "4", "--degree", "4", "--scaling", "16777215/16777216"], 0, False),
    (["--kappa", "2", "--degree", "1"], 0, True)])
def test_mra_build_fails_above_the_residual_bound_and_writes_no_file(capsys, tmp_path, args,
                                                                    code, out):
    out_file = tmp_path / "fb.json"
    assert run(["mra", "build"] + args + (["--out", str(out_file)] if out else [])) == code
    captured = capsys.readouterr()
    residual = float(_reconstruction_residual(captured.out))
    assert (residual > cli.RECONSTRUCTION_RESIDUAL_LIMIT) == (code == 1)
    assert ("error:" in captured.err) == (code == 1) and "Traceback" not in captured.err
    assert out_file.exists() == (out and code == 0)


def test_mra_build_residual_bound_is_inclusive(capsys, monkeypatch):
    # a residual equal to the bound passes, the next float below it fails
    config = mra.MRAConfig(figure=cli.FIGURES["square"](), scaling=F(99, 100))
    residual = mra.build(config).reconstruction_residual()
    for limit, code in ((residual, 0), (np.nextafter(residual, 0), 1)):
        monkeypatch.setattr(cli, "RECONSTRUCTION_RESIDUAL_LIMIT", limit)
        assert run(["mra", "build", "--scaling", "99/100"]) == code
    assert capsys.readouterr().err.startswith("error:")


def test_tiles_w1_verify_passes(capsys):
    assert run(["tiles", "w1", "--depth", "6", "--verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("residual:") == 3
    assert "verification: pass" in out


def test_tiles_w2_verify_passes(capsys):
    assert run(["tiles", "w2", "--depth", "6", "--verify", "all"]) == 0
    assert "verification: pass" in capsys.readouterr().out


def test_tiles_construct_recertifies(capsys):
    assert run(["tiles", "construct"]) == 0
    out = capsys.readouterr().out
    assert "translation certificate re-verified: ok" in out
    assert "dilation certificate re-verified: ok" in out


def test_tiles_construct_epsilon_below_zero_exits_two(capsys):
    # a residual is never negative, so such an epsilon could never be met;
    # epsilon 0 stays legal and runs until the iteration bound
    assert run(["tiles", "construct", "--epsilon", "-1/1000", "--max-iterations", "5"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "construction failed" not in captured.out
    assert run(["tiles", "construct", "--epsilon", "0", "--max-iterations", "2"]) == 1
    assert "construction failed" in capsys.readouterr().out


# a numerator or denominator of more than FRACTION_BITS_LIMIT = 64 bits as
# written; a decimal exponent of N would build 10**N before any check
OVERSIZED = [("fif basis", "scaling", "1e-20000"), ("mra build", "scaling", "1e-300000000"),
             ("tiles construct", "epsilon", "1e-300000000"),
             ("tiles construct", "epsilon", "1e300000000"),
             ("fif basis", "scaling", "1/18446744073709551616"),
             ("tiles construct", "epsilon", "7" * 100000 + "/3")]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command, flag, value", OVERSIZED)
def test_oversized_fraction_exits_two_at_once(capsys, tmp_path, via_config, command, flag, value):
    argv = command.split() + [f"--{flag}", value]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        argv = ["--config", str(cfg)] + command.split()
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "error:" in err and "more than 64 bits" in err


@pytest.mark.parametrize("text", ["0.4", "-3/7", "999999/1000000", "1e-6", "1/1000000", "0",
                                  "1/18446744073709551615", "1e19", "-0.5e-18"])
def test_fractions_within_the_bit_bound_parse_exactly(text):
    parser = cli.build_parser()
    for command in (["fif", "basis"], ["mra", "build"]) if abs(F(text)) < 1 else ():
        assert parser.parse_args(command + [f"--scaling={text}"]).scaling == F(text)
    if F(text) >= 0:
        assert parser.parse_args(["tiles", "construct", "--epsilon", text]).epsilon == F(text)


@pytest.mark.parametrize("text, message", [
    ("inf", "not a number or fraction: 'inf'"), ("-inf", "not a number or fraction: '-inf'"),
    ("nan", "not a number or fraction: 'nan'"), ("1/0", "not a number or fraction: '1/0'"),
    ("abc", "not a number or fraction: 'abc'"),
    ("1e400", "a numerator or denominator of more than 64 bits")])
def test_texts_that_are_no_finite_fraction_exit_two(capsys, text, message):
    # the same exit code and error line as when a float parse backed up the
    # Fraction parse
    assert run(["tiles", "construct", f"--epsilon={text}"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"waveletsets tiles construct: error: argument --epsilon: {message}")


@pytest.mark.parametrize("text, value", [("1_0", 10), (" 1.5 ", F(3, 2)), ("+.5", F(1, 2)),
                                         ("1E5", 100000), ("\u0661", 1)])
def test_texts_that_float_also_reads_parse_to_the_same_fraction(text, value):
    parser = cli.build_parser()
    assert parser.parse_args(["tiles", "construct", f"--epsilon={text}"]).epsilon == value
    assert value == F(float(text))


def test_outputs_are_byte_identical(capsys, tmp_path):
    files = []
    for k in (1, 2):
        csv = tmp_path / f"mesh{k}.csv"
        svg = tmp_path / f"map{k}.svg"
        fb = tmp_path / f"fb{k}.json"
        assert run(["surface", "fixture", "--name", "ex5.2", "--depth", "4",
                    "--csv", str(csv), "--svg", str(svg)]) == 0
        assert run(["mra", "build", "--out", str(fb)]) == 0
        files.append((csv.read_bytes(), svg.read_bytes(), fb.read_bytes()))
    assert files[0] == files[1]
    capsys.readouterr()


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert run(["fif", "example", "--name", "ex3.3", "--csv", "sub/graph.csv"]) == 0
    assert (tmp_path / "sub" / "graph.csv").exists()
    capsys.readouterr()


def test_config_file_overrides_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 2}))
    assert run(["--config", str(cfg), "tiles", "w1"]) == 0
    out = capsys.readouterr().out
    # depth-2 truncation leaves a much larger omitted tail than the default
    assert "1/15360 pi^2" in out


def test_explicit_flags_win_over_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 2}))
    assert run(["--config", str(cfg), "tiles", "w1", "--depth", "3"]) == 0
    assert "1/245760 pi^2" in capsys.readouterr().out


def test_bad_config_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run(["--config", str(bad), "tiles", "w1"]) == 2


@pytest.mark.parametrize("overrides, argv", [
    ({"degree": -1}, ["mra", "build"]),
    ({"scaling": 1}, ["mra", "build"]),
    ({"scaling": 1.5}, ["fif", "basis"]),
    ({"depth": 0}, ["tiles", "w1"]),
    # choices and booleans are checked as for the flags
    ({"mode": "spiral"}, ["fif", "basis", "--n", "2", "--depth", "2"]),
    ({"verify": "yes"}, ["tiles", "w1", "--depth", "3"]),
    ({"depth": True}, ["tiles", "w1"]),
    ({"epsilon": "1/0"}, ["tiles", "construct"]),
])
def test_bad_config_value_exits_two(capsys, tmp_path, overrides, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert run(["--config", str(cfg)] + argv) == 2
    assert "error:" in capsys.readouterr().err


def test_config_true_is_a_bare_flag(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": True}))
    assert run(["--config", str(cfg), "tiles", "w1", "--depth", "3"]) == 0
    assert "verification: pass" in capsys.readouterr().out


def test_config_keys_of_other_subcommands_are_ignored(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 3}))
    assert run(["--config", str(cfg), "fif", "basis", "--n", "2", "--depth", "2"]) == 0
    capsys.readouterr()


def test_version_has_a_single_source():
    # a regex, not tomllib: the tests also run on Python 3.10
    root = pathlib.Path(__file__).resolve().parents[1]
    toml = (root / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", toml, re.M | re.S).group(1)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"waveletsets\.__version__"\s*\}', toml, re.M)
    init = (root / "src" / "waveletsets" / "__init__.py").read_text()
    declared = re.findall(r'^__version__\s*=\s*"([^"]+)"', init, re.M)
    assert declared == [waveletsets.__version__]
    assert re.fullmatch(r"\d+\.\d+\.\d+", waveletsets.__version__)
