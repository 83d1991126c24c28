"""Command-line front end: fractal functions, surfaces, filter banks, tilings.

Exit codes: 0 success, 1 numerical or verification failure, 2 usage error
(including a malformed or out-of-range parameter value, or an output path
that cannot be written).
Relative output paths are resolved against $WAVELETSETS_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import fif, mra, render, surfaces, tiles
from .reflections import centered_square_figure, unit_square_figure

ENV_OUTDIR = "WAVELETSETS_OUTDIR"
MESH_CELLS_LIMIT = 2 ** 20
MESH_DEPTH_LIMIT = 20
PLANAR_DEPTH_LIMIT = 64
# Bounds of the parameters that set a command's cost, each from a timing:
# `fif basis --n 64 --depth 1` takes about 0.9 s (128: 3 s), and a `fif basis`
# family at the leaf-cell limit about 1.3 s (3 s with --csv and --svg);
# `mra build --kappa 4 --degree 4`, the costliest pair allowed, about
# 0.25-0.4 s and 63 MiB peak RSS, or 1.5-2.7 s and 91 MiB with --out, most
# of it the float reprs of the 52 MB JSON file, written one matrix at a time
# (2-vCPU Xeon, Python 3.11, numpy 2.4, fresh processes on a shared host;
# kappa and degree costs multiply: kappa 5 with degree 5 builds in about
# 0.6 s);
# `tiles construct --epsilon 0 --max-iterations 1000` about 2.3 s;
# `fif basis --n 4 --depth 8 --csv` about 1.4 s at --scaling 2/5 and 2.5 s
# with a 64-bit numerator and denominator, and at the leaf-cell limit
# (`--n 2 --depth 18 --csv`) 3.8 s and 12 s; without --csv or --svg it
# builds no mesh (0.35 s).
BASIS_CELLS_LIMIT = 64
MRA_KAPPA_LIMIT = 4
MRA_DEGREE_LIMIT = 4
CONSTRUCT_ITERATIONS_LIMIT = 1000
FRACTION_BITS_LIMIT = 64
# `mra build` fails above this float perfect-reconstruction residual (5.71e-06
# at the cap with s = 16777215/16777216; 7.63e-04 at (2, 1), s = 999999/1000000)
RECONSTRUCTION_RESIDUAL_LIMIT = 1e-4


def _written_bits(text: str) -> float:
    """Bits of the larger of the numerator and denominator that a number text
    writes, before reduction; inf for one of more than FRACTION_BITS_LIMIT
    digits, which is never built (a decimal exponent of N alone would make a
    10**N)."""
    body, _, exponent = text.strip().lower().lstrip("+-").partition("e")
    if "/" in body:
        terms = body.split("/")
    else:
        whole, _, decimals = body.partition(".")
        shift = int(exponent or 0) - len(decimals)
        if abs(shift) > FRACTION_BITS_LIMIT:
            return math.inf
        terms = [whole + decimals + "0" * shift, "1" + "0" * -shift]
    terms = [term.strip().lstrip("0") for term in terms]
    if any(len(term) > FRACTION_BITS_LIMIT for term in terms):
        return math.inf
    return max(int(term or "0").bit_length() for term in terms)


def _int_at_least(text, least: int, most: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    if value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
    return value


def _mesh_depth(text) -> int:
    return _int_at_least(text, 1, MESH_DEPTH_LIMIT)


def _fraction_arg(text) -> Fraction:
    try:
        if _written_bits(text) > FRACTION_BITS_LIMIT:
            raise argparse.ArgumentTypeError(
                f"a numerator or denominator of more than {FRACTION_BITS_LIMIT} bits")
        # Fraction reads PEP 515 underscores itself only from Python 3.11
        return Fraction(re.sub(r"(?<=\d)_(?=\d)", "", text))
    except (ValueError, OverflowError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}") from None


def _nonnegative_fraction(text) -> Fraction:
    value = _fraction_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _vertical_scaling(text) -> Fraction:
    value = _fraction_arg(text)
    if abs(value) >= 1:
        raise argparse.ArgumentTypeError(f"vertical scaling must satisfy |s| < 1, got {text}")
    return value


def _outpath(path: str) -> str:
    base = os.environ.get(ENV_OUTDIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(path: str, text) -> None:
    """Write a text, or its pieces one at a time, to path; a path that
    cannot be written is a usage error, exit 2."""
    path = _outpath(path)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    print(f"wrote {path}")


def _mesh_too_large(cells: int, depth: int, functions: int = 1) -> bool:
    """Report meshes of more than MESH_CELLS_LIMIT leaf cells in all, over
    `functions` meshes.  (Every level costs work even over one cell, so a
    mesh depth also has a parameter bound, MESH_DEPTH_LIMIT.)"""
    if functions * cells ** depth <= MESH_CELLS_LIMIT:
        return False
    each = f" for each of {functions} functions" if functions > 1 else ""
    print(f"error: a depth-{depth} mesh over {cells} cells{each} has more than "
          f"{MESH_CELLS_LIMIT} leaf cells in all", file=sys.stderr)
    return True


# -- fif ---------------------------------------------------------------------


def cmd_fif_example(args) -> int:
    f = fif.fixture(args.name, args.mode)
    meshed = args.csv or args.svg  # no other output reads a mesh
    if meshed and _mesh_too_large(len(f.cells), args.depth):
        return 2
    knots = f.knot_values()
    print("knots: " + ", ".join(render.fnum(v) for v in knots))
    if not meshed:
        return 0
    xs, ys = f.mesh(args.depth)
    if args.csv:
        _write(args.csv, render.function_csv(xs, ys))
    if args.svg:
        _write(args.svg, render.polylines_svg([list(zip(xs, ys))]))
    return 0


def cmd_fif_basis(args) -> int:
    meshed = args.csv or args.svg  # no other output reads a mesh
    if meshed and _mesh_too_large(args.n, args.depth, functions=args.n + 1):
        return 2
    basis = fif.uniform_cardinal_basis(args.n, args.scaling, args.mode)
    print(f"{len(basis)} basis functions on [0, {args.n}], mode {args.mode}")
    if not meshed:
        return 0
    meshes = [b.mesh(args.depth) for b in basis]
    if args.csv:
        header = ["x"] + [f"y{k}" for k in range(len(basis))]
        xs = meshes[0][0]
        rows = [[x] + [m[1][i] for m in meshes] for i, x in enumerate(xs)]
        _write(args.csv, render.csv_text(header, rows))
    if args.svg:
        _write(args.svg, render.polylines_svg([list(zip(xs, ys)) for xs, ys in meshes]))
    return 0


# -- surface -----------------------------------------------------------------


def cmd_surface_fixture(args) -> int:
    spec = surfaces.fixture(args.name)
    if _mesh_too_large(len(spec.maps), args.depth):
        return 2
    mesh = surfaces.fixed_point(spec).mesh(args.depth)
    for p in surfaces.level_one_vertices(spec):
        side = "outer" if p in spec.vertices else "inner"
        print(f"{side} vertex ({render.fnum(p[0])}, {render.fnum(p[1])}): {mesh[p]}")
    if args.name == "ex5.2":
        print("note: the fixed-point relations force f(1/2, 0) = 1/5; the value "
              "1/2 sometimes quoted for this vertex does not satisfy them")
    if args.csv:
        _write(args.csv, render.surface_csv(mesh))
    if args.svg:
        _write(args.svg, render.heightmap_svg(mesh))
    return 0


# -- mra ---------------------------------------------------------------------

FIGURES = {
    "square": unit_square_figure,
    "interval": lambda: unit_square_figure(1),
}


def cmd_mra_build(args) -> int:
    config = mra.MRAConfig(figure=FIGURES[args.figure](), kappa=args.kappa,
                           degree=args.degree, scaling=args.scaling)
    basis = mra.build(config)
    print(f"scaling functions: {config.generator_count}")
    print(f"wavelets: {config.wavelet_count}")
    residual = basis.reconstruction_residual()
    print(f"perfect-reconstruction residual (float): {residual:.2e}")
    if not residual <= RECONSTRUCTION_RESIDUAL_LIMIT:  # NaN fails too
        print(f"error: the float filters do not reconstruct: residual {residual:.2e} "
              f"exceeds {RECONSTRUCTION_RESIDUAL_LIMIT:.0e}", file=sys.stderr)
        return 1
    if args.out:
        _write(args.out, basis.filter_bank().json_pieces())
    return 0


# -- tiles -------------------------------------------------------------------


def _run_planar(args, builder, copies_label: str) -> int:
    fx = builder(args.depth)
    measure = fx.wavelet_set.measure
    print(f"measure: {measure} pi^2 ({render.fnum(float(measure) * 9.869604401089358)})")
    print(f"omitted tail per copy: {fx.tail} pi^2 x {fx.copies} {copies_label}")
    identity = fx.measure_identity_holds
    print(f"exact measure identity m(W) + {fx.copies}*tail = 4 pi^2: "
          f"{'holds' if identity else 'FAILS'}")
    ok = identity
    if args.verify:
        rep = tiles.three_way_check(fx.wavelet_set, centered_square_figure(), (2, 2))
        bound = 8 * fx.tail
        print(f"certified bound: {bound} pi^2 ({render.fnum(bound)})")
        for label, res in (("translation", rep.translation_residual),
                           ("dilation", rep.dilation_residual),
                           ("weyl", rep.weyl_residual)):
            print(f"{label} residual: {res} pi^2 ({render.fnum(res)})")
        ok = ok and rep.within(bound)
        print("verification: " + ("pass" if ok else "FAIL"))
    if args.svg:
        layers = [(fx.wavelet_set, "#1f77b4")]
        _write(args.svg, render.boxes_svg(layers))
    return 0 if ok else 1


def cmd_tiles_construct(args) -> int:
    start = tiles.DyadicBoxSet.from_box((-1, 1))
    try:
        res = tiles.construct_wavelet_set(
            start, tiles.shannon_set(), [2], kappa=2,
            epsilon=args.epsilon, max_iterations=args.max_iterations)
    except tiles.ConstructionError as exc:
        print(f"construction failed: best residual {exc.best_residual}")
        return 1
    print(f"iterations: {res.iterations}")
    print(f"final dilation residual: {res.residual_history[-1]} "
          f"({render.fnum(res.residual_history[-1])})")
    t_ok = res.translation_certificate.verify().ok
    d_ok = res.dilation_certificate.verify().ok
    print(f"translation certificate re-verified: {'ok' if t_ok else 'FAIL'}")
    print(f"dilation certificate re-verified: {'ok' if d_ok else 'FAIL'}")
    if args.out:
        _write(args.out, res.wavelet_set.to_json())
    return 0 if t_ok and d_ok else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveletsets",
        description="Exact wavelet-set tilings, fractal interpolation, and "
                    "reflection-group multiresolution filters.")
    parser.add_argument("--config", help="JSON file overriding flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fif = sub.add_parser("fif", help="fractal interpolation functions")
    fif_sub = p_fif.add_subparsers(dest="subcommand", required=True)
    p_ex = fif_sub.add_parser("example", help="evaluate a named example")
    p_ex.add_argument("--name", required=True)
    p_ex.add_argument("--mode", default="translation",
                      choices=["translation", "reflection"])
    p_ex.add_argument("--depth", type=_mesh_depth, default=10)
    p_ex.add_argument("--csv")
    p_ex.add_argument("--svg")
    p_ex.set_defaults(func=cmd_fif_example)
    p_basis = fif_sub.add_parser("basis", help="cardinal basis family")
    p_basis.add_argument("--n", type=lambda text: _int_at_least(text, 1, BASIS_CELLS_LIMIT),
                         default=3)
    p_basis.add_argument("--mode", default="translation",
                         choices=["translation", "reflection"])
    p_basis.add_argument("--scaling", type=_vertical_scaling, default="1/2")
    p_basis.add_argument("--depth", type=_mesh_depth, default=8)
    p_basis.add_argument("--csv")
    p_basis.add_argument("--svg")
    p_basis.set_defaults(func=cmd_fif_basis)

    p_surface = sub.add_parser("surface", help="self-affine surfaces")
    surf_sub = p_surface.add_subparsers(dest="subcommand", required=True)
    p_fix = surf_sub.add_parser("fixture", help="evaluate a named surface")
    p_fix.add_argument("--name", required=True)
    p_fix.add_argument("--depth", type=_mesh_depth, default=6)
    p_fix.add_argument("--csv")
    p_fix.add_argument("--svg")
    p_fix.set_defaults(func=cmd_surface_fixture)

    p_mra = sub.add_parser("mra", help="multiresolution filter banks")
    mra_sub = p_mra.add_subparsers(dest="subcommand", required=True)
    p_build = mra_sub.add_parser("build", help="build the filter bank")
    p_build.add_argument("--figure", default="square", choices=list(FIGURES))
    p_build.add_argument("--kappa", type=lambda text: _int_at_least(text, 2, MRA_KAPPA_LIMIT),
                         default=2)
    p_build.add_argument("--degree", type=lambda text: _int_at_least(text, 0, MRA_DEGREE_LIMIT),
                         default=1)
    p_build.add_argument("--scaling", type=_vertical_scaling, default="1/2")
    p_build.add_argument("--out")
    p_build.set_defaults(func=cmd_mra_build)

    p_tiles = sub.add_parser("tiles", help="wavelet-set tilings")
    tiles_sub = p_tiles.add_subparsers(dest="subcommand", required=True)
    for name, builder, copies_label in (("w1", tiles.build_w1, "quadrant copies"),
                                        ("w2", tiles.build_w2, "mirror copies")):
        p = tiles_sub.add_parser(name, help=f"planar fixture {name}")
        p.add_argument("--depth", type=lambda text: _int_at_least(text, 1, PLANAR_DEPTH_LIMIT),
                       default=8)
        p.add_argument("--verify", nargs="?", const="all", default=None,
                       choices=["all"])
        p.add_argument("--svg")
        p.set_defaults(func=functools.partial(_run_planar, builder=builder,
                                              copies_label=copies_label))
    p_con = tiles_sub.add_parser("construct", help="run the 1-D constructor")
    p_con.add_argument("--epsilon", type=_nonnegative_fraction, default="1/1000000")
    p_con.add_argument("--max-iterations", default=50,
                       type=lambda text: _int_at_least(text, 1, CONSTRUCT_ITERATIONS_LIMIT))
    p_con.add_argument("--out")
    p_con.set_defaults(func=cmd_tiles_construct)
    return parser


# the entries of a parsed namespace that are no option of its subcommand:
# the top-level --config, the two subparser choices and the handler
_NOT_OPTIONS = frozenset({"config", "command", "subcommand", "func"})


def _config_flags(overrides: dict, args: argparse.Namespace) -> list:
    """Config entries as flags of the parsed subcommand.

    Keys the subcommand does not take are skipped.  true stands for a bare
    flag and false or null for an absent one; any other value is passed as
    text joined to its flag (--key=value), so it meets the flag's own type
    and choices checks.
    """
    flags = []
    for key, value in overrides.items():
        if key not in vars(args) or key in _NOT_OPTIONS or value is False or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value is True else f"{flag}={value}")
    return flags


def _join_values(argv: list) -> list:
    """argv with each value that starts like a negative number joined to the
    --flag before it as --flag=value.  argparse takes a token after a flag
    as its value only when it looks like -3 or -0.5, and would read -3/7 or
    -1e-3 as a flag; joined, it meets the flag's own type check."""
    out = []
    for token in argv:
        if out and re.fullmatch(r"-[\d.].*", token) and re.fullmatch(r"--[^=]+", out[-1]):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = _join_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    overrides = json.load(fh)
                if not isinstance(overrides, dict):
                    raise ValueError("not a JSON object")
            except (OSError, ValueError) as exc:
                print(f"error: bad config file: {exc}", file=sys.stderr)
                return 2
            # config flags go right after the subcommand, so explicit flags,
            # which come later, still win
            at = next(i for i in range(len(argv))
                      if argv[i:i + 2] == [args.command, args.subcommand]) + 2
            args = parser.parse_args(argv[:at] + _config_flags(overrides, args) + argv[at:])
        return args.func(args)
    except SystemExit as exc:  # a usage error of the parser or of `_write`
        return int(exc.code or 0)
    except (ValueError, tiles.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
