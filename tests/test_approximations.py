"""The approximation ledger: every float path in `src/waveletsets`, named.

Every identity of the library is exact, so a float is either output
formatting or an approximation of an exact result.  This test walks the
syntax trees of `src/waveletsets` for float producers:
- a call of `float`, `math.sqrt`, `math.log`, `math.exp` or `np.sqrt`;
- a name under `np.linalg` (a call or a reference), except the exception
  class `np.linalg.LinAlgError`;
- `astype(float)`, `dtype=float`, and a bare `float` passed as a positional
  argument, a dtype (`np.array(lam, float)`); `isinstance` is no producer;
- a float literal.
Each function that holds a producer (a method or nested function by its
qualified name, `module.Class.method`; a producer outside every function
by its module's name) must be listed in `APPROXIMATE`, with the reason it
holds a float and the report flag it raises.  Formatting, and code whose
float never stands for an exact result, is listed with no flag.  Each
entry must still hold a producer, so an entry goes when its float path
goes, and the ledger shrinks as paths are made exact.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "waveletsets"

FORMATTING = "formatting"

APPROXIMATE = {
    # the float filter bank of the MRA (an exact bank is ROADMAP item 6)
    "fif.orthonormalize": ("float Cholesky of the exact Gram, or floats of its exact L D L^T",
                           "float_filters"),
    "mra.MultiresolutionBasis.__init__": ("float refinement filters P and the one [V | W], "
                                          "and the Householder completion of the wavelets",
                                          "float_filters"),
    "mra.MultiresolutionBasis.filter_bank": ("float wavelet filters Q_j = sqrt(N) W_j^T",
                                             "float_filters"),
    "mra._stack": ("word vectors as one float array for the float analysis and synthesis",
                   "float_filters"),
    "mra.MultiresolutionBasis.reconstruction_residual": (
        "float perfect-reconstruction residual of the float filters", "float_filters"),
    "cli": ("the bound on that float residual above which `mra build` fails", "float_filters"),
    "mra.MultiresolutionBasis.centroid_samples": (
        "exact atom values rounded once to floats, and a float cell weight", "float_samples"),
    # pull-back evaluation and the transfer operator
    "surfaces.SelfAffine._evaluate": ("a chain that does not close within depth steps is "
                                      "truncated, with a float tail bound", "truncated_evaluation"),
    "surfaces.SelfAffine._iterates": ("float transfer-operator iterates", "float_iterates"),
    "surfaces.FractalSurface.operator_iterates": ("float gaps of the float iterates",
                                                  "float_iterates"),
    "fif.gram_matrix_quadrature": ("float midpoint quadrature of a Gram the library has exactly",
                                   "float_quadrature"),
    # no approximate result
    "surfaces.FractalSurface.value_at": ("compares the float error bound with 0.0 and raises "
                                         "unless the value is exact", None),
    "cli._run_planar": (FORMATTING + ": the measure in pi^2 units times pi^2", None),
    "mra.FilterBank.json_pieces": (FORMATTING + ": the float filter matrices as JSON text", None),
    "render.fnum": (FORMATTING + ": a value at 12 significant digits", None),
    "render._floats": (FORMATTING + ": exact values as floats for the exporters", None),
    "render._texts": (FORMATTING + ": the distinct floats of a column, read back from their "
                      "bits, as '%.12g' texts", None),
    "render._extent": (FORMATTING + ": a canvas extent", None),
    "render.heightmap_svg": (FORMATTING + ": canvas shades and sizes", None),
}

FLAGS = {"float_filters", "float_samples", "truncated_evaluation", "float_iterates",
         "float_quadrature"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CALLS = {"float", "math.sqrt", "math.log", "math.exp", "np.sqrt"}


def _is_producer(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Attribute):
        name = ast.unparse(node)
        return name.startswith("np.linalg.") and name != "np.linalg.LinAlgError"
    if not isinstance(node, ast.Call):
        return False
    callee = ast.unparse(node.func)
    if callee in CALLS:
        return True
    if callee in ("isinstance", "issubclass"):
        return False
    is_float = lambda arg: isinstance(arg, ast.Name) and arg.id == "float"
    return (any(map(is_float, node.args))
            or any(k.arg == "dtype" and is_float(k.value) for k in node.keywords))


def _producers(module: str, tree: ast.AST) -> dict:
    """{qualified name of the enclosing function: producer line numbers}."""
    found: dict = {}

    def visit(node, scope):
        if isinstance(node, SCOPES):
            scope = f"{scope}.{node.name}"
        if _is_producer(node):
            found.setdefault(scope, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _ledger(trees: dict) -> tuple:
    """(unlisted, stale): holders of producers missing from APPROXIMATE,
    and entries of APPROXIMATE that hold no producer."""
    found = {}
    for module, tree in trees.items():
        found.update(_producers(module, tree))
    return sorted(set(found) - set(APPROXIMATE)), sorted(set(APPROXIMATE) - set(found))


def test_every_float_producer_is_listed_and_every_entry_holds_one():
    unlisted, stale = _ledger(_trees())
    assert not unlisted, f"float producers in functions missing from APPROXIMATE: {unlisted}"
    assert not stale, f"APPROXIMATE entries that no longer hold a float producer: {stale}"


def test_entries_give_a_reason_and_a_known_flag():
    for name, (reason, flag) in APPROXIMATE.items():
        assert reason and (flag is None or flag in FLAGS), name
        if reason.startswith(FORMATTING):
            assert flag is None, name
    assert FLAGS == {flag for _, flag in APPROXIMATE.values()} - {None}


def _function(tree, qualname: str):
    node = tree
    for name in qualname.split(".")[1:]:
        node = next(n for n in ast.iter_child_nodes(node) if isinstance(n, SCOPES) and n.name == name)
    return node


@pytest.mark.parametrize("planted", ["float(rank)", "np.linalg.norm(x)", "np.zeros(3, float)",
                                     "x.astype(float)", "np.ones(2, dtype=float)", "0.5"])
def test_a_float_planted_in_an_unlisted_function_fails(planted):
    trees = _trees()
    _function(trees["geometry"], "geometry.rank").body.insert(0, ast.parse(planted).body[0])
    assert _ledger(trees) == (["geometry.rank"], [])


@pytest.mark.parametrize("unplanted", ["isinstance(x, float)", "np.linalg.LinAlgError('x')", "1",
                                       "1 / 2"])
def test_what_is_no_producer_is_not_flagged(unplanted):
    trees = _trees()
    _function(trees["geometry"], "geometry.rank").body.insert(0, ast.parse(unplanted).body[0])
    assert _ledger(trees) == ([], [])


def test_an_entry_without_a_producer_fails():
    trees = _trees()
    _function(trees["render"], "render.fnum").body[:] = ast.parse("return str(v)").body
    assert _ledger(trees) == ([], ["render.fnum"])
