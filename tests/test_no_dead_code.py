"""Code that nothing calls is deleted.

Every module-level function and class and every method that is not a dunder
under `src/waveletsets` must be named somewhere outside its own definition:
in `src/`, in the tests (the `*_oracle.py` reference copies do not count), in
`perfbench/` or in README.md.  Names are matched as whole words, so this
finds definitions that nothing names at all, not every unused method.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "waveletsets"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, DEFS[:2])
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _sources():
    tests = [p for p in (ROOT / "tests").rglob("*.py") if not p.name.endswith("_oracle.py")]
    files = [*(ROOT / "src").rglob("*.py"), *tests, *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.md"), ROOT / "README.md"]
    return {p: p.read_text().splitlines() for p in files}


def test_every_definition_is_named_elsewhere():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(ast.parse(path.read_text())):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            named = any(word.search(line)
                        for src, lines in sources.items()
                        for number, line in enumerate(lines, 1)
                        if not (src == path and first <= number <= node.end_lineno))
            if not named:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == []
