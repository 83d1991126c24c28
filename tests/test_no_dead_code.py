"""Code that nothing calls is deleted, and so are options that no caller sets.

Every module-level function and class and every method that is not a dunder
under `src/waveletsets` must be named somewhere outside its own definition:
in `src/`, in the tests (the `*_oracle.py` reference copies do not count), in
`perfbench/` or in README.md.  Names are matched as whole words, so this
finds definitions that nothing names at all, not every unused method.

Every parameter with a default of such a function or method, or of a class's
`__init__`, must be passed by keyword or by position at some call of that
name in the same places (the python block of README.md for the README).
Calls are matched by the last name of the callee, so a call of any method
of that name counts.
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


# set through a call that names no function: perfbench calls
# getattr(tiles, "build_" + fixture)(depth, tail_terms)
OPTIONS_SET_BY_NAME = {"build_w1(tail_terms)", "build_w2(tail_terms)"}


def _options(tree):
    """(callee name, parameter, position after self or None) per default."""
    def params(fn, name, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield name, arg.arg, k - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None

    for node in tree.body:
        if isinstance(node, DEFS[:2]):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, DEFS[:2]):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield from params(item, node.name, 1)
                elif not item.name.startswith("__"):
                    yield from params(item, item.name, 0 if static else 1)


def _call_trees():
    tests = [p for p in (ROOT / "tests").rglob("*.py") if not p.name.endswith("_oracle.py")]
    files = [*(ROOT / "src").rglob("*.py"), *tests, *(ROOT / "perfbench").rglob("*.py")]
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [ast.parse(p.read_text()) for p in files] + [ast.parse(b) for b in blocks]


def test_every_option_is_set_by_some_caller():
    passed: dict = {}  # callee name -> [(positional count, keywords)]
    for tree in _call_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                passed.setdefault(name, []).append((len(node.args),
                                                    {k.arg for k in node.keywords}))
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, pos in _options(ast.parse(path.read_text())):
            if not any(param in kws or (pos is not None and n > pos)
                       for n, kws in passed.get(name, [])):
                unset.append(f"{name}({param})")
    assert sorted(set(unset) - OPTIONS_SET_BY_NAME) == []
    assert OPTIONS_SET_BY_NAME <= set(unset)
