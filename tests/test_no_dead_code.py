"""Code that nothing calls is deleted, and so are options that no caller sets.

Every module-level function and class and every method that is not a dunder
under `src/waveletsets` must have a user outside its own definition, in the
syntax trees of `src/` (the re-exports of `__init__.py` do not count) or of
the python files of `perfbench/`.  A name is used only where it is
- a global name load: a name read where no enclosing function or
  comprehension binds it as a parameter or a local;
- an attribute, `obj.name`;
- an imported name.
A test, prose, a docstring, a comment, a string (one under `perfbench/`
too), the name of another definition (its `def` or `class` line) and a
parameter or local of the same name do not count: two methods of one name
on different classes do not use each other, and `translate(self, vec)` does
not use a function `vec`.

A read `self.name` or `cls.name` in a class counts only for a method of
that class, of a package class above it or of one below it: the base
class's code dispatches to a subclass's method, as `SelfAffine._evaluate`
in `surfaces` calls the `_cell` of `fif.FractalFunction`.  So
`self.translation` in `tiles.PieceMap` is no use of a `translation` method
of another class.  Any other use counts for a definition only in a file
that can reach it:
- the definition's own module;
- a module that imports it, or imports a name from it;
- for a method, a module that reaches a package class above its class that
  defines that name too.
Files under `perfbench/` reach every module.  So a call `back.compose(...)`
in `reflections`, which does not import `tiles`, is no use of a `compose`
there.

The library tour of README.md counts as a user only for the names in
`TOUR_ONLY`, definitions that carry a paper statement and have no caller
yet.  The layer tracer of `perfbench/spans.py` wraps the attributes named by
the strings of its `TARGETS` rows; such a row counts as a user only for the
names in `TRACER_ONLY`, definitions that only the benchmark's per-layer
metrics read.  A test requires each name of either set to be used by the
tour, or named by a row, and by nothing else, so the sets shrink as callers
appear or rows go, and do not grow unseen.

Every parameter with a default of such a function or method, or of a class's
`__init__`, must be passed by keyword or by position at some call of that
name in `src/`, in `perfbench/` or in the python block of README.md.  A
test does not count: an option that only tests set is one the library never
uses.  The options in `OPTIONS_SET_BY_TESTS_ONLY` are set by tests alone
today; a test requires each to be still unset by the library and still set
by a test, so that set, like `TOUR_ONLY`, only shrinks.
Calls are matched by the last name of the callee, so a call of any method
of that name counts.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "waveletsets"
PERFBENCH = ROOT / "perfbench"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# used only by the library tour; a name leaves this set when it gets a caller
TOUR_ONLY = {"operator_iterates", "centroid_samples", "from_json", "weyl_group",
             "klein_four_root_system", "fold", "intersection_group"}

# used only as the attribute of a `TARGETS` row of perfbench/spans.py; a name
# leaves this set when it gets a caller or the benchmark drops its row
TRACER_ONLY = {"inner_product", "domain_integral", "bounding_box",
               "symmetric_difference_measure", "equals_ae", "reflect_axis", "weyl_congruent"}


def _definitions(tree):
    """(class or None, definition) of every module-level definition and
    every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield None, node
        if isinstance(node, ast.ClassDef):
            yield from ((node, item) for item in node.body if isinstance(item, DEFS[:2])
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _readme_python():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _bound(scope) -> set:
    """The names a function or comprehension binds: its parameters, and every
    name stored, defined or imported in it (nested scopes included)."""
    names = set()
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        names |= {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                  if arg is not None}
    body = scope.generators if isinstance(scope, COMPREHENSIONS) else scope.body
    for node in (body if isinstance(body, list) else [body]):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, DEFS):
                names.add(sub.name)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                names |= {(alias.asname or alias.name).split(".")[0] for alias in sub.names}
    return names


def _uses(tree) -> list:
    """(name, line, owner) of every use of a name in a syntax tree: owner is
    the enclosing class of a `self.name` or `cls.name` read, None otherwise."""
    out = []

    def visit(node, bound, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            bound = bound | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            out.append((node.id, node.lineno, None))
        elif isinstance(node, ast.Attribute):
            on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            out.append((node.attr, node.lineno, cls if on_self else None))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.name.split(".")[-1], node.lineno, None) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound, cls)

    visit(tree, frozenset(), None)
    return out


def _reached(path, tree) -> set:
    """The package modules a file of `src/` reaches: its own, those it
    imports and those it imports a name from."""
    reached = {path.stem}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "waveletsets"
                                                 or node.module.startswith("waveletsets.")):
            module = (node.module or "").split(".")[-1]
            if module in ("", "waveletsets"):  # from . import fif, surfaces
                reached |= {alias.name for alias in node.names}
            else:
                reached.add(module)
        elif isinstance(node, ast.Import):
            reached |= {alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("waveletsets.")}
    return reached


def _files() -> dict:
    """{path: syntax tree} of the python files of `src/` and `perfbench/`."""
    paths = [*(ROOT / "src").rglob("*.py"), *PERFBENCH.rglob("*.py")]
    return {path: ast.parse(path.read_text()) for path in paths}


def _source_uses(files: dict) -> tuple:
    """({name: [(path, line, owner)]} of the uses in the files, less the
    re-exports of `__init__.py`; {path: the modules it reaches, or None for
    every module})."""
    init = files.get(PACKAGE / "__init__.py")
    reexports = {(PACKAGE / "__init__.py", n) for node in (init.body if init else [])
                 if isinstance(node, ast.ImportFrom) for n in range(node.lineno, node.end_lineno + 1)}
    uses: dict = {}
    reach: dict = {}
    for path, tree in files.items():
        reach[path] = None if PERFBENCH in path.parents else _reached(path, tree)
        for name, line, owner in _uses(tree):
            if (path, line) not in reexports:
                uses.setdefault(name, []).append((path, line, owner))
    return uses, reach


def _above(name, classes: dict) -> set:
    """The class `name` and every class of `classes` above it."""
    out, todo = set(), [name]
    while todo:
        found = classes.get(todo.pop())
        if found is not None and found[1].name not in out:
            out.add(found[1].name)
            todo += [getattr(base, "id", getattr(base, "attr", None)) for base in found[1].bases]
    return out


def _tour_names() -> set:
    return {name for block in _readme_python() for name, _, _ in _uses(ast.parse(block))}


def _tracer_targets() -> set:
    """The attributes named by the rows of `TARGETS` in perfbench/spans.py."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    rows = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["TARGETS"])
    return {row.elts[1].value for row in rows.elts}


def _unused(files: dict = None) -> list:
    """(location, name) of every definition of the package that nothing
    outside it uses (`_files()` by default)."""
    files = _files() if files is None else files
    uses, reach = _source_uses(files)
    package = {path: tree for path, tree in sorted(files.items()) if path.parent == PACKAGE}
    classes = {node.name: (path.stem, node) for path, tree in files.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    unused = []
    for path, tree in package.items():
        for cls, node in _definitions(tree):
            above = _above(cls.name, classes) if cls else set()
            modules = {path.stem} | {classes[c][0] for c in above if any(
                isinstance(d, DEFS) and d.name == node.name for d in classes[c][1].body)}
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            users = [(src, line) for src, line, owner in uses.get(node.name, [])
                     if (cls is not None and (owner in above or cls.name in _above(owner, classes))
                         if owner else reach[src] is None or reach[src] & modules)]
            if all(src == path and first <= line <= node.end_lineno for src, line in users):
                unused.append((f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name))
    return unused


def test_every_definition_is_named_elsewhere():
    tour, targets = _tour_names(), _tracer_targets()
    assert [where for where, name in _unused() if not (name in TOUR_ONLY and name in tour)
            and not (name in TRACER_ONLY and name in targets)] == []


def test_tour_only_names_are_still_used_by_the_tour_alone():
    # a name with a caller now leaves TOUR_ONLY; one the tour dropped is deleted
    assert sorted(TOUR_ONLY - {name for _, name in _unused()}) == []
    assert sorted(TOUR_ONLY - _tour_names()) == []


def test_tracer_only_names_are_still_targets_alone():
    # a name with a caller now leaves TRACER_ONLY; one whose row the benchmark
    # dropped has no user left and is deleted
    assert sorted(TRACER_ONLY - {name for _, name in _unused()}) == []
    assert sorted(TRACER_ONLY - _tracer_targets()) == []


def _planted(package: dict, perfbench: dict = None) -> list:
    """The names the audit reports for planted package and perfbench modules,
    given as {module name: source text}."""
    files = {PACKAGE / f"{stem}.py": ast.parse(text) for stem, text in package.items()}
    files.update({PERFBENCH / f"{stem}.py": ast.parse(text) for stem, text in (perfbench or {}).items()})
    return sorted(name for _, name in _unused(files))


def test_a_perfbench_string_is_no_use():
    package = {"alpha": "def traced():\n    pass\n\n\ndef called():\n    pass\n"}
    bench = {"spans": "import alpha\nTARGETS = [(alpha, 'traced')]\nalpha.called()\n"}
    assert _planted(package, bench) == ["traced"]


def test_a_self_read_in_an_unrelated_class_is_no_use():
    package = {"alpha": """
class Box:
    def translation(self):
        pass


class Piece:
    def __init__(self):
        self.translation = 0

    def apply(self):
        return self.translation
""", "beta": "from .alpha import Box, Piece\nisinstance(Piece().apply(), Box)\n"}
    assert _planted(package) == ["translation"]


def test_a_self_read_counts_for_bases_and_subclasses():
    package = {"alpha": """
class Base:
    def shift(self):
        pass

    def run(self):
        return self._hook()
""", "beta": """
from .alpha import Base


class Piece(Base):
    def _hook(self):
        return self.shift()


Piece().run()
"""}
    assert _planted(package) == []


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


# set only by tests, in a call the library makes nowhere; a name leaves this
# set when `src/`, `perfbench/` or the tour sets it, and the set never grows
OPTIONS_SET_BY_TESTS_ONLY = {"main(argv)", "construct_wavelet_set(relocation_step)"}


def _library_trees():
    """The syntax trees of `src/`, of `perfbench/` and of README.md's python."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    return [ast.parse(p.read_text()) for p in files] + [ast.parse(b) for b in _readme_python()]


def _unset_options(trees) -> set:
    """The "name(param)" of every default that no call in the trees passes."""
    passed: dict = {}  # callee name -> [(positional count, keywords)]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                passed.setdefault(name, []).append((len(node.args),
                                                    {k.arg for k in node.keywords}))
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, pos in _options(ast.parse(path.read_text())):
            if not any(param in kws or (pos is not None and n > pos)
                       for n, kws in passed.get(name, [])):
                unset.add(f"{name}({param})")
    return unset


def test_every_option_is_set_by_some_caller():
    unset = _unset_options(_library_trees())
    assert sorted(unset - OPTIONS_SET_BY_NAME - OPTIONS_SET_BY_TESTS_ONLY) == []
    assert OPTIONS_SET_BY_NAME <= unset


def test_options_set_by_tests_only_are_still_unset_elsewhere():
    # one set by the library now leaves OPTIONS_SET_BY_TESTS_ONLY; one no test
    # sets any more has no caller at all
    assert sorted(OPTIONS_SET_BY_TESTS_ONLY - _unset_options(_library_trees())) == []
    tests = [ast.parse(p.read_text()) for p in (ROOT / "tests").rglob("test_*.py")]
    assert sorted(OPTIONS_SET_BY_TESTS_ONLY & _unset_options(tests)) == []
