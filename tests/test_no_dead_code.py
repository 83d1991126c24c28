"""Code that nothing calls is deleted, and so are options that no caller sets.

Every module-level function and class and every method that is not a dunder
under `src/waveletsets` must have a user outside its own definition, in the
syntax trees of `src/` (the re-exports of `__init__.py` do not count) or of
the python files of `perfbench/`.  A name is used only where it is
- a global name load: a name read where no enclosing function or
  comprehension binds it as a parameter or a local;
- an attribute, `obj.name`;
- an imported name;
- under `perfbench/`, a string constant that is an identifier: the layer
  tracer names its targets by string.
A test, prose, a docstring, a comment, the name of another definition (its
`def` or `class` line) and a parameter or local of the same name do not
count: two methods of one name on different classes do not use each other,
and `translate(self, vec)` does not use a function `vec`.

A use counts for a definition only in a file that can reach it:
- the definition's own module;
- a module that imports it, or imports a name from it;
- for a method, a module that reaches a base class of its class (directly
  or further up) which defines that name or calls it on `self`: the base
  class's code dispatches to the method, as `SelfAffine._evaluate` in
  `surfaces` calls the `_cell` of `fif.FractalFunction`.
Files under `perfbench/` reach every module.  So a call `back.compose(...)`
in `reflections`, which does not import `tiles`, is no use of a `compose`
there.

The library tour of README.md counts as a user only for the names in
`TOUR_ONLY`, definitions that carry a paper statement and have no caller
yet.  A test requires each of them to be used by the tour and by nothing
else, so the set shrinks as callers appear and does not grow unseen.

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
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# used only by the library tour; a name leaves this set when it gets a caller
TOUR_ONLY = {"operator_iterates", "centroid_samples", "from_json", "weyl_group",
             "klein_four_root_system", "fold", "is_fundamental_domain", "intersection_group"}


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


def _uses(tree, strings: bool = False) -> list:
    """(name, line) of every use of a name in a syntax tree."""
    out = []

    def visit(node, bound):
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            bound = bound | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.name.split(".")[-1], node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
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


def _source_uses() -> tuple:
    """({name: [(path, line)]} of the uses over `src/` and `perfbench/`,
    less the re-exports of `__init__.py`; {path: the modules it reaches, or
    None for every module})."""
    files = [(p, False) for p in (ROOT / "src").rglob("*.py")]
    files += [(p, True) for p in (ROOT / "perfbench").rglob("*.py")]
    init = PACKAGE / "__init__.py"
    reexports = {(init, n) for node in ast.parse(init.read_text()).body
                 if isinstance(node, ast.ImportFrom) for n in range(node.lineno, node.end_lineno + 1)}
    uses: dict = {}
    reach: dict = {}
    for path, strings in files:
        tree = ast.parse(path.read_text())
        reach[path] = None if strings else _reached(path, tree)
        for name, line in _uses(tree, strings):
            if (path, line) not in reexports:
                uses.setdefault(name, []).append((path, line))
    return uses, reach


def _base_modules(cls, name: str, classes: dict) -> set:
    """The modules of the package classes above cls that define name or
    call it on `self`."""
    out, todo = set(), [cls] if cls is not None else []
    while todo:
        for base in todo.pop().bases:
            found = classes.get(getattr(base, "id", getattr(base, "attr", None)))
            if found is not None:
                module, node = found
                calls = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name) and n.value.id == "self"}
                if name in calls or any(isinstance(d, DEFS) and d.name == name for d in node.body):
                    out.add(module)
                todo.append(node)
    return out


def _tour_names() -> set:
    return {name for block in _readme_python() for name, _ in _uses(ast.parse(block))}


def _unused() -> list:
    """(location, name) of every definition that nothing outside it uses in
    a file that reaches it."""
    uses, reach = _source_uses()
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name: (path.stem, node) for path, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    unused = []
    for path, tree in trees.items():
        for cls, node in _definitions(tree):
            modules = {path.stem} | _base_modules(cls, node.name, classes)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if all(src == path and first <= line <= node.end_lineno
                   for src, line in uses.get(node.name, [])
                   if reach[src] is None or reach[src] & modules):
                unused.append((f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name))
    return unused


def test_every_definition_is_named_elsewhere():
    tour = _tour_names()
    assert [where for where, name in _unused() if not (name in TOUR_ONLY and name in tour)] == []


def test_tour_only_names_are_still_used_by_the_tour_alone():
    # a name with a caller now leaves TOUR_ONLY; one the tour dropped is deleted
    assert sorted(TOUR_ONLY - {name for _, name in _unused()}) == []
    assert sorted(TOUR_ONLY - _tour_names()) == []


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
OPTIONS_SET_BY_TESTS_ONLY = {"main(argv)", "construct_wavelet_set(relocation_step)",
                             "dilation_congruent(theta)", "reflect_axis(level)"}


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
