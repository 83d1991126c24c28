"""Print every statement of src/waveletsets that a run never reaches.

Run from the repository root:

    PYTHONPATH=src python ci/unrun_statements.py tests
    PYTHONPATH=src python ci/unrun_statements.py traffic

`tests` runs the tier-1 suite.  `traffic` runs what users run: the README
library tour, every `waveletsets ...` command line of README.md (through
`cli.main`, in a temporary directory) and the first round of each perfbench
workload at seed 1.  A statement that only tests reach is a candidate for
deletion; `traffic` leaves out `raise` statements, since an input check
that no caller trips is still wanted.

On Python 3.12 and later a sys.monitoring LINE hook disables each location
after its first hit, so each line costs one callback; below 3.12 the
script falls back to sys.settrace, several times slower, so it can be
checked locally.  It prints the statements as file:line and source, then a
count, and exits 0 whatever it finds.
"""

import ast
import os
import pathlib
import re
import shlex
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "waveletsets"


def record(run):
    """The (file, line) of every line of the package that run() reaches, and
    what run() returns."""
    ours: dict = {}  # file name -> whether it lies in the package

    def in_package(name):
        if name not in ours:
            ours[name] = pathlib.Path(name).resolve().parent == PACKAGE
        return ours[name]

    hits = set()
    if sys.version_info >= (3, 12):
        mon = sys.monitoring
        tool = next(t for t in range(6) if mon.get_tool(t) is None)
        mon.use_tool_id(tool, "unrun statements")

        def on_line(code, line):
            if in_package(code.co_filename):
                hits.add((pathlib.Path(code.co_filename).resolve(), line))
            return mon.DISABLE  # each location reports once, in the package or not

        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)
    else:
        def local(frame, event, arg):
            if event == "line":
                hits.add((pathlib.Path(frame.f_code.co_filename).resolve(), frame.f_lineno))
            return local

        def on_call(frame, event, arg):
            return local if in_package(frame.f_code.co_filename) else None

        threading.settrace(on_call)
        sys.settrace(on_call)
    try:
        result = run()
    finally:
        if sys.version_info >= (3, 12):
            mon.set_events(tool, 0)
            mon.free_tool_id(tool)
        else:
            sys.settrace(None)
            threading.settrace(None)
    return hits, result


def run_tests():
    import pytest
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    return f"pytest exit status {int(status)}"


def run_traffic():
    from waveletsets import cli
    readme = (ROOT / "README.md").read_text()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    failed = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for block in re.findall(r"```python\n(.*?)```", readme, re.S):
                exec(compile(block, "README.md", "exec"), {})
            for line in readme.splitlines():
                if line.startswith("waveletsets "):
                    print(f"+ {line}")
                    if cli.main(shlex.split(line)[1:]) != 0:
                        failed.append(line)
        finally:
            os.chdir(cwd)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        print(f"+ perfbench {wl.name}: the first round at seed 1")
        for inp in wl.plan(1)[0]:
            wl.job(wl.prepare(inp, 1))
    return f"failed commands: {failed or 'none'}"


def own_lines(node):
    """A simple statement's lines, or a compound statement's header
    (decorators included) down to its body."""
    if not hasattr(node, "body"):
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(start, max(node.body[0].lineno, node.lineno + 1))


def unrun(hits, skip=()) -> int:
    """Print the statements of the package that hits never reach, and count them."""
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows = text.splitlines()
        lines = set()
        for node in ast.walk(ast.parse(text)):
            # `global` and `nonlocal` compile to no code, and `try:` runs when its body does
            if not isinstance(node, ast.stmt) or isinstance(
                    node, (ast.Global, ast.Nonlocal, ast.Try, *skip)):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring or a bare constant compiles to no code
            if not any((path, k) in hits for k in own_lines(node)):
                lines.add(node.lineno)
        for k in sorted(lines):
            print(f"src/waveletsets/{path.name}:{k}: {rows[k - 1].strip()}")
        count += len(lines)
    return count


def main(mode: str) -> int:
    if mode == "tests":
        hits, status = record(run_tests)
        n = unrun(hits)
        print(f"{n} statements of src/waveletsets ran in no test ({status})")
    else:
        hits, status = record(run_traffic)
        n = unrun(hits, skip=(ast.Raise,))
        print(f"{n} statements of src/waveletsets, raise statements left out, ran in no "
              f"README example and no perfbench round ({status})")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in (["tests"], ["traffic"]):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
