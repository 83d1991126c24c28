"""The library tour in README.md runs as written and states true values."""

import ast
import pathlib
import re
from fractions import Fraction as F

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs_and_states_its_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    # in the order of the tour's commented lines
    assert values == [True, True, True, [(True, 0), (True, 0)], (4, 4), "D^45", True,
                      4, True, (F(1, 4), F(1, 4)),
                      [0, F(7, 10), 0], True, True, True, F(1, 2), [0.5, 0.3, 0.18, 0.0, 0.0, 0.0],
                      (256, (8, 256), 0.015625), (8, 24), True]
    basis, coarse, detail = namespace["basis"], namespace["coarse"], namespace["detail"]
    assert list(coarse) == list(detail) == [w.key() for w in basis.words]
