"""The benchmark's layer tracer (`perfbench/spans.py`) against the library.

Every (owner, attribute) it wraps must still exist where it looks for it, a
traced run must see the layers it names, and removing the wrappers must
restore every binding.
"""

import pathlib
import sys
from fractions import Fraction as F

from waveletsets import fif

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bindings():
    """Every name bound in a loaded waveletsets module, with its object."""
    return {(name, key): value for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "waveletsets"
            for key, value in vars(mod).items()}


def test_tracer_wraps_the_fif_layers_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans

    def targets():
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, _, _ in spans.TARGETS]

    before, bound = targets(), _bindings()
    basis = fif.uniform_cardinal_basis(2, F(1, 3), "reflection")
    tracer = spans.Tracer()
    patches = spans.Patches(tracer)
    patches.install()
    try:
        gram = fif.gram_matrix(basis)
        knots = [f.knot_values() for f in basis]
    finally:
        patches.remove()
    assert all(now is was for now, was in zip(targets(), before))
    assert all(value is bound[key] for key, value in _bindings().items() if key in bound)

    assert tracer.stats["fif.gram_exact"][0] == 1
    assert tracer.stats["fif.knot_values"][0] == len(basis)
    # one `moments` call per member, each keyed by its 1-D spec
    assert tracer.stats["surfaces.moments"][0] == len(basis)
    assert len(tracer.moment_keys) == len(basis)
    assert knots == [[1 if k == j else 0 for k in range(3)] for j in range(3)]
    assert gram == fif.gram_matrix(fif.uniform_cardinal_basis(2, F(1, 3), "reflection"))
