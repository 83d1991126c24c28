"""The fold rule from before a foldable figure was only its vertices, its
mirrors and its box.

A figure then carried a hand-picked interior point theta: the centre of a
box, and (1/4, 1/5) for the right triangle.  `fold` re-signed every mirror
against theta on every step, and a mirror was violated where the point and
theta lay on strictly opposite sides.  `tests/test_reflections.py` compares
the library's `fold`, which orients each mirror once by the mean of the
vertices, with this rule.
"""

from fractions import Fraction

from waveletsets.geometry import AffineIsometry, Vec

FOLD_GUARD = 100000
TRIANGLE_THETA = Vec((Fraction(1, 4), Fraction(1, 5)))


def theta(figure) -> Vec:
    """The interior point each figure constructor used to pick."""
    if figure.box is None:
        return TRIANGLE_THETA
    return Vec((lo + hi) / 2 for lo, hi in figure.box)


def _inside(h, theta, x):
    """Positive inside, negative outside, zero on the plane."""
    sign = h.side(theta)
    if sign == 0:
        raise ValueError("theta lies on a bounding hyperplane")
    value = h.side(x)
    return value if sign > 0 else -value


def fold(figure, x):
    """(point, word, isometry) of folding x into the figure, by theta."""
    centre = theta(figure)
    y = Vec(Fraction(a) if isinstance(a, int) else a for a in x)
    word = []
    back = AffineIsometry.identity(len(centre))
    for _ in range(FOLD_GUARD):
        violated = None
        for idx, h in enumerate(figure.bounding):
            if _inside(h, centre, y) < 0:
                violated = idx
                break
        if violated is None:
            return y, word, back
        mirror = figure.bounding[violated].reflection()
        y = mirror.apply(y)
        word.append(violated)
        back = back.compose(mirror)
    raise RuntimeError("folding did not terminate")
