"""Known answers: a wavelet set from the literature, two near misses of it,
and a planar fixture, each read back from its saved JSON text.

The expected residuals are derived here by hand, as measures of intervals,
not read from the library.  Coordinates are in pi units, so a 1-D wavelet
set is translation congruent to [0, 2) modulo 2 and dilation congruent to
the Shannon set [-2, -1) U [1, 2) (Hernandez-Weiss, *A First Course on
Wavelets*, 1996).  Journe's set, the classical wavelet set that no
multiresolution analysis yields (Daubechies, *Ten Lectures on Wavelets*,
1992), is [-32/7, -4) U [-1, -4/7) U [4/7, 1) U [4, 32/7).
"""

import json
from fractions import Fraction as F

from waveletsets.reflections import centered_square_figure
from waveletsets.tiles import (DyadicBoxSet, build_w1, dilation_congruent, is_wavelet_set_1d,
                               shannon_set, three_way_check)


def saved(*intervals) -> str:
    """The JSON text of a union of intervals, as `to_json` writes it."""
    ends = [[[F(x).numerator, F(x).denominator]] for iv in intervals for x in iv]
    return json.dumps({"dim": 1, "unit": "pi",
                       "boxes": [{"lo": lo, "hi": hi} for lo, hi in zip(ends[::2], ends[1::2])]})


def length(*intervals) -> F:
    return sum((F(b) - F(a) for a, b in intervals), F(0))


JOURNE = [(F(-32, 7), -4), (-1, F(-4, 7)), (F(4, 7), 1), (4, F(32, 7))]


def test_journe_set_is_a_wavelet_set():
    # modulo 2: [-32/7, -4) + 6 = [10/7, 2), [-1, -4/7) + 2 = [1, 10/7),
    # [4/7, 1) and [4, 32/7) - 4 = [0, 4/7) tile [0, 2); under dilation by 2:
    # [-32/7, -4) / 4 = [-8/7, -1), [-1, -4/7) * 2 = [-2, -8/7),
    # [4/7, 1) * 2 = [8/7, 2) and [4, 32/7) / 4 = [1, 8/7) tile the Shannon set
    journe = DyadicBoxSet.from_json(saved(*JOURNE))
    assert journe.measure == length(*JOURNE) == 2
    assert journe.den == 7  # a grid that is not dyadic
    assert is_wavelet_set_1d(journe) == {"translation_residual": 0, "dilation_residual": 0,
                                         "is_wavelet_set": True}


def test_breakpoint_moved_from_4_7_to_5_8():
    # [4/7, 5/8) leaves [0, 2) uncovered modulo 2, and its double [8/7, 5/4)
    # leaves the Shannon set uncovered under dilation; no copy is surplus
    moved = DyadicBoxSet.from_json(saved(*JOURNE[:2], (F(5, 8), 1), JOURNE[3]))
    assert is_wavelet_set_1d(moved) == {"translation_residual": length((F(4, 7), F(5, 8))),
                                        "dilation_residual": length((F(8, 7), F(5, 4))),
                                        "is_wavelet_set": False}
    assert length((F(4, 7), F(5, 8))) == F(3, 56) and length((F(8, 7), F(5, 4))) == F(3, 28)
    cert = dilation_congruent(moved, shannon_set(), kappa=2, allow_center=True)
    assert cert.target_residual == DyadicBoxSet.from_box((F(8, 7), F(5, 4)))
    assert cert.verify().ok


def test_interval_moved_by_the_lattice_spacing():
    # [4/7, 1) + 2 = [18/7, 3) is the same modulo 2, but halved it is
    # [9/7, 3/2), so the dilates [1, 8/7) and [9/7, 3/2) leave [8/7, 9/7) and
    # [3/2, 2) of [1, 2) uncovered
    moved = DyadicBoxSet.from_json(saved(*JOURNE[:2], (F(18, 7), 3), JOURNE[3]))
    hole = [(F(8, 7), F(9, 7)), (F(3, 2), 2)]
    assert is_wavelet_set_1d(moved) == {"translation_residual": 0,
                                        "dilation_residual": length(*hole),
                                        "is_wavelet_set": False}
    assert length(*hole) == F(9, 14)
    cert = dilation_congruent(moved, shannon_set(), kappa=2, allow_center=True)
    assert cert.target_residual == DyadicBoxSet(1, [(iv,) for iv in hole])


def test_planar_fixture_reads_back_with_its_residuals():
    w = build_w1(6).wavelet_set
    again = DyadicBoxSet.from_json(w.to_json())
    assert again == w
    figure = centered_square_figure()
    assert three_way_check(again, figure, (2, 2)) == three_way_check(w, figure, (2, 2))
