"""Differential tests of the degree window of a section system.

Outside its window lo <= k <= hi, a section system's degree-k box is empty
(some coordinate's lower end lies above its upper end), so `count`,
`support` and `gram` answer 0 there without building the piece.  These
tests draw systems on P^n, F_a and products, with fractional divisors,
weights above and below 1, twists by negative and positive auxiliary
divisors, and strides.  Every degree outside the window must have an
empty box, and at every degree read the counts and Gram matrices must
equal those of the oracles' fresh system (`FreshSectionSystem`) and of
the points of the piece's Fraction polytope, listed over its vertex box
and, where small, filtered from the grid.  A window one degree too
narrow at either end must fail that check.  On the log fibrations of the
corpus, whose divisors K + B and perturbed twists have no sections at most
degrees read, the window leaves few degree pieces to build.
"""

import contextlib
import io
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.cli import main
from kodaira.lattice import ScanPlan
from kodaira.multiplier import SingularMetricData
from kodaira.toric import SectionSystem, ToricDivisorData, ToricVariety

from _oracles import (
    FreshSectionSystem,
    gram_of_points,
    grid_lattice_points,
    rational_pairs,
    rational_polytope,
    ray_fractions,
    scan_points,
)

P1 = ToricVariety.projective_space(1)
F1 = ToricVariety.hirzebruch(1)
P1xP1 = ToricVariety.product(P1, P1)
VARIETIES = [
    P1,
    ToricVariety.projective_space(2),
    ToricVariety.projective_space(3),
    F1,
    ToricVariety.hirzebruch(2),
    ToricVariety.hirzebruch(3),
    P1xP1,
    ToricVariety.product(F1, P1),
]
GRID_LIMIT = 2000  # grid points the brute-force filter may read
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def piece_points(variety, divisor, weights, aux, k):
    """The points of the degree-k piece: its Fraction polytope
    {u : <u, v_rho> >= -(t b_rho + e_rho - c_rho)}, t = k k0, listed over
    its vertex box, and checked against the grid where that is small."""
    t = k * divisor.k0
    effective = []
    for i, b in enumerate(ray_fractions(divisor)):
        c = t * b + (aux.nums[i] if aux is not None else 0)
        if weights.get(i):
            mu = weights[i]
            c -= max(math.floor(t * mu) - t + 1, 0)
        effective.append(c)
    n = variety.lattice_rank
    poly = rational_polytope(n, [(ray, -c) for ray, c in
                                 zip(variety.rays, effective)])
    verts = poly.vertices()
    if not verts:
        return []
    box = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*verts)]
    points = scan_points(ScanPlan(n, variety.rays), box,
                         [-c for c in effective])
    box = [(lo - 1, hi + 1) for lo, hi in box]
    if math.prod(hi - lo + 1 for lo, hi in box) <= GRID_LIMIT:
        assert grid_lattice_points(rational_pairs(poly), box) == points
    return points


def check_window(variety, coeffs, weights, aux, bound, stride):
    divisor = ToricDivisorData(coeffs)
    metric = SingularMetricData(weights.items())
    aux = None if aux is None else ToricDivisorData(aux)
    sys = SectionSystem(variety, divisor, metric,
                        degree_bound=bound).twist(aux)
    fresh = FreshSectionSystem(variety, divisor, metric, aux=aux,
                               degree_bound=bound)
    lo, hi = sys._window()
    n = variety.lattice_rank
    counts = {}
    for k in range(1, bound * stride + 1):
        if not lo <= k <= hi:
            box, _ = sys._piece(k)
            assert any(a > b for a, b in box), k
        points = piece_points(variety, divisor, weights, aux, k)
        counts[k] = len(points)
        assert sys.count(k) == len(points), k  # the count first ...
        assert sys.gram(k) == gram_of_points(points, n), k
        assert fresh.gram(k) == gram_of_points(points, n), k  # ... or not
        assert fresh.count(k) == len(points), k
    assert sys.support() == [k for k in range(1, bound + 1) if counts[k]]


@st.composite
def window_cases(draw):
    variety = draw(st.sampled_from(VARIETIES))
    r = len(variety.rays)
    # denominators up to 3 give k0 > 1
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3))),
        min_size=r, max_size=r))
    weights = draw(st.dictionaries(
        st.integers(0, r - 1),
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 4))),
        max_size=2))
    aux = draw(st.none() | st.lists(st.integers(-3, 3), min_size=r,
                                    max_size=r))
    bound = draw(st.integers(2, 4))
    stride = draw(st.sampled_from((1, 2, 3)))
    return variety, coeffs, weights, aux, bound, stride


# P^1, D = D_1 twisted by -3 D_0: the box 3 <= u <= k is empty below the
# window's lower end 3 and one point at it
LOW_END = (P1, (0, 1), {}, (-3, 0), 4, 1)
# P^1, D = -D_1 twisted by 3 D_0: the box -3 <= u <= -k is one point at
# the window's upper end 3 and empty above it
HIGH_END = (P1, (0, -1), {}, (3, 0), 4, 1)
# P^1 x P^1 with a weight above 1 on the first factor, which the twist
# shrinks, and a second factor of negative degree, which it widens: the
# window is 2..5, every degree in it nonempty
BOTH_ENDS = (P1xP1, (1, 1, 0, -1), {0: Fraction(5, 4)}, (-2, -1, 2, 3), 4, 2)


@settings(max_examples=150)
@given(window_cases())
@example(LOW_END)
@example(HIGH_END)
@example(BOTH_ENDS)
def test_degrees_outside_the_window_have_empty_boxes(case):
    check_window(*case)


def test_window_ends_of_the_pinned_cases():
    def window(variety, coeffs, weights, aux, bound, stride):
        return SectionSystem(variety, ToricDivisorData(coeffs),
                             SingularMetricData(weights.items())).twist(
            ToricDivisorData(aux))._window()
    assert window(*LOW_END) == (3, math.inf)
    assert window(*HIGH_END) == (-math.inf, 3)
    assert window(*BOTH_ENDS) == (2, 5)


@pytest.mark.parametrize("end", ("lo", "hi"))
def test_window_one_degree_too_narrow_is_caught(monkeypatch, end):
    real = SectionSystem._window

    def narrow(sys):  # the cached window too, which count and gram read
        lo, hi = real(sys)
        sys._span = (lo + 1, hi) if end == "lo" else (lo, hi - 1)
        return sys._span
    monkeypatch.setattr(SectionSystem, "_window", narrow)
    with pytest.raises(AssertionError):
        check_window(*(LOW_END if end == "lo" else HIGH_END))


@pytest.mark.parametrize("name, pieces", [
    ("fibration_hirzebruch_log.json", 4),  # 66 without the window
    ("fibration_metric_drop.json", 39),    # 84 without it
])
def test_fibration_corpus_builds_only_pieces_in_the_window(
        monkeypatch, name, pieces):
    built = []
    real_piece = SectionSystem._piece

    def piece(sys, k):  # every count or moment scan builds one
        built.append(k)
        return real_piece(sys, k)
    monkeypatch.setattr(SectionSystem, "_piece", piece)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fibration", str(CORPUS / name), "--format", "json"]) == 0
    assert len(built) == pieces
