"""Differential tests of the integer degree-piece count.

SectionSystem counts each degree piece by shifting integer bounds; these
tests rebuild the same piece independently as a Fraction divisor polytope,
scanned over its vertex box (no direction multipliers), and, where the box
is small, filter an integer grid through its constraints.  The closed-form
count of the two innermost coordinates is checked against the oracles'
point lister (`scan_points`) and the grid filter on arbitrary integer
constraints, and against the leaf that split every integer line crossing
(`EveryCrossingPlan`) on drawn one-block plans whose lines cross at integer
points.
"""

import math
from fractions import Fraction
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira import lattice
from kodaira.lattice import ScanPlan, floor_sum
from kodaira.multiplier import SingularMetricData
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
)

from _oracles import (
    EveryCrossingPlan,
    FreshSectionSystem,
    grid_lattice_points,
    point_moments,
    rational_pairs,
    rational_polytope,
    ray_fractions,
    scan_points,
    section_points,
)

P1 = ToricVariety.projective_space(1)
VARIETIES = [
    P1,
    ToricVariety.projective_space(2),
    ToricVariety.projective_space(3),
    ToricVariety.product(P1, P1),
    ToricVariety.hirzebruch(1),
    ToricVariety.hirzebruch(2),
    ToricVariety.hirzebruch(3),
]
GRID_LIMIT = 3000  # grid points the brute-force oracle may filter


def ideal_coeff(mu, t):
    return max(math.floor(t * mu) - t + 1, 0)


@st.composite
def degree_pieces(draw):
    variety = draw(st.sampled_from(VARIETIES))
    r = len(variety.rays)
    # denominators up to 3 give k0 > 1
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3))),
        min_size=r, max_size=r))
    aux = draw(st.none() | st.lists(st.integers(-1, 2), min_size=r, max_size=r))
    weights = draw(st.dictionaries(
        st.integers(0, r - 1),
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 4))),
        max_size=2))
    stride = draw(st.sampled_from((1, 2, 3, 5)))
    k = stride * draw(st.integers(1, 2))
    return variety, coeffs, aux, weights, stride, k


@settings(max_examples=150)
@given(degree_pieces())
def test_integer_count_matches_fraction_polytope(piece):
    variety, coeffs, aux, weights, stride, k = piece
    divisor = ToricDivisorData(coeffs)
    sys = FreshSectionSystem(
        variety, divisor, metric=SingularMetricData(weights.items()),
        aux=None if aux is None else ToricDivisorData(aux),
        degree_bound=2 * stride)

    # the degree-k piece as a Fraction polytope of the effective divisor
    t = k * divisor.k0
    effective = []
    for i, b in enumerate(ray_fractions(divisor)):
        c = t * b + (aux[i] if aux is not None else 0)
        if weights.get(i):  # a zero weight is no singularity at all
            c -= ideal_coeff(weights[i], t)
        effective.append(c)
    poly = rational_polytope(variety.lattice_rank,
                             [(ray, -c) for ray, c in zip(variety.rays, effective)])
    verts = poly.vertices()
    expected = []
    if verts:
        box = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*verts)]
        expected = scan_points(ScanPlan(variety.lattice_rank, variety.rays),
                               box, [-c for c in effective])

    assert sys.count(k) == len(expected)
    assert list(section_points(sys, k)) == expected
    assert sys.count(k) == len(expected)  # served from the cache
    assert sys._plan.moments(*sys._piece(k)) == point_moments(
        expected, variety.lattice_rank)

    if verts:
        box = [(lo - 1, hi + 1) for lo, hi in box]
        if math.prod(hi - lo + 1 for lo, hi in box) <= GRID_LIMIT:
            assert grid_lattice_points(rational_pairs(poly), box) == expected


def test_floor_sum_matches_direct_sum():
    for n in range(0, 9):
        for m in range(1, 8):
            for a in range(-9, 10):
                for b in (-23, -7, -1, 0, 1, 5, 19):
                    assert floor_sum(n, m, a, b) == sum(
                        (a * i + b) // m for i in range(n))


@st.composite
def scan_inputs(draw):
    """(box, constraints, second bounds) in rank 2 or 3.

    Coordinates reach about 200; normals are arbitrary, zero entries
    included; each bound is the normal's value at a point near the box
    centre, so most constraints cut the box.  In the implied case the box
    faces are constraints too and the scanned box is larger, so the box
    never binds.
    """
    n = draw(st.sampled_from((2, 2, 3)))
    width = 40 if n == 2 else 10
    box = []
    for _ in range(n):
        lo = draw(st.integers(-200, 200))
        box.append((lo, lo + draw(st.integers(-1, width))))
    centre = [(lo + hi) // 2 for lo, hi in box]
    normals = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple),
        max_size=5))

    def bounds():
        return [sum(x * y for x, y in zip(v, centre))
                + draw(st.integers(-60, 20)) for v in normals]
    cons = list(zip(normals, bounds()))
    again = bounds()
    if draw(st.booleans()):
        for i, (lo, hi) in enumerate(box):
            unit = tuple(1 if j == i else 0 for j in range(n))
            cons += [(unit, lo), (tuple(-x for x in unit), -hi)]
            again += [lo, -hi]
        box = [(lo - draw(st.integers(0, 3)), hi + draw(st.integers(0, 3)))
               for lo, hi in box]
    return box, cons, again


@settings(max_examples=400)
@given(scan_inputs())
def test_closed_form_count_matches_column_scan_and_grid(case):
    box, cons, again = case
    normals, bounds = [v for v, _ in cons], [c for _, c in cons]
    plan = ScanPlan(len(box), normals)
    points = scan_points(plan, box, bounds)
    assert plan.scan(box, bounds) == len(points)
    assert plan.moments(box, bounds) == point_moments(points, len(box))
    if math.prod(max(hi - lo + 1, 0) for lo, hi in box) <= GRID_LIMIT:
        assert grid_lattice_points(cons, box) == points
    # one plan serves any bounds under the same normals
    assert plan.scan(box, again) == len(scan_points(
        ScanPlan(len(box), normals), box, again))


@st.composite
def leaf_inputs(draw):
    """(box, constraints) of a one-block plan in rank 2 or 3, x and y the
    last two coordinates.

    Most bounds are the normal's value at one drawn integer point, so many
    lines meet there: an upper and a lower line at the left or the right
    tip of the region, or two lines on one side.  The first normal reads
    every coordinate, which keeps the plan one block.  Normals with no x
    term, some pairs of them with crossed bounds (an empty y range), and
    parallel copies of a line on its own side ride along; boxes reach
    below 0."""
    n = draw(st.sampled_from((2, 2, 3)))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-12, 4))
        box.append((lo, lo + draw(st.integers(-1, 9 if n == 2 else 5))))
    pivot = [draw(st.integers(lo - 2, hi + 2)) for lo, hi in box]
    entry = st.integers(-3, 3)
    normals = [tuple(draw(st.integers(1, 3)) * draw(st.sampled_from((-1, 1)))
                     for _ in range(n))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("line", "line", "flat", "parallel")))
        if kind == "flat":
            v = [*draw(st.lists(entry, min_size=n - 2, max_size=n - 2)), 0,
                 draw(st.integers(1, 3)) * draw(st.sampled_from((-1, 1)))]
        elif kind == "parallel":  # a copy of a line, on the same side
            v = list(draw(st.sampled_from(normals)))
        else:
            v = draw(st.lists(entry, min_size=n, max_size=n))
        normals.append(tuple(v))
    cons = [(v, sum(map(mul, v, pivot))
             + draw(st.sampled_from((0, 0, 0, -1, 1, -3, 2)))) for v in normals]
    if draw(st.booleans()):  # y >= c and y <= c - 1 - gap: no y at all
        c, gap = draw(st.integers(-8, 8)), draw(st.integers(0, 2))
        unit = (0,) * (n - 1)
        cons += [(unit + (1,), c), (unit + (-1,), 1 + gap - c)]
    return box, cons


@settings(max_examples=600, derandomize=True)
@given(leaf_inputs())
# an upper and a lower line meet at (0, 0), the left tip of y <= x, y >= -x
@example(([(-3, 3), (-5, 5)], [((1, -1), 0), ((1, 1), 0)]))
# ... and the right tip of y <= -x, y >= x
@example(([(-3, 3), (-5, 5)], [((-1, -1), 0), ((-1, 1), 0)]))
# two upper lines meet at (1, 1), below a y range narrowed by y >= -2
@example(([(-4, 4), (-6, 6)], [((1, -1), 0), ((-1, -1), -2), ((0, 1), -2)]))
# two upper lines, y <= x and y <= -x, and two lower lines, y >= x - 6 and
# y >= -x - 6, each pair crossing on the first column x = 0
@example(([(0, 3), (-6, 6)], [((1, -1), 0), ((-1, -1), 0), ((-1, 1), -6),
                              ((1, 1), -6)]))
def test_leaf_count_matches_every_crossing_split_and_grid(case):
    box, cons = case
    normals, bounds = [v for v, _ in cons], [c for _, c in cons]
    plan = ScanPlan(len(box), normals)
    assert plan.parts is None  # the two-coordinate leaf counts
    count = plan.scan(box, bounds)
    assert count == EveryCrossingPlan(len(box), normals).scan(box, bounds)
    assert count == len(grid_lattice_points(cons, box))


def test_leaf_sums_floors_only_on_pieces_that_need_them(monkeypatch):
    # F2, D = D_0 + D_1 + 2 D_2 + D_3 at degree 20: the rays (0, +-1) only
    # narrow y's range, and no crossing is a left tip, so the leaf makes at
    # most two pieces of two floor sums each (eight with a piece per
    # integer crossing)
    calls = []

    def counted(*args):
        calls.append(args)
        return floor_sum(*args)
    monkeypatch.setattr(lattice, "floor_sum", counted)
    sys = SectionSystem(ToricVariety.hirzebruch(2),
                        ToricDivisorData((1, 1, 2, 1)), degree_bound=24)
    assert sys.count(20) == 2501
    assert len(calls) <= 4


def test_same_side_crossing_on_the_first_column_ends_no_piece(monkeypatch):
    # P2, D = H at degree 7: the upper lines y <= 7 - x and y <= 7 (the top
    # of y's box range) cross at x = 0, the first column, so x = 0..7 is
    # one piece of two floor sums (two pieces with one at the crossing)
    calls = []

    def counted(*args):
        calls.append(args)
        return floor_sum(*args)
    monkeypatch.setattr(lattice, "floor_sum", counted)
    sys = SectionSystem(ToricVariety.projective_space(2),
                        ToricDivisorData((0, 0, 1)), degree_bound=8)
    assert sys.count(7) == 36
    assert len(calls) == 2


def test_degree_free_system_scans_once(monkeypatch):
    # D = 0 on P2: every degree has the one piece {0}, also with weights
    # <= 1 (coefficient 0 below 1); a weight above 1 empties the box at
    # every degree, which the degree window knows without a scan
    scans = []
    real_scan = ScanPlan.scan

    def scan(plan, *args, **kwargs):
        scans.append(args)
        return real_scan(plan, *args, **kwargs)
    monkeypatch.setattr(ScanPlan, "scan", scan)
    p2 = ToricVariety.projective_space(2)
    zero = ToricDivisorData((0, 0, 0))
    for metric in (None, SingularMetricData([(0, Fraction(1, 2))])):
        scans.clear()
        sys = SectionSystem(p2, zero, metric=metric, degree_bound=24)
        assert [sys.count(k) for k in range(1, 25)] == [1] * 24
        assert sys.growth() == 0
        assert len(scans) == 1
    scans.clear()
    sys = SectionSystem(p2, zero, metric=SingularMetricData(
        [(0, Fraction(3, 2))]), degree_bound=24)
    assert [sys.count(k) for k in range(1, 5)] == [0] * 4
    assert len(scans) == 0
