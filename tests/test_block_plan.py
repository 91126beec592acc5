"""Differential tests of block-split scan plans.

A `ScanPlan` whose normals leave the coordinates in several blocks counts
and takes moments block by block (intervals in closed form, larger blocks
as sub-plans).  These tests check the split count and moments against the
unsplit, unmemoised point lister of the oracles (`scan_points`) and the
grid filter on drawn block-structured normals, and check product section
systems at corpus scale against the listed points at every degree.  The
column walk of a one-block plan memoises its subtrees of two or more
coordinates below depth 2 on, on the residuals of the constraints that
straddle their depth, so from rank 4 on; sheared products of simplices and
cubes, one block each, check it against the same lister, and a memo key
that drops one residual must fail that check.
"""

from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.fibration import ToricFibrationInstance, product_fibration
from kodaira.lattice import ScanPlan
from kodaira.multiplier import SingularMetricData
from kodaira.toric import SectionSystem, ToricDivisorData, ToricVariety

from _oracles import (
    FreshSectionSystem,
    grid_lattice_points,
    point_moments,
    scan_points,
    section_points,
)

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P1xP1xP1 = ToricVariety.product(ToricVariety.product(P1, P1), P1)


@st.composite
def block_inputs(draw):
    """(box, constraints, number of drawn blocks) in dimension 0 to 6.

    The coordinates are cut into consecutive blocks, each block gets up to
    three normals supported inside it (none leaves its coordinates
    untouched), and a random permutation then scatters the blocks, so they
    are not contiguous.  Zero normals ride along; bounds near 0 on boxes
    around 0, some of them empty, leave some blocks empty and others not.
    Boxes narrow with the dimension, so the grid stays small."""
    n = draw(st.integers(0, 6))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    width = (0, 6, 5, 4, 3, 2, 2)[n]
    box = []
    for _ in range(n):
        lo = draw(st.integers(-4, 2))
        box.append((lo, lo + draw(st.integers(-1, width))))
    normals = []
    for block in blocks:
        for _ in range(draw(st.integers(0, 3))):
            v = [0] * n
            for j in block:
                v[perm[j]] = draw(st.integers(-3, 3))
            normals.append(tuple(v))
    normals += [(0,) * n] * draw(st.integers(0, 2))
    normals = draw(st.permutations(normals))
    cons = [(v, draw(st.integers(-8, 3))) for v in normals]
    return box, cons, len(blocks)


@settings(max_examples=300)
@given(block_inputs())
# an empty block {1, 2} beside a full interval {0}
@example(([(0, 2), (0, 2), (0, 2)],
          [((1, 0, 0), 0), ((0, 1, 1), 5), ((0, -1, 0), -2)], 2))
# coordinate 1 touched by no normal, between two one-coordinate blocks
@example(([(0, 2), (-1, 1), (0, 3)], [((0, 0, 2), 1), ((-1, 0, 0), -1)], 3))
# a zero normal that no point meets, then one that every point meets
@example(([(0, 1), (0, 1)], [((0, 0), 1), ((1, 0), 0)], 2))
@example(([(0, 1), (0, 1)], [((0, 0), 0), ((1, 0), 0)], 2))
@example(([], [((), 0)], 1))
# one block of two coordinates, whose x range (x >= 5) is empty, and a zero
# normal that every point meets
@example(([(0, 2), (0, 2)], [((1, 1), 0), ((1, 0), 5), ((0, 0), -1)], 1))
def test_split_scan_and_moments_match_collected_points(case):
    box, cons, drawn = case
    n = len(box)
    plan = ScanPlan(n, [v for v, _ in cons])
    if n < 2 or drawn > 1:
        assert plan.parts is not None
        assert len(plan.intervals) + len(plan.parts) >= min(drawn, n)
    bounds = [c for _, c in cons]
    points = scan_points(plan, box, bounds)
    assert points == grid_lattice_points(cons, box)
    assert plan.scan(box, bounds) == len(points)
    assert plan.moments(box, bounds) == point_moments(points, n)


@st.composite
def sheared_inputs(draw):
    """(box, constraints) of a one-block plan of 4 to 6 coordinates.

    Consecutive blocks of coordinates each hold a dilate of a simplex (u_j
    >= 0, sum u_j <= k) or of a cube, and a unimodular upper triangular
    shear U, whose first row has no zero entry, maps every normal v to v U:
    the points w of the sheared plan are those with U w in the blocks'
    product, and the first unit normal now reads every coordinate, so the
    plan is one block.  The box is the sheared points' own, each end moved
    by up to one, so some pieces are cut or empty, and it reaches below 0;
    up to two normals of entries in -1..1, zero included, ride along."""
    n = draw(st.integers(4, 6))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    normals, bounds, sizes = [], [], []
    for a, b in zip([0, *cuts], [*cuts, n]):
        k = draw(st.integers(0, 3 if n < 5 else 2))
        sizes += [k] * (b - a)
        for j in range(a, b):
            normals.append(tuple(int(i == j) for i in range(n)))
            bounds.append(0)
            if draw(st.booleans()):  # a cube's far face
                normals.append(tuple(-int(i == j) for i in range(n)))
                bounds.append(-k)
        normals.append(tuple(-int(a <= i < b) for i in range(n)))
        bounds.append(-k)
    cons = list(zip(normals, bounds))
    shear = [[(draw(st.sampled_from((-1, 1))) if i == 0 else
               draw(st.integers(-1, 1))) if j > i else int(i == j)
              for j in range(n)] for i in range(n)]
    ends = [[0, 0] for _ in range(n)]
    for u in product(*(range(k + 1) for k in sizes)):
        if all(sum(map(mul, u, v)) >= c for v, c in cons):
            w = list(u)  # U w = u, solved from the last row up
            for i in reversed(range(n)):
                w[i] -= sum(shear[i][j] * w[j] for j in range(i + 1, n))
            for end, x in zip(ends, w):
                end[:] = min(end[0], x), max(end[1], x)
    cons = [(tuple(sum(v[i] * shear[i][j] for i in range(n))
                   for j in range(n)), c) for v, c in cons]
    for _ in range(draw(st.integers(0, 2))):
        cons.append((tuple(draw(st.lists(st.integers(-1, 1), min_size=n,
                                         max_size=n))),
                     draw(st.integers(-4, 0))))
    box = [(lo + draw(st.integers(-1, 1)), hi + draw(st.integers(-1, 1)))
           for lo, hi in ends]
    return box, cons


# the dilate 3 of the P^4 simplex, whose memo key at every depth is the
# residual of the diagonal alone
SIMPLEX_4 = ([(0, 3)] * 4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0),
                            ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
                            ((-1, -1, -1, -1), -3)])
# a one-block plan of 5 coordinates, 31 points, whose memo keys hold two
# to five residuals
PRODUCT_5 = ([(-4, 2)] * 5, [((1, 1, -1, 1, 1), 0), ((0, 1, 1, 0, -1), 0),
                             ((-1, -2, 0, -1, -1), -2), ((0, 0, 1, 1, 0), 0),
                             ((0, 0, 0, 1, 1), 0), ((0, 0, 0, 0, 1), 0),
                             ((0, 0, -1, -2, -2), -2)])
# a sheared one-block plan of 5 coordinates, 3 points, whose memo keys at
# depths 2 and 3 hold two and three residuals
SHEARED_5 = ([(1, 2), (0, 1), (-1, 2), (-1, 2), (1, 1)], [
    ((1, -1, -1, -1, 1), 0), ((0, 1, 0, 0, 0), 0), ((0, -1, 0, 0, 0), -2),
    ((0, 0, 1, 1, -1), 0), ((0, 0, 0, 1, 0), 0), ((0, 0, 0, -1, 0), -2),
    ((0, 0, 0, 0, 1), 0), ((-1, 0, 0, -1, -1), -2)])


def check_memoised_walk(case):
    box, cons = case
    n = len(box)
    plan = ScanPlan(n, [v for v, _ in cons])
    assert plan.parts is None
    bounds = [c for _, c in cons]
    points = scan_points(plan, box, bounds)
    assert plan.scan(box, bounds) == len(points)
    assert plan.moments(box, bounds) == point_moments(points, n)


@settings(max_examples=80)
@given(sheared_inputs())
@example(SIMPLEX_4)
@example(PRODUCT_5)
@example(SHEARED_5)
def test_memoised_walk_matches_collected_points(case):
    check_memoised_walk(case)


@pytest.mark.parametrize("case", (SIMPLEX_4, SHEARED_5))
def test_memo_key_without_one_residual_is_caught(monkeypatch, case):
    real = ScanPlan.__init__

    def init(plan, dim, normals):
        real(plan, dim, normals)
        if plan.parts is None:  # the key drops its last residual
            plan.live = [live[:-1] for live in plan.live]
    monkeypatch.setattr(ScanPlan, "__init__", init)
    with pytest.raises(AssertionError):
        check_memoised_walk(case)


def product_systems():
    """Product section systems at corpus scale: P1 x P1 x P1 under an ample
    class, a metric weight and an ample perturbation, and the total spaces
    of two toric_product fibrations."""
    ample = P1xP1xP1.standard_ample
    out = [("p1xp1xp1_ample", SectionSystem(P1xP1xP1, ample, degree_bound=12)),
           ("p1xp1xp1_metric_perturbed", FreshSectionSystem(
               P1xP1xP1, ToricDivisorData((1, 0, Fraction(1, 2), 1, 0, 2)),
               metric=SingularMetricData([(1, Fraction(3, 2))]),
               aux=ample.scale(2), degree_bound=12))]
    for name, fiber, base, coeffs, entries in (
            ("p2_over_p1", P2, P1, (1, 0, 1, 0, 2), [(0, Fraction(3, 2))]),
            ("p1_over_p1", P1, P1, (0, 1, 0, 1), [(0, Fraction(3, 2))])):
        inst = ToricFibrationInstance(
            fibration=product_fibration(fiber, base),
            divisor=ToricDivisorData(coeffs),
            metric=SingularMetricData(entries), degree_bound=12)
        out.append((name, inst.system))
    return out


@pytest.mark.parametrize("name, sys", product_systems(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_product_counts_match_unsplit_scan_at_every_degree(name, sys):
    plan = sys._plan
    assert plan.parts is not None  # the product's factors are its blocks
    for k in range(1, sys.degree_bound + 1):
        points = section_points(sys, k)  # never split
        assert sys.count(k) == len(points), (name, k)
        assert plan.moments(*sys._piece(k)) == point_moments(
            points, sys.variety.lattice_rank)
