"""Differential tests of block-split scan plans.

A `ScanPlan` whose normals leave the coordinates in several blocks counts
and takes moments block by block (intervals in closed form, larger blocks
as sub-plans).  These tests check the split count and moments against the
unsplit, unmemoised point lister of the oracles (`scan_points`) and the
grid filter on drawn block-structured normals, and check product section
systems at corpus scale against the listed points at every degree.
"""

from fractions import Fraction

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
