"""The count period read off the limit polytope's denominator.

`SectionSystem.period(stride)` is M / gcd(M, k0 stride), for M the lcm of
the denominators of the vertex coordinates of the limit polytope Q, or of
the q of the weights above 1 when Q is empty.  These tests draw systems on
products of P^n and F_a up to rank 5, with fractional divisors, metrics,
strides 1-5 and unimodular shears of the rays, and check three things:
- the period divides the determinant rule it replaced
  (`period_by_ray_subsets`);
- the period of each weight above 1 on a ray touching Q divides it;
- each residue class of the counts mod the period agrees with one
  polynomial of degree <= rank over its top rank + 3 samples, all more
  than a period past the start of the degree window.

A sheared product of rank 4 or 5 is one scan block, and its counts at
those degrees cost seconds each, so the class check shears ranks up to 3
only; the divisibility checks shear every rank.  A period read off a
limit polytope with one weight left out, and one that forgets the weights
when Q is empty, must fail the class check.
"""

from fractions import Fraction
from functools import reduce
from math import ceil, gcd, inf, lcm
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kodaira.toric
from kodaira.lattice import dot
from kodaira.multiplier import SingularMetricData
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    limit_polytope,
)

from _oracles import period_by_ray_subsets

P = ToricVariety.projective_space
F = ToricVariety.hirzebruch
FACTORS = [P(1), P(2), P(3), F(1), F(2), F(3), F(4)]
WEIGHTS = [Fraction(w) for w in
           ("1/2", "3/4", "1", "4/3", "3/2", "5/3", "7/4", "2", "5/2")]


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant 1: a few row additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@st.composite
def period_cases(draw, shear_up_to=5):
    """(system, stride): a product of one to three of P^1-P^3 and F_1-F_4
    of rank <= 5, its rays sheared when its rank is at most shear_up_to;
    D = c times the canned ample plus a fraction in [-1, 1] on each ray,
    over k0 <= 3; up to two weights; a stride in 1-5."""
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)
                   .filter(lambda fs: sum(f.lattice_rank for f in fs) <= 5))
    variety = reduce(ToricVariety.product, factors)
    k0, c = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    divisor = ToricDivisorData.over(
        [c * k0 * a + draw(st.integers(-k0, k0))
         for a in variety.standard_ample.nums], k0)
    rays = draw(st.lists(st.integers(0, len(variety.rays) - 1), max_size=2,
                         unique=True))
    metric = SingularMetricData([(i, draw(st.sampled_from(WEIGHTS))) for i in rays])
    n = variety.lattice_rank
    if n <= shear_up_to:
        u = draw(unimodular(n))
        variety = ToricVariety([tuple(dot(row, v) for row in u)
                                for v in variety.rays], variety.max_cones)
    return SectionSystem(variety, divisor, metric), draw(st.integers(1, 5))


def classes_are_polynomial(system, stride, period):
    """Whether each residue class mod period of the counts at degrees
    stride, 2 stride, ... agrees with one polynomial of degree <= rank over
    its top rank + 3 samples: their (rank + 1)-th differences vanish.  The
    top multiple of the stride is rank + 4 periods past the first one in
    the degree window."""
    n = system.variety.lattice_rank
    lo, _ = system._span or system._window()
    top = (max(ceil(lo / stride), 0) if lo > -inf else 0) + period * (n + 4)
    for r in range(period):
        samples = [system.count((top - r - j * period) * stride)
                   for j in range(n + 3)]
        for _ in range(n + 1):
            samples = list(map(sub, samples, samples[1:]))
        if any(samples):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(period_cases())
def test_period_divides_the_subset_rule_and_the_weight_periods(case):
    system, stride = case
    period = system.period(stride)
    assert period_by_ray_subsets(system, stride) % period == 0
    limit = limit_polytope(system.variety, system.divisor, system.metric)
    if not limit.is_empty():
        touching = reduce(int.__or__, limit.tight_masks())
        for i, w in system.metric.entries:
            if w > 1 and touching >> i & 1:
                step = system.k0 * stride
                assert period % (w.denominator // gcd(w.denominator, step)) == 0


@settings(max_examples=150, deadline=None)
@given(period_cases(shear_up_to=3))
def test_each_class_mod_the_period_is_one_polynomial(case):
    system, stride = case
    assert classes_are_polynomial(system, stride, system.period(stride))


def period_without_a_weight(system, stride=1):
    """A planted rule: the vertex denominators of the limit polytope with
    the first weight above 1 left out of the metric."""
    entries = list(system.metric.entries)
    drop = next(j for j, (_, w) in enumerate(entries) if w > 1)
    metric = SingularMetricData(entries[:drop] + entries[drop + 1:])
    limit = limit_polytope(system.variety, system.divisor, metric)
    m = lcm(1, *(x.denominator for v in limit.vertices() for x in v))
    return m // gcd(m, system.k0 * stride)


@pytest.mark.parametrize("variety, nums, weight, period", [
    # floor(3 k / 2) moves the upper end of [k / 2, 2 k]
    (P(1), (0, 2), (0, Fraction(3, 2)), 2),
    # weight 3/2 on ray (1, 0) of F2: read with period 2 no class is
    # polynomial even at degree 80
    (F(2), (-1, -1, -1, 2), (0, Fraction(3, 2)), 4),
])
def test_a_period_that_leaves_out_a_weight_fails_the_class_check(
        variety, nums, weight, period):
    system = SectionSystem(variety, ToricDivisorData(nums),
                           SingularMetricData([weight]))
    assert system.period() == period
    assert classes_are_polynomial(system, 1, period)
    planted = period_without_a_weight(system)
    assert planted < period
    assert not classes_are_polynomial(system, 1, planted)


def test_an_empty_limit_polytope_keeps_the_weights_periods(monkeypatch):
    # The falsification drill of tests/test_mutation.py: without the clamp
    # on multiplier coefficients, a system whose true counts vanish (Q is
    # empty) counts points again, with period 4 from the weights 1/4.
    # The vertex denominators of the empty Q give 1, which misreads them
    monkeypatch.setattr(kodaira.toric, "_coeff",
                        lambda p, q, t: t * p // q - t + 1)
    system = SectionSystem(P(1), ToricDivisorData((0, -1)), SingularMetricData(
        [(0, Fraction(1, 4)), (1, Fraction(1, 4))]))
    assert limit_polytope(system.variety, system.divisor, system.metric).is_empty()
    assert system.period() == 4
    assert classes_are_polynomial(system, 1, 4)
    assert not classes_are_polynomial(system, 1, 1)
