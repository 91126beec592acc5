"""The exact growth degree shared by every empirical growth route.

growth_degree reads the degree of an eventually quasi-polynomial count
sequence off integer finite differences along residue classes of a given
period.  These tests build such sequences from known polynomials and check
the reading against exact Lagrange interpolation, check that reading each
class only as far as its rules look gives the degree a per-class sample
cap with its whole-class fallback gives, and reads just those samples, then pin
the routes that use it: the perturbation multiples of kappa_sigma and the
degrees they count, a period that only the rays touching the limit
polytope make short enough, and the curve-side decision for counts that
die out or plateau above 1.
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira import toric
from kodaira.cli import parse_variety
from kodaira.curve import CurveDivisorClass, CurveModel
from kodaira.fibration import CurveProductInstance
from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import DegreeBoundError
from kodaira.toric import (
    PERTURBATION_MULTIPLES,
    CrossCheckError,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    cross_check,
    growth_degree,
    kappa2,
    kappa_report,
    kappa_sigma,
)

from _oracles import (
    growth_degree_capped,
    interpolate_polynomial,
    kappa_curve,
    kappa_sigma_curve,
)

P1 = ToricVariety.projective_space(1)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def binomial_poly(coeffs):
    """j -> sum c_i C(j, i): integer valued, and with c_i >= 0 and a positive
    top coefficient strictly increasing for j >= degree >= 1."""
    return lambda j: sum(c * comb(j, i) for i, c in enumerate(coeffs))


def oracle_degree(samples):
    """Least m whose interpolant through the last m + 1 samples reproduces
    every sample: the degree of the polynomial the samples lie on."""
    xs = range(len(samples))
    for m in range(len(samples)):
        poly = interpolate_polynomial(list(zip(xs, samples))[-(m + 1):])
        if all(poly(x) == y for x, y in zip(xs, samples)):
            return m
    raise AssertionError("no interpolant")


@st.composite
def quasi_polynomials(draw):
    """(counts at degrees 1..K, period, per-class stable samples, degrees).

    Each residue class mod the period (class 0 ends at the top degree) is
    dead (degree None, zero once stable) or a degree 0..3 polynomial with a
    positive leading coefficient.  The first `prefix` samples of every
    class are arbitrary (the unstable part); at least max(d + 2, 3) stable
    samples follow, so the answer is determined.
    """
    period = draw(st.integers(1, 6))
    degrees = draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]),
                            min_size=period, max_size=period))
    prefix = draw(st.integers(0, 2))
    need = max(3, *((d or 0) + 2 for d in degrees))
    length = prefix + need + draw(st.integers(0, 2))
    extra = draw(st.integers(0, period - 1))
    classes = []
    for r, d in enumerate(degrees):
        size = length + (1 if r < extra else 0)
        front = draw(st.lists(st.integers(0, 40), min_size=prefix,
                              max_size=prefix))
        if d is None:
            stable = [0] * (size - prefix)
        else:
            coeffs = draw(st.lists(st.integers(0, 5), min_size=d, max_size=d))
            poly = binomial_poly(coeffs + [draw(st.integers(1, 5))])
            stable = [poly(d + j) for j in range(size - prefix)]
        classes.append(front + stable)
    top = period * length + extra
    counts = [0] * top
    for r, samples in enumerate(classes):
        for back, value in enumerate(reversed(samples)):
            counts[top - 1 - r - back * period] = value
    stable = [samples[prefix:] for samples in classes]
    return counts, period, stable, degrees


@settings(max_examples=300)
@given(quasi_polynomials())
def test_growth_degree_against_interpolation(case):
    counts, period, stable, degrees = case
    expected = NEG_INF
    for samples, d in zip(stable, degrees):
        if d is None:
            assert not any(samples)
            continue
        assert samples[-1] > 0
        assert oracle_degree(samples) == d
        expected = max(expected, d)
    assert growth_degree(counts, period) == expected


@settings(max_examples=150)
@given(quasi_polynomials(), st.data())
def test_short_or_decreasing_class_is_not_determinable(case, data):
    counts, period, _, degrees = case
    live = [r for r, d in enumerate(degrees) if d is not None]
    if not live:
        return
    r = data.draw(st.sampled_from(live))
    d = degrees[r]
    # too short: keep the last d + 1 samples of every class (all stable in
    # class r), so class r cannot show degree d, and no lower degree fits
    if d >= 1:
        short = counts[len(counts) - period * (d + 1):]
        assert growth_degree(short, period) is None
    # decreasing at its end: the top sample of class r drops below the one
    # before it (which is positive, so the class does not look dead)
    dropped = list(counts)
    top = len(counts) - 1 - r
    dropped[top] = dropped[top - period] - 1
    assert growth_degree(dropped, period) is None


class ReadLog(list):
    """A count list that records which indices growth_degree reads."""

    def __init__(self, counts):
        super().__init__(counts)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


@settings(max_examples=300)
@given(quasi_polynomials(), st.integers(3, 6))
def test_capped_growth_degree_matches_full_read(case, cap):
    counts, period, _, degrees = case
    log = ReadLog(counts)
    assert (growth_degree(log, period)
            == growth_degree_capped(counts, period, cap)
            == growth_degree_capped(counts, period))
    # each class is read from the top only as far as its rules look: the
    # last 2 samples of a dead class, the last max(3, d + 2) of degree d
    for r, d in enumerate(degrees):
        places = range(len(counts) - 1 - r, -1, -period)
        need = 2 if d is None else max(3, d + 2)
        assert log.read & set(places) == set(places[:need])


@settings(max_examples=300)
@given(st.lists(st.integers(0, 9), max_size=30), st.integers(1, 5),
       st.integers(3, 6))
@example([], 1, 3)  # a class with no sample is undecided, not dead
def test_capped_growth_degree_matches_full_read_on_any_counts(counts, period,
                                                              cap):
    assert (growth_degree(counts, period)
            == growth_degree_capped(counts, period, cap)
            == growth_degree_capped(counts, period))


def test_capped_read_falls_back_to_the_whole_class():
    # cubic counts: the last three samples fit no degree below 2, and the
    # cubic needs its last five, so only those are read
    counts = ReadLog([comb(j + 3, 3) for j in range(10)])
    assert growth_degree(counts, 1) == 3
    assert counts.read == set(range(5, 10))
    linear = ReadLog(range(1, 11))
    assert growth_degree(linear, 1) == 1
    assert linear.read == {7, 8, 9}


def test_dead_and_constant_classes():
    assert growth_degree([5, 0, 7, 0, 0, 0, 0], 1) == NEG_INF
    assert growth_degree([0] * 6, 3) == NEG_INF
    # a live class next to a dead one: the live one decides
    assert growth_degree([1, 0, 1, 0, 1, 0, 1, 0], 2) == 0
    assert growth_degree([1, 0, 2, 0, 3, 0, 4, 0], 2) == 1
    # a single sample per class decides nothing
    assert growth_degree([3, 3], 2) is None
    # stable counts never decrease and lead with a positive coefficient, so
    # a class that falls, bends down or dips has not stabilised, even if its
    # samples lie on one polynomial
    assert growth_degree([9, 7, 5, 3], 1) is None
    assert growth_degree([0, 5, 8, 9], 1) is None
    assert growth_degree([4, 1, 0, 1], 1) is None


def test_cross_check_needs_every_determinable_multiple():
    assert cross_check(2, [2, None, 2], "{exact} {empirical}", False, "") == 2
    # a determined estimate that differs is a mismatch, excuse or not
    for excused in (False, True):
        with pytest.raises(CrossCheckError, match="exact 3, empirical 2"):
            cross_check(3, [3, 2, None], "exact {exact}, empirical {empirical}",
                        excused, "")
    # no determinable estimate: a bound too small, unless the caller excuses it
    with pytest.raises(DegreeBoundError, match="not estimable"):
        cross_check(1, [None] * 3, "", False, "not estimable")
    assert cross_check(NEG_INF, [None] * 3, "", True, "") == NEG_INF
    assert cross_check(0, [None], "", True, "") == 0


def test_period_two_counts_that_pair_up():
    # 165, 165, 220, 220, ...: the cubic C(i + 11, 3) sampled twice per step.
    # Read with period 1 the pairs look like plateaus; with period 2 each
    # class is the cubic.
    counts = [comb(j // 2 + 11, 3) for j in range(24)]
    assert growth_degree(counts, 2) == 3


def test_every_perturbation_multiple_certifies_p3_unit_mu32(monkeypatch):
    # P3, D = H, weight 3/2 on one ray: the counts for each m pair up
    # (35, 35, 56, 56, ...).  Every multiple must read the exact value 3.
    readings = []

    def record(counts, period, *args, **kwargs):
        readings.append(growth_degree(counts, period, *args, **kwargs))
        return readings[-1]

    monkeypatch.setattr(toric, "growth_degree", record)
    p3 = ToricVariety.projective_space(3)
    metric = SingularMetricData([(0, Fraction(3, 2))])
    assert kappa_sigma(SectionSystem(p3, ToricDivisorData((0, 0, 0, 1)), metric,
                                     degree_bound=24)) == 3
    assert readings == [3] * len(PERTURBATION_MULTIPLES)


def test_kappa_sigma_counts_only_the_degrees_it_reads(monkeypatch):
    # each perturbation multiple reads at most lattice rank + 2 degrees per
    # residue class of the period; the parent counted all 24 degrees
    doc = json.loads((CORPUS / "kappa_p2_ample.json").read_text())
    variety = parse_variety(doc["body"]["variety"])
    divisor = ToricDivisorData(tuple(doc["body"]["coefficients"]))
    bound = doc["options"]["max_degree"]
    scanned = []
    real_piece = SectionSystem._piece

    def piece(sys, k):  # every count or moment scan builds one
        scanned.append(k)
        return real_piece(sys, k)

    monkeypatch.setattr(SectionSystem, "_piece", piece)
    assert kappa_sigma(SectionSystem(variety, divisor,
                                     degree_bound=bound)) == 2
    period = SectionSystem(variety, divisor, degree_bound=bound).period()
    n = variety.lattice_rank
    assert 0 < len(scanned) <= len(PERTURBATION_MULTIPLES) * (n + 2) * period
    # kappa2 stops at the first degree whose exponents span the lattice
    sys = SectionSystem(variety, divisor, degree_bound=bound)
    assert kappa2(sys) == 2
    assert set(sys._grams) == {1}
    assert kappa_report(sys).witness_degree == 1


def test_period_uses_only_rays_touching_the_limit_polytope():
    # F3, D = D_0 + D_1, weight 3/2 on ray (0, 1).  The weighted constraint
    # is slack on the limit polytope, so the period is the denominator of
    # its vertex (-1, -1/3) on rays (1, 0), (-1, 3): 3, not 3 * 2.  With
    # period 6 the class of degrees 2, 8, 14, 20 starts before the counts
    # are stable and no multiple would be determinable at bound 24.
    f3 = ToricVariety.hirzebruch(3)
    divisor = ToricDivisorData((1, 1, 0, 0))
    metric = SingularMetricData([(1, Fraction(3, 2))])
    sys = SectionSystem(f3, divisor, metric=metric, degree_bound=24)
    assert sys.period() == 3
    assert sys.period(stride=2) == 3
    assert kappa_sigma(sys) == 2


def test_period_multiplies_determinant_and_weight_period():
    # floor(k * 3/2) has period 2, and 1 at even strides
    p1_sys = SectionSystem(P1, ToricDivisorData((0, 2)),
                           metric=SingularMetricData([(0, Fraction(3, 2))]))
    assert (p1_sys.period(), p1_sys.period(stride=2)) == (2, 1)
    # F2, weight 3/2 on ray (1, 0): the limit polytope has the vertex
    # (3/2, 5/4) on rays (1, 0) and (-1, 2), of determinant 2, and the
    # counts have its denominator 2 * 2 = 4 as period; read with
    # lcm(2, 2) = 2 no class is polynomial even at degree 80
    f2 = ToricVariety.hirzebruch(2)
    sys = SectionSystem(f2, ToricDivisorData((-1, -1, -1, 2)),
                        metric=SingularMetricData([(0, Fraction(3, 2))]),
                        degree_bound=24)
    assert sys.period() == 4
    counts = [sys.count(k) for k in range(1, 81)]
    assert growth_degree(counts, 4) == 2
    assert growth_degree(counts, 2) is None
    assert kappa_report(sys).kappa == 2


def test_period_ignores_weights_at_most_one():
    # P2, D = H, weight 3/4 on one ray: its coefficient is 0 at every
    # level, so the counts are the unweighted C(k + 2, 2), of period 1, and
    # are decided at every bound; a period of 4 left them undecided to 12
    p2 = ToricVariety.projective_space(2)
    divisor = ToricDivisorData((1, 0, 0))
    for bound in range(6, 13):
        plain = SectionSystem(p2, divisor, degree_bound=bound)
        weighted = SectionSystem(p2, divisor, degree_bound=bound,
                                 metric=SingularMetricData([(0, Fraction(3, 4))]))
        assert [weighted.count(k) for k in range(1, bound + 1)] == [
            comb(k + 2, 2) for k in range(1, bound + 1)]
        assert weighted.period() == plain.period() == 1
        assert weighted.growth() == plain.growth() == 2


def test_curve_counts_that_die_out_or_plateau():
    """One rule for every curve-side sequence: counts that die out have
    growth NEG_INF (not 0), and a plateau above 1 has growth 0 (not 1)."""
    assert growth_degree([6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0], 1) == NEG_INF
    assert growth_degree([2] * 12, 1) == 0
    assert growth_degree([1, 3, 5, 7, 9], 1) == 1

    g0 = CurveModel(0)
    # K_Y + L_Y of degree 1, one marked point of weight 5/2: the k-th ideal
    # drops floor(5k/2) - k + 1 points, so k(K_Y + L_Y) - ideal + 6 points
    # has degree 5 - floor(k/2) and the counts 6, 5, 5, 4, ... reach 0
    dying = CurveProductInstance(
        curve=g0, base_class=CurveDivisorClass.general(1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 1)),
        base_metric=SingularMetricData([("p", Fraction(5, 2))]), degree_bound=16)
    assert [dying.base_count(k, 6) for k in range(1, 7)] == [6, 5, 5, 4, 4, 3]
    assert dying.base_growth(extra_degree=6) == NEG_INF
    # a marked point of weight 3/2 gives curve-side counts of period 2;
    # the product counts read with that period
    marked = CurveProductInstance(
        curve=g0, base_class=CurveDivisorClass.general(2),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 1)),
        base_metric=SingularMetricData([("p", Fraction(3, 2))]), degree_bound=16)
    assert marked.base_period() == 2
    assert marked.product_period() == 2
    assert growth_degree(marked.product_counts(), 2) == 2
    assert marked.report.kappa == 2
    # K_Y + L_Y trivial on P1, perturbed by one point: h0 = 2 at every k
    flat = CurveProductInstance(
        curve=g0, base_class=CurveDivisorClass.general(0),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 1)),
        degree_bound=16)
    assert {flat.base_count(k, 1) for k in range(1, 17)} == {2}
    assert flat.base_growth(extra_degree=1) == 0
    assert kappa_sigma_curve(g0, CurveDivisorClass.general(0)) == 0
    assert kappa_curve(g0, CurveDivisorClass.general(1)) == 1
    assert kappa_curve(g0, CurveDivisorClass.canonical_multiple(g0, 1)) == NEG_INF
