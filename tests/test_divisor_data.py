"""Differential tests of `ToricDivisorData`'s integer numerators over k0.

Each divisor is compared with `FractionDivisor`, the Fraction record it
replaced (`_oracles`): its coefficients, k0, integrality, scaling by ints and
Fractions and sums; the pullback and restriction of product and Hirzebruch
fibrations; the degree-piece bounds of `SectionSystem` and the bounds of
`limit_polytope`; and `is_ample` against the Cramer's-rule test.  Equal
divisors must compare and hash equal whichever route built them, and a
divisor with other than one coefficient per ray is refused by name.
"""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira.fibration import (
    ToricFibrationInstance,
    hirzebruch_fibration,
    product_fibration,
)
from kodaira.multiplier import SingularMetricData
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    is_ample,
    kappa_sigma,
    limit_polytope,
)

from _oracles import (
    FractionDivisor,
    rational_pairs,
    rational_polytope,
    divisor_bounds_reference,
    is_ample_cramer,
    limit_bounds_reference,
    pullback_reference,
    ray_fractions,
    restrict_reference,
)

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
F1, F2 = ToricVariety.hirzebruch(1), ToricVariety.hirzebruch(2)
VARIETIES = [P1, P2, ToricVariety.product(P1, P1), F2, ToricVariety.product(F2, P1)]
FIBRATIONS = ([product_fibration(f, b) for f, b in
               ((P1, P1), (P1, P2), (P2, P1), (P1, F2), (F1, P1))]
              + [hirzebruch_fibration(a) for a in range(4)])


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def coefficients(n):
    return st.lists(rationals(), min_size=n, max_size=n)


def assert_matches(divisor, reference):
    assert ray_fractions(divisor) == reference.coefficients
    assert divisor.k0 == reference.k0
    assert divisor.is_integral() == reference.is_integral()
    assert divisor.nums == tuple(int(c * divisor.k0) for c in reference.coefficients)
    assert gcd(divisor.k0, *divisor.nums) == 1


@settings(max_examples=150)
@given(st.integers(1, 6).flatmap(coefficients), st.data())
def test_arithmetic_matches_fraction_reference(coeffs, data):
    d, ref = ToricDivisorData(coeffs), FractionDivisor(coeffs)
    assert_matches(d, ref)
    t = data.draw(st.one_of(st.integers(-3, 3), rationals()))
    assert_matches(d.scale(t), ref.scale(t))
    other = data.draw(coefficients(len(coeffs)))
    assert_matches(d.add(ToricDivisorData(other)), ref.add(FractionDivisor(other)))


@settings(max_examples=150)
@given(st.integers(1, 6).flatmap(coefficients), st.integers(1, 6))
def test_equal_divisors_compare_and_hash_equal(coeffs, m):
    d = ToricDivisorData(coeffs)
    routes = [
        ToricDivisorData(tuple(coeffs)),
        ToricDivisorData([str(c) for c in coeffs]),
        ToricDivisorData.over([m * n for n in d.nums], m * d.k0),
        d.scale(m).scale(Fraction(1, m)),
        d.scale(Fraction(1, m)).scale(m),
        d.add(d).scale(Fraction(1, 2)),
        d.add(ToricDivisorData([0] * len(coeffs))),
        d.scale(-1).scale(-1),
    ]
    if d.is_integral():
        routes.append(ToricDivisorData([int(c) for c in coeffs]))
    for e in routes:
        assert (e.nums, e.k0) == (d.nums, d.k0)
        assert e == d and hash(e) == hash(d)
    assert len({d, *routes}) == 1
    if any(coeffs):
        assert d.scale(2) != d


def test_integral_constructors_match_reference():
    for x in VARIETIES:
        n = len(x.rays)
        assert ToricDivisorData.canonical(x) == ToricDivisorData([-1] * n)
        for rays in ((), (0,), tuple(range(n))):
            assert (ToricDivisorData.boundary_subset(x, rays)
                    == ToricDivisorData([int(i in rays) for i in range(n)]))


@settings(max_examples=150)
@given(st.sampled_from(FIBRATIONS), st.data())
def test_pullback_and_restriction_match_reference(fib, data):
    base = data.draw(coefficients(len(fib.base.rays)))
    pulled = fib.pullback_divisor(ToricDivisorData(base))
    assert_matches(pulled, pullback_reference(fib, FractionDivisor(base)))
    total = data.draw(coefficients(len(fib.total.rays)))
    restricted = fib.restrict_divisor(ToricDivisorData(total))
    ref = restrict_reference(fib, FractionDivisor(total))
    assert_matches(restricted, ref)
    assert restricted == ToricDivisorData(ref.coefficients)


def polytope(variety, bounds):
    return rational_polytope(variety.lattice_rank, list(zip(variety.rays, bounds)))


@settings(max_examples=150)
@given(st.sampled_from(VARIETIES), st.data())
def test_polytope_bounds_match_reference(x, data):
    coeffs = data.draw(coefficients(len(x.rays)))
    d, ref = ToricDivisorData(coeffs), FractionDivisor(coeffs)
    k = data.draw(st.one_of(st.integers(1, 6),
                            st.integers(1, 3).map(lambda m: m * d.k0)))
    # k D is integral exactly at the system's degrees, the multiples of k0
    bounds = divisor_bounds_reference(ref, k)
    assert (bounds is None) == (k % d.k0 != 0)
    if bounds is not None:
        assert SectionSystem(x, d)._piece(k // d.k0)[1] == bounds
    weights = data.draw(st.dictionaries(
        st.integers(0, len(x.rays) - 1),
        st.fractions(min_value=0, max_value=4, max_denominator=4)))
    metric = SingularMetricData(weights.items()) if weights else None
    assert (rational_pairs(limit_polytope(x, d, metric))
            == rational_pairs(polytope(x, limit_bounds_reference(x, ref, metric))))


@settings(max_examples=150)
@given(st.sampled_from(VARIETIES), st.data())
def test_is_ample_matches_reference(x, data):
    coeffs = data.draw(st.lists(st.one_of(st.integers(-1, 3), rationals()),
                                min_size=len(x.rays), max_size=len(x.rays)))
    d = ToricDivisorData(coeffs)
    assert is_ample(x, d) == is_ample_cramer(x, FractionDivisor(coeffs))


P2_SYSTEM = SectionSystem(P2, ToricDivisorData((1, 0, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: SectionSystem(P2, ToricDivisorData((1, 1))),
     "divisor has 2 coefficients, P2 has 3 rays"),
    # a fourth coefficient was once dropped: counts 15, 21, 28 at degrees 1-3
    (lambda: P2_SYSTEM.twist(ToricDivisorData((1, 1, 1, 1))).count(1),
     "aux has 4 coefficients, P2 has 3 rays"),
    (lambda: P2_SYSTEM.twist(ToricDivisorData((1, 1))).count(1),
     "aux has 2 coefficients, P2 has 3 rays"),
    (lambda: is_ample(P2, ToricDivisorData((1, 1, 1, 1))),
     "divisor has 4 coefficients, P2 has 3 rays"),
    (lambda: is_ample(P2, ToricDivisorData((Fraction(1, 2),) * 4)),
     "divisor has 4 coefficients, P2 has 3 rays"),
    (lambda: kappa_sigma(P2_SYSTEM, ample=ToricDivisorData((1, 1))),
     "divisor has 2 coefficients, P2 has 3 rays"),
    (lambda: ToricFibrationInstance(
        product_fibration(P1, P1), ToricDivisorData((1, 1, 1))).invariants(),
     "divisor has 3 coefficients, P1xP1 has 4 rays"),
], ids=["system", "twist-long", "twist-short", "is_ample", "is_ample-rational",
        "kappa_sigma-ample", "fibration-instance"])
def test_coefficient_count_must_match_the_rays(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
