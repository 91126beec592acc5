"""Falsification drills: deliberately broken inputs must surface failures.

The clamp on multiplier coefficients and the exact/empirical cross-checks
are load-bearing; these tests corrupt one of them and require the harness to
notice.  The clamp is corrupted by patching `kodaira.toric._coeff`, the
coefficient every degree piece reads, with the unclamped floor(t p / q) -
t + 1.
"""

from fractions import Fraction

import pytest

import kodaira.toric
from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import DegreeBoundError
from kodaira.toric import (
    CrossCheckError,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa_report,
    kappa_sigma,
)

P1 = ToricVariety.projective_space(1)


def unclamped_coeff(p, q, t):
    """The multiplier coefficient without its max: negative for p < q."""
    return t * p // q - t + 1


def falsified_system():
    # degree -1 bundle with two integrable weights; the true ideals are
    # trivial so every true section space is empty, but unclamped negative
    # coefficients spuriously enlarge the polytopes to width ~ k/2
    m = ToricDivisorData((0, -1))
    h = SingularMetricData([(0, Fraction(1, 4)), (1, Fraction(1, 4))])
    return m, h


def test_clamped_system_is_empty():
    m, h = falsified_system()
    sys = SectionSystem(P1, m, metric=h, degree_bound=20)
    assert kappa_report(sys).kappa == NEG_INF


def test_falsified_clamp_breaks_growth_chain(monkeypatch):
    m, h = falsified_system()
    true_sigma = kappa_sigma(SectionSystem(P1, m, h, degree_bound=20))
    assert true_sigma == NEG_INF
    monkeypatch.setattr(kodaira.toric, "_coeff", unclamped_coeff)
    fake = SectionSystem(P1, m, metric=h, degree_bound=20)
    fake_kappa = kappa_report(fake).kappa
    assert fake_kappa == 1  # spurious linear growth
    # the falsified value violates kappa <= kappa_sigma: the suite notices
    assert not fake_kappa <= true_sigma


def test_falsified_clamp_trips_sigma_cross_check(monkeypatch):
    m, h = falsified_system()
    monkeypatch.setattr(kodaira.toric, "_coeff", unclamped_coeff)
    with pytest.raises(CrossCheckError, match="numerical growth mismatch: "
                       "exact -inf, empirical 1"):
        kappa_sigma(SectionSystem(P1, m, h, degree_bound=20))


def test_underresolved_degree_bound_trips_kappa3():
    # a bound of 2 cannot resolve quadratic growth against the slope fit
    sys = SectionSystem(ToricVariety.projective_space(2),
                        ToricDivisorData((1, 1, 1)), degree_bound=2)
    with pytest.raises(DegreeBoundError, match="degree bound too small"):
        kappa_report(sys)
