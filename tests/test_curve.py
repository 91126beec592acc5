import pytest

from kodaira.curve import (
    AmbiguousDivisorError,
    CurveDivisorClass,
    CurveModel,
    h0,
    kappa_curve,
    kappa_sigma_curve,
)
from kodaira.lattice import NEG_INF
from kodaira.semigroup import DegreeBoundError


def test_canonical_h0_is_genus():
    c = CurveModel(2)
    assert h0(c, CurveDivisorClass.canonical_multiple(c, 1)) == 2
    c3 = CurveModel(3)
    assert h0(c3, CurveDivisorClass.canonical_multiple(c3, 1)) == 3


def test_pluricanonical_riemann_roch():
    c = CurveModel(2)
    assert h0(c, CurveDivisorClass.canonical_multiple(c, 3)) == 5  # (2*3-1)(g-1)
    # the two regimes agree at k = 2: (2k-1)(g-1) vs d - g + 1
    for g in (2, 3, 5):
        cg = CurveModel(g)
        cls = CurveDivisorClass.canonical_multiple(cg, 2)
        assert h0(cg, cls) == 3 * (g - 1)
        assert h0(cg, cls) == cls.degree - g + 1  # h^1 = 0 above 2g-2


def test_negative_degree():
    assert h0(CurveModel(3), CurveDivisorClass.general(-1)) == 0


def test_degree_zero():
    assert h0(CurveModel(2), CurveDivisorClass(0, 0)) == 1
    assert h0(CurveModel(2), CurveDivisorClass.general(0)) == 0
    assert h0(CurveModel(0), CurveDivisorClass.general(0)) == 1


def test_large_degree_riemann_roch():
    for g in (0, 1, 2, 4):
        c = CurveModel(g)
        d = 2 * g + 5
        assert h0(c, CurveDivisorClass.general(d)) == d - g + 1


def test_ambiguous_regime_rejected():
    with pytest.raises(AmbiguousDivisorError):
        h0(CurveModel(3), CurveDivisorClass.general(2))  # 0 < 2 <= 2g-2 = 4


def test_genus_one_canonical():
    c = CurveModel(1)
    for k in (1, 2, 7):
        assert h0(c, CurveDivisorClass.canonical_multiple(c, k)) == 1


def test_genus_zero_canonical():
    c = CurveModel(0)
    assert h0(c, CurveDivisorClass.canonical_multiple(c, 1)) == 0


def test_times_scales_the_multiple_of_k():
    for g in (0, 1, 2, 3):
        c = CurveModel(g)
        assert (CurveDivisorClass.canonical_multiple(c, 2).times(3)
                == CurveDivisorClass.canonical_multiple(c, 6))
    assert CurveDivisorClass.general(5).times(2) == CurveDivisorClass.general(10)
    assert CurveDivisorClass(0, 0).times(4) == CurveDivisorClass(0, 0)


def test_anticanonical_h0():
    # -K has negative degree on genus 2; on P^1 it is O(2), with 3 sections
    for g, expect in ((2, 0), (0, 3)):
        c = CurveModel(g)
        assert h0(c, CurveDivisorClass.canonical_multiple(c, -1)) == expect


def test_pluricanonical_h0_table():
    # h^0(kK), written out per case: deg kK = k(2g - 2)
    for g in range(6):
        c = CurveModel(g)
        for k in range(-4, 7):
            if k == 0:
                expect = 1  # the trivial class
            elif g == 1:
                expect = 1  # K is trivial on an elliptic curve
            elif g == 0:
                # kK = O(-2k) on P^1: -2k + 1 sections when -2k >= 0
                expect = -2 * k + 1 if k < 0 else 0
            elif k < 0:
                expect = 0  # negative degree
            elif k == 1:
                expect = g
            else:
                expect = (2 * k - 1) * (g - 1)  # degree above 2g - 2
            assert h0(c, CurveDivisorClass.canonical_multiple(c, k)) == expect, (g, k)


def test_kappa_general_type():
    for g in (2, 3):
        c = CurveModel(g)
        assert kappa_curve(c, CurveDivisorClass.canonical_multiple(c, 1)) == 1


def test_kappa_curve_needs_two_counts_to_certify_growth():
    # one count fixes no growth degree, so certified_growth refuses it
    c = CurveModel(2)
    with pytest.raises(DegreeBoundError, match="degree bound too small"):
        kappa_curve(c, CurveDivisorClass.canonical_multiple(c, 1), degree_bound=1)


def test_kappa_elliptic_and_rational():
    c1 = CurveModel(1)
    assert kappa_curve(c1, CurveDivisorClass(0, 0)) == 0
    assert kappa_curve(c1, CurveDivisorClass.canonical_multiple(c1, 1)) == 0
    c0 = CurveModel(0)
    assert kappa_curve(c0, CurveDivisorClass.canonical_multiple(c0, 1)) == NEG_INF


def test_kappa_sigma_curve_values():
    for g, expect in ((0, NEG_INF), (1, 0), (2, 1), (3, 1)):
        c = CurveModel(g)
        assert kappa_sigma_curve(c, CurveDivisorClass.canonical_multiple(c, 1)) == expect
    # trivial class has perturbed growth zero on any curve
    assert kappa_sigma_curve(CurveModel(2), CurveDivisorClass(0, 0)) == 0
