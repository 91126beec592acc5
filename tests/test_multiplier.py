import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira.multiplier import (
    SingularMetricData,
    _coeff,
    _violating_pairs,
    default_mu_grid,
    multiplier_coeff,
    subadditivity_scan,
)
from kodaira.toric import ToricDivisorData, ToricVariety, limit_polytope

from _oracles import subadditivity_pairs_pairwise


def test_three_halves_instantiation():
    # direct instantiation of the SNC coefficient formula at mu = 3/2
    mu = Fraction(3, 2)
    assert multiplier_coeff(mu, 1) == 1
    assert multiplier_coeff(mu, 2) == 2
    assert multiplier_coeff(mu, 4) == 3


def test_mu_one_constant():
    for k in range(1, 50):
        assert multiplier_coeff(1, k) == 1


def test_integrable_weights_vanish():
    # mu < 1 clamps to zero at every level
    for mu in (0, Fraction(1, 2), Fraction(7, 8), Fraction(99, 100)):
        for k in range(1, 40):
            assert multiplier_coeff(mu, k) == 0


@settings(max_examples=300)
@given(st.integers(0, 60), st.integers(1, 12), st.integers(1, 80))
def test_coeff_matches_floor_formula(p, q, t):
    # the integer helper every caller shares, against the floor formula
    expected = max(math.floor(t * Fraction(p, q)) - t + 1, 0)
    assert _coeff(p, q, t) == expected
    assert multiplier_coeff(Fraction(p, q), t) == expected


def test_monotone_in_mu():
    for k in (1, 2, 3, 7, 20):
        vals = [multiplier_coeff(Fraction(p, 4), k) for p in range(0, 20)]
        assert vals == sorted(vals)


def coeff_limit(mu):
    """The normalized limit of the coefficients, lim c_k / k, as the shift
    of the weighted ray's bound in the limit polytope of P^1 (D = 0)."""
    q = limit_polytope(ToricVariety.projective_space(1), ToricDivisorData((0, 0)),
                       SingularMetricData([(0, mu)]))
    return Fraction(q.bounds[0], q.den)


def test_coeff_limit():
    assert coeff_limit(2) == 1
    assert coeff_limit(1) == 0
    assert coeff_limit(Fraction(1, 2)) == 0
    assert coeff_limit(Fraction(7, 3)) == Fraction(4, 3)


def test_limit_rate():
    # |c_k/k - limit| <= (1 + mu)/k for all k >= 1
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
               Fraction(2), Fraction(7, 3), Fraction(5)):
        gamma = coeff_limit(mu)
        for k in range(1, 120):
            ck = multiplier_coeff(mu, k)
            assert abs(Fraction(ck, k) - gamma) <= Fraction(1 + mu, k)


def test_subadditivity_worked_values():
    assert multiplier_coeff(1, 2) == 1 <= 2 * multiplier_coeff(1, 1)
    # mu = 2: c_k = k + 1, an identity in k and l
    for k in range(1, 10):
        assert multiplier_coeff(2, k) == k + 1
    # mu = 7/3, k = 2, l = 3
    mu = Fraction(7, 3)
    assert multiplier_coeff(mu, 5) == 7
    assert multiplier_coeff(mu, 2) == 3
    assert multiplier_coeff(mu, 3) == 5
    assert 7 <= 3 + 5


def test_scan_small_grid_clean():
    rep = subadditivity_scan([Fraction(p, 3) for p in range(0, 10)], k_max=30)
    assert rep.ok
    assert rep.checked == 10 * (30 * 31 // 2)


@st.composite
def planted_coefficients(draw):
    """(coefficient list of length 2 k_max + 1, k_max): the coefficients of
    a drawn weight, some of them raised to plant violations, lowered to
    plant them in other rows, or the unclamped ones, floor(k p / q) - k + 1
    without the max, which go negative for p < q."""
    k_max = draw(st.integers(0, 24))
    p, q = draw(st.integers(0, 30)), draw(st.integers(1, 6))
    clamp = draw(st.booleans())
    coeffs = [0] + [multiplier_coeff(Fraction(p, q), k) if clamp
                    else k * p // q - k + 1 for k in range(1, 2 * k_max + 1)]
    for _ in range(draw(st.integers(0, 4))) if k_max else ():
        j = draw(st.integers(1, 2 * k_max))
        coeffs[j] += draw(st.integers(-5, 5))
    return coeffs, k_max


@settings(max_examples=300)
@given(planted_coefficients())
def test_row_test_matches_pairwise_oracle(case):
    coeffs, k_max = case
    assert _violating_pairs(coeffs, k_max) == subadditivity_pairs_pairwise(
        coeffs, k_max)


def test_unclamped_breaks_subadditivity_rate():
    # the clamp matters: unclamped coefficients go negative for mu < 1
    assert 8 * 1 // 4 - 8 + 1 < 0 == multiplier_coeff(Fraction(1, 4), 8)


def test_metric_data_validation():
    with pytest.raises(ValueError):
        SingularMetricData([(0, Fraction(-1))])
    with pytest.raises(ValueError):
        SingularMetricData([(0, 1), (0, 2)])
    h = SingularMetricData([(1, Fraction(3, 2)), (0, 1)])
    assert h.entries == ((1, Fraction(3, 2)), (0, 1))
    assert not SingularMetricData(())


def test_default_grid():
    grid = default_mu_grid(max_value=2, max_den=3)
    assert Fraction(1, 3) in grid and Fraction(2) in grid
    assert all(0 <= g <= 2 for g in grid)
    assert grid == sorted(set(grid))
