import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.multiplier import (
    SingularMetricData,
    _coeff,
    _least_period,
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


@st.composite
def periodic_coefficients(draw):
    """(coefficient list of length 2 k_max + 1, k_max) whose increments
    coeffs[t + 1] - coeffs[t], t >= 1, repeat with a period of 1-9: the
    unclamped, subadditive coefficients floor(t p / q) - t + 1 of a weight
    p/q, or drawn increments.  Violations are planted past the first
    period: shifting a whole residue class keeps the period, moving single
    entries breaks it.  Some lists draw every increment afresh, so that
    most of them have no period short of k_max."""
    k_max = draw(st.integers(0, 60))
    period = draw(st.integers(1, 9))
    if draw(st.booleans()):
        p = draw(st.integers(0, 5 * period))
        coeffs = [0] + [t * p // period - t + 1 for t in range(1, 2 * k_max + 1)]
    else:
        if draw(st.booleans()):
            period = max(2 * k_max - 1, 1)
        steps = draw(st.lists(st.integers(-3, 3), min_size=period,
                              max_size=period))
        coeffs = [0, draw(st.integers(-3, 3))]
        for t in range(1, 2 * k_max):
            coeffs.append(coeffs[-1] + steps[(t - 1) % period])
        del coeffs[2 * k_max + 1:]
    if draw(st.booleans()):
        a, d = draw(st.integers(1, period)), draw(st.integers(-4, 4))
        for j in range(a, 2 * k_max + 1, period):
            coeffs[j] += d
    for _ in range(draw(st.integers(0, 2))) if 2 * k_max > period else ():
        j = draw(st.integers(period + 1, 2 * k_max))
        coeffs[j] += draw(st.integers(-4, 4))
    return coeffs, k_max


@settings(max_examples=300)
@given(periodic_coefficients())
@example(([0, 1, 2, 3, 4], 2))  # the least period is k_max - 1
def test_residue_pairs_match_pairwise_oracle(case):
    coeffs, k_max = case
    assert _violating_pairs(coeffs, k_max) == subadditivity_pairs_pairwise(
        coeffs, k_max)
    # the one-pass period is the least one the slices show
    steps = [b - a for a, b in zip(coeffs[1:], coeffs[2:])]
    assert _least_period(steps, k_max) == next(
        (p for p in range(1, k_max) if steps[p:] == steps[:-p]), k_max)


def test_default_grid_scan_scales_to_large_k_max():
    # every grid weight has increments of period at most 8, so the scan
    # makes O(k_max) comparisons per weight; all pairs are counted
    start = time.perf_counter()
    rep = subadditivity_scan(default_mu_grid(), k_max=3000)
    assert time.perf_counter() - start < 5
    assert rep.ok
    assert rep.checked == 111 * math.comb(3001, 2)


def test_float_weights_are_refused():
    # a float holds a binary approximation: 2.3 * 10 floors to 22, not 23,
    # and 0.1 is stored as 3602879701896397/36028797018963968
    for run in (lambda: multiplier_coeff(2.3, 10),
                lambda: SingularMetricData([(0, 0.1)]),
                lambda: subadditivity_scan([Fraction(1, 2), 1.5], k_max=4)):
        with pytest.raises(ValueError, match="got (2.3|0.1|1.5)$"):
            run()
    assert multiplier_coeff(Fraction(23, 10), 10) == 14
    assert multiplier_coeff("23/10", 10) == 14
    with pytest.raises(ValueError, match="^mu must be nonnegative$"):
        multiplier_coeff(-1, 3)
    with pytest.raises(ValueError, match="^mu must be nonnegative$"):
        subadditivity_scan([Fraction(-1, 2)], k_max=4)
    with pytest.raises(ValueError,
                       match="^metric weight must be nonnegative$"):
        SingularMetricData([(0, Fraction(-1))])


def test_scan_that_checks_no_pair_is_refused():
    # a report that is ok with nothing checked would pass vacuously
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="^k_max must be >= 1$"):
            subadditivity_scan(["1/2"], k_max=k_max)
    with pytest.raises(ValueError, match="^mu_grid must be nonempty$"):
        subadditivity_scan([], k_max=4)
    with pytest.raises(ValueError, match="^k_max must be an integer"):
        subadditivity_scan(["1/2"], k_max=2.0)
    assert subadditivity_scan(["1/2"], k_max=1).checked == 1


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
