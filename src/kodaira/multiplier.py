"""Multiplier-ideal coefficients of metrics with SNC analytic singularities.

A metric is a list of (prime divisor id, weight mu >= 0) entries, one weight
per divisor; the prefactor and the divisor multiplicity only enter through
their product, so a single mu per divisor suffices.  The k-th ideal is cut
out by the coefficients c_k = max(floor(k*mu) - k + 1, 0); the max keeps
ideal coefficients nonnegative (a negative value would spuriously enlarge
section spaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .lattice import as_int


@dataclass(frozen=True)
class SingularMetricData:
    """Weights mu_j >= 0 indexed by prime-divisor ids (distinct)."""

    entries: tuple  # of (divisor_id, Fraction)

    def __init__(self, entries):
        norm = {}
        for div_id, mu in entries:
            mu = Fraction(mu)
            if mu < 0:
                raise ValueError("metric weight must be nonnegative")
            if div_id in norm:
                raise ValueError(f"duplicate divisor id {div_id!r}")
            norm[div_id] = mu
        object.__setattr__(self, "entries", tuple(norm.items()))

    def __bool__(self):
        return bool(self.entries)


EMPTY_METRIC = SingularMetricData(())


def multiplier_coeff(mu, k):
    """Coefficient of a prime divisor in the k-th multiplier ideal:
    max(floor(k*mu) - k + 1, 0)."""
    mu = Fraction(mu)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    k = as_int(k, "level")
    if k < 1:
        raise ValueError("level must be >= 1")
    return _coeff(mu.numerator, mu.denominator, k)


def _coeff(p, q, t):
    """multiplier_coeff(p/q, t) on integers, unchecked: max(floor(t p / q)
    - t + 1, 0)."""
    c = t * p // q - t + 1
    return c if c > 0 else 0


@dataclass
class SubadditivityReport:
    checked: int
    violations: list  # of (mu, k, l, c_k, c_l, c_kl)

    @property
    def ok(self):
        return not self.violations


def subadditivity_scan(mu_grid, k_max=100):
    """Verify c_{k+l} <= c_k + c_l for every mu in the grid, all k, l <= k_max.

    Violations are report content (with witnesses), not exceptions.
    """
    violations = []
    checked = 0
    for mu in mu_grid:
        mu = Fraction(mu)
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        p, q = mu.numerator, mu.denominator
        # multiplier_coeff(mu, k) for k = 1 .. 2 k_max, checked once per mu
        coeffs = [0] + [_coeff(p, q, k) for k in range(1, 2 * k_max + 1)]
        checked += sum(range(k_max + 1))  # the pairs 1 <= k <= l <= k_max
        violations += [(mu, k, l, coeffs[k], coeffs[l], coeffs[k + l])
                       for k, l in _violating_pairs(coeffs, k_max)]
    return SubadditivityReport(checked=checked, violations=violations)


def _violating_pairs(coeffs, k_max):
    """The pairs (k, l), 1 <= k <= l <= k_max, with coeffs[k + l] >
    coeffs[k] + coeffs[l], in order.  Each row k is tested at once by its
    largest difference coeffs[k + l] - coeffs[l] and walked pair by pair
    only when that exceeds coeffs[k]."""
    pairs = []
    for k in range(1, k_max + 1):
        ck = coeffs[k]
        if max(map(sub, coeffs[2 * k:k + k_max + 1], coeffs[k:k_max + 1])) > ck:
            pairs += [(k, l) for l in range(k, k_max + 1)
                      if coeffs[k + l] - coeffs[l] > ck]
    return pairs


def default_mu_grid(max_value=5, max_den=8):
    """All fractions p/q with 0 <= p/q <= max_value and 1 <= q <= max_den."""
    grid = set()
    for q in range(1, max_den + 1):
        for p in range(0, max_value * q + 1):
            grid.add(Fraction(p, q))
    return sorted(grid)
