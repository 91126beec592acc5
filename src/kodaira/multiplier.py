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
            mu = _weight(mu, "metric weight")
            if div_id in norm:
                raise ValueError(f"duplicate divisor id {div_id!r}")
            norm[div_id] = mu
        object.__setattr__(self, "entries", tuple(norm.items()))

    def __bool__(self):
        return bool(self.entries)


EMPTY_METRIC = SingularMetricData(())


def _weight(mu, name):
    """mu as a nonnegative Fraction; ValueError naming a float, which holds
    only a binary approximation of the weight meant (0.1 is not 1/10)."""
    if isinstance(mu, float):
        raise ValueError(f"{name} must be exact (an int, a Fraction or a "
                         f"'p/q' string), got {mu!r}")
    mu = Fraction(mu)
    if mu < 0:
        raise ValueError(f"{name} must be nonnegative")
    return mu


def multiplier_coeff(mu, k):
    """Coefficient of a prime divisor in the k-th multiplier ideal:
    max(floor(k*mu) - k + 1, 0)."""
    mu = _weight(mu, "mu")
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

    Violations are report content (with witnesses), not exceptions; a scan
    that would check no pair (k_max < 1 or an empty grid) is a ValueError.
    """
    k_max = as_int(k_max, "k_max")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    mu_grid = list(mu_grid)
    if not mu_grid:
        raise ValueError("mu_grid must be nonempty")
    violations = []
    checked = 0
    for mu in mu_grid:
        mu = _weight(mu, "mu")
        p, q = mu.numerator, mu.denominator
        # multiplier_coeff(mu, k) for k = 1 .. 2 k_max, checked once per mu
        coeffs = [0] + [_coeff(p, q, k) for k in range(1, 2 * k_max + 1)]
        checked += sum(range(k_max + 1))  # the pairs 1 <= k <= l <= k_max
        violations += [(mu, k, l, coeffs[k], coeffs[l], coeffs[k + l])
                       for k, l in _violating_pairs(coeffs, k_max)]
    return SubadditivityReport(checked=checked, violations=violations)


def _violating_pairs(coeffs, k_max):
    """The pairs (k, l), 1 <= k <= l <= k_max, with coeffs[k + l] >
    coeffs[k] + coeffs[l], in order.

    P is the least period p < k_max of the increments coeffs[t + 1] -
    coeffs[t], t >= 1, read off the list itself (k_max when there is none).
    Then coeffs[t + P] - coeffs[t] is one constant for every t >= 1, so the
    excess coeffs[k + l] - coeffs[k] - coeffs[l] depends only on k and l
    mod P, and the residue pairs 1 <= a <= b <= P, themselves pairs of the
    scan, decide every pair.  The rows of all k_max are tested, and the
    violating ones walked pair by pair, only when a row of the P x P block
    violates; at P = k_max that block is the whole scan.  A weight's
    coefficients have P at most its denominator."""
    period = _least_period(list(map(sub, coeffs[2:], coeffs[1:])), k_max)
    rows = _violating_rows(coeffs, period)
    if rows and period < k_max:
        rows = _violating_rows(coeffs, k_max)
    return [(k, l) for k in rows for l in range(k, k_max + 1)
            if coeffs[k + l] - coeffs[l] > coeffs[k]]


def _least_period(seq, bound):
    """The least p < bound with seq[p:] == seq[:-p], or bound, in one pass
    (the prefix function of Knuth, Morris and Pratt): j is the longest
    proper border of seq[:i + 1], whose least period i + 1 - j never
    decreases with i, so the pass stops once that reaches bound."""
    border = [0] * len(seq)
    j = 0
    for i in range(1, len(seq)):
        x = seq[i]
        while j and x != seq[j]:
            j = border[j - 1]
        if x == seq[j]:
            j += 1
        border[i] = j
        if i + 1 - j >= bound:
            return bound
    return min(len(seq) - j, bound)


def _violating_rows(coeffs, n):
    """The rows k <= n with a pair (k, l), k <= l <= n, that violates; each
    row is tested at once by its largest difference coeffs[k + l] -
    coeffs[l]."""
    return [k for k in range(1, n + 1)
            if max(map(sub, coeffs[2 * k:k + n + 1], coeffs[k:n + 1])) > coeffs[k]]


def default_mu_grid(max_value=5, max_den=8):
    """All fractions p/q with 0 <= p/q <= max_value and 1 <= q <= max_den."""
    grid = set()
    for q in range(1, max_den + 1):
        for p in range(0, max_value * q + 1):
            grid.add(Fraction(p, q))
    return sorted(grid)
