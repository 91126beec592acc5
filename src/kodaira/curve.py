"""Abstract smooth projective curves with exact section counts.

Curves are only a genus and divisor classes only a degree, plus k when the
class is kK (a general class of its degree otherwise).  h^0 is Riemann-Roch:
exact for every kK and for a general class outside 0 < d <= 2g-2, and
anything else is rejected rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import as_int


class AmbiguousDivisorError(ValueError):
    """h^0 is not determined by genus and degree in this regime."""


@dataclass(frozen=True)
class CurveModel:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be >= 0")


@dataclass(frozen=True)
class CurveDivisorClass:
    """Divisor class on an abstract curve: its degree, and `multiple` = k
    when it is kK, None for a general class of that degree."""

    degree: int
    multiple: int | None = None

    @classmethod
    def general(cls, degree):
        return cls(as_int(degree, "degree"))

    @classmethod
    def canonical_multiple(cls, curve, k):
        k = as_int(k, "multiple")
        return cls(k * (2 * curve.genus - 2), k)

    def times(self, k):
        k = as_int(k, "multiple")
        return CurveDivisorClass(
            k * self.degree, None if self.multiple is None else k * self.multiple)


def h0(curve, cls):
    """Exact h^0 by Riemann-Roch.

    0K, and kK on a genus-1 curve, are trivial: 1.  K has g sections.  Any
    other class is read off its degree d: 0 below 0; at 0, 1 on P^1 and 0 on
    a higher genus (a general class is nontrivial); d - g + 1 above 2g-2
    ((2k-1)(g-1) for kK, k >= 2).  A general class with 0 < d <= 2g-2
    raises AmbiguousDivisorError.
    """
    g, d, k = curve.genus, cls.degree, cls.multiple
    if k == 0 or (g == 1 and k is not None):
        return 1
    if k == 1:
        return g
    if d < 0:
        return 0
    if d == 0:
        return 1 if g == 0 else 0
    if d > 2 * g - 2:
        return d - g + 1
    raise AmbiguousDivisorError("h0 not determined by degree")

