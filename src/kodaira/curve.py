"""Abstract smooth projective curves with exact section counts.

Curves are only a genus: in the regimes the harness uses, h^0 is determined
by (genus, degree, class kind) through Riemann-Roch, and anything else is
rejected rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .toric import certified_growth


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
    """Divisor class on an abstract curve.

    kind: "general", "trivial", "canonical_multiple" (degree k(2g-2), with
    `multiple` = k), or "marked_points" with entries ((point_id, mult), ...).
    """

    degree: int
    kind: str = "general"
    multiple: int = 0
    points: tuple = ()

    @classmethod
    def general(cls, degree):
        return cls(degree=int(degree), kind="general")

    @classmethod
    def trivial(cls):
        return cls(degree=0, kind="trivial")

    @classmethod
    def canonical_multiple(cls, curve, k):
        return cls(degree=k * (2 * curve.genus - 2), kind="canonical_multiple",
                   multiple=int(k))

    @classmethod
    def marked_points(cls, entries):
        entries = tuple((pid, int(m)) for pid, m in entries)
        return cls(degree=sum(m for _, m in entries), kind="marked_points",
                   points=entries)

    def is_trivial_class(self):
        if self.kind == "trivial":
            return True
        if self.kind == "canonical_multiple" and self.multiple == 0:
            return True
        if self.kind == "marked_points" and all(m == 0 for _, m in self.points):
            return True
        return False

    def times(self, k):
        """The k-th multiple, staying within the kind taxonomy."""
        k = int(k)
        if self.kind == "canonical_multiple":
            return CurveDivisorClass(degree=k * self.degree // max(self.multiple, 1)
                                     if self.multiple else 0,
                                     kind="canonical_multiple",
                                     multiple=k * self.multiple)
        if self.kind == "marked_points":
            return CurveDivisorClass.marked_points(
                [(pid, k * m) for pid, m in self.points])
        if self.kind == "trivial":
            return self
        return CurveDivisorClass.general(k * self.degree)


def h0(curve, cls):
    """Exact h^0 in the unambiguous regimes.

    degree < 0 gives 0; degree 0 gives 1 for the trivial class and 0 for a
    nontrivial one (genus 0 has only trivial degree-0 classes); degree above
    2g-2 is pure Riemann-Roch; canonical multiples are exact at every k.
    Anything else raises AmbiguousDivisorError.
    """
    g = curve.genus
    d = cls.degree

    if cls.kind == "canonical_multiple":
        k = cls.multiple
        if k == 0:
            return 1
        if g == 0:
            return 0  # degree -2k < 0
        if g == 1:
            return 1  # trivial class
        if k == 1:
            return g
        return (2 * k - 1) * (g - 1)

    if d < 0:
        return 0
    if d == 0:
        if cls.is_trivial_class() or g == 0:
            return 1
        return 0
    if d > 2 * g - 2:
        return d - g + 1
    raise AmbiguousDivisorError("h0 not determined by degree")


def kappa_curve(curve, cls, degree_bound=24):
    """Section growth order of multiples of the class: the growth degree of
    the counts (period 1: the degree of k*cls is linear in k), so NEG_INF when
    they die out, 0 for a plateau at any height, 1 for linear growth."""
    return certified_growth(
        [h0(curve, cls.times(k)) for k in range(1, degree_bound + 1)], 1)


def kappa_sigma_curve(curve, cls, degree_bound=24):
    """Perturbed growth order: counts of k*cls + (general divisor of degree
    2g+1, so every populated count sits in the Riemann-Roch regime).

    Differs from kappa_curve exactly where the perturbation keeps a section
    alive: the numerical dimension of a curve class.
    """
    p = 2 * curve.genus + 1
    return certified_growth(
        [h0(curve, CurveDivisorClass.general(cls.times(k).degree + p))
         for k in range(1, degree_bound + 1)], 1)
