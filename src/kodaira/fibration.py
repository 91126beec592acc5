"""Fiber-space instances and the inequality checks run on them.

Three instance shapes: toric products (projection to the second factor),
Hirzebruch surfaces over the line (first-coordinate projection), and curve
times toric (projection to the curve).  Torus-invariant and split data
restrict verbatim to every fiber over the open locus, so "sufficiently
general fiber" never needs sampling: restriction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import lcm

from .curve import (
    CurveDivisorClass,
    CurveModel,
    h0 as curve_h0,
)
from .lattice import NEG_INF, dot, int_kernel
from .multiplier import EMPTY_METRIC, SingularMetricData, _coeff
from .semigroup import DegreeBoundError
from .toric import (
    CrossCheckError,
    DEFAULT_DEGREE_BOUND,
    PERTURBATION_MULTIPLES,
    KappaValues,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    certified_growth,
    cross_check,
    growth_degree,
    kappa_report,
    kappa_sigma,
    kappa_sigma_hor,
)


# ---------------------------------------------------------------------------
# toric fibrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricFibration:
    """Toric morphism data: which rays are vertical (fiber direction) and how
    base rays pull back (multiplicity one in all models here).  The keys of
    fiber_ray_of_vertical are the vertical rays, in increasing order."""

    total: ToricVariety
    base: ToricVariety
    fiber: ToricVariety
    pullback_rays: tuple          # pullback_rays[b] = total ray index of base ray b
    fiber_ray_of_vertical: dict   # vertical total ray index -> fiber ray index

    def pullback_divisor(self, base_divisor):
        nums = [0] * len(self.total.rays)
        for b, i in enumerate(self.pullback_rays):
            nums[i] = base_divisor.nums[b]
        return ToricDivisorData.over(nums, base_divisor.k0)

    def restrict_divisor(self, divisor):
        nums = [0] * len(self.fiber.rays)
        for i, j in self.fiber_ray_of_vertical.items():
            nums[j] = divisor.nums[i]
        return ToricDivisorData.over(nums, divisor.k0)

    def restrict_metric(self, metric):
        return SingularMetricData([(self.fiber_ray_of_vertical[i], mu)
                                   for i, mu in (metric.entries if metric else ())
                                   if i in self.fiber_ray_of_vertical])


def product_fibration(fiber_variety, base_variety):
    """X = F x Y with the projection onto Y; fiber-factor rays come first."""
    total = ToricVariety.product(fiber_variety, base_variety)
    nf = len(fiber_variety.rays)
    pullback = tuple(nf + b for b in range(len(base_variety.rays)))
    return ToricFibration(
        total=total, base=base_variety, fiber=fiber_variety,
        pullback_rays=pullback, fiber_ray_of_vertical={i: i for i in range(nf)})


def hirzebruch_fibration(a):
    """F_a -> P1 by the first coordinate; vertical rays are (0, +-1)."""
    total = ToricVariety.hirzebruch(a)
    base = ToricVariety.projective_space(1)
    fiber = ToricVariety.projective_space(1)
    # total rays: (1,0), (0,1), (-1,a), (0,-1); base rays: (1,), (-1,)
    return ToricFibration(
        total=total, base=base, fiber=fiber,
        pullback_rays=(0, 2), fiber_ray_of_vertical={1: 0, 3: 1})


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------
#
# An instance is the only record of its growth invariants.  Each is computed
# on first read and kept (cached_property) for all verdicts and the CLI
# summary: report (the total-space kappa triple), kappa_sigma,
# kappa_sigma_hor and the (kappa, kappa_sigma) pairs fiber and base.
# `invariants()` reads the five in that order for `run_check`, before any
# verdict, and for the summary, so the order of the reads, which fixes the
# first error raised, is the same for every check list.  Every fiber count
# reads one kept aux-free general-fiber system, `fiber_system`, or a twist
# of it; every perturbed count reads a twist of the system it perturbs,
# memoised per auxiliary divisor alone, so the stride values count on the
# twists the instance's kappa_sigma made.  A part that raises is not kept.
# Nothing kept refers back to the instance, so dropping it frees it.  Do
# not change an instance after its first read.

class _FiberSpace:
    """What both instance shapes share: the general fiber's section system,
    its growth report and its invariants, read off fiber_data() (fiber
    model, restricted divisor, restricted metric; torus-invariant and split
    data restrict identically to every fiber over the open orbit), and the
    read order of the invariants.  A curve product's perturbed counts read
    the twists of fiber_system that the fiber's kappa_sigma made."""

    def invariants(self):
        """(report, kappa_sigma, kappa_sigma_hor, fiber, base), in order."""
        return (self.report, self.kappa_sigma, self.kappa_sigma_hor,
                self.fiber, self.base)

    @cached_property
    def fiber_system(self):
        """The aux-free SectionSystem of the general fiber."""
        fiber, divisor, metric = self.fiber_data()
        return SectionSystem(fiber, divisor, metric, degree_bound=self.degree_bound)

    @cached_property
    def fiber_report(self):
        return kappa_report(self.fiber_system)

    @cached_property
    def fiber(self):
        """(kappa, kappa_sigma) of the general fiber."""
        return self.fiber_report.kappa, kappa_sigma(self.fiber_system)


@dataclass
class ToricFibrationInstance(_FiberSpace):
    """Fibration with torus-invariant data: either log divisors (reduced
    boundary subsets with f* D_Y inside D_X) or a metric, never both."""

    fibration: ToricFibration
    divisor: ToricDivisorData | None = None      # M = K_X + L, metric flavor
    metric: SingularMetricData | None = None
    dx_rays: frozenset = frozenset()             # log flavor
    dy_rays: frozenset = frozenset()
    degree_bound: int = DEFAULT_DEGREE_BOUND

    def __post_init__(self):
        if self.metric is not None and (self.dx_rays or self.dy_rays):
            raise ValueError("metric and log divisors are mutually exclusive")
        fib = self.fibration
        for rays, fan in ((self.dx_rays, fib.total), (self.dy_rays, fib.base)):
            if bad := sorted(set(rays).difference(range(len(fan.rays)))):
                raise ValueError(f"log ray indices {bad} name no ray of {fan.name}")
        for b in self.dy_rays:
            if fib.pullback_rays[b] not in self.dx_rays:
                raise ValueError("pullback of D_Y is not contained in D_X")

    @property
    def is_log(self):
        return self.divisor is None

    @property
    def default_checks(self):
        flavor = ["spc", "spck"] if self.is_log else ["112", "112k"]
        return flavor + ["chain", "upper"]

    @cached_property
    def total_divisor(self):
        if self.divisor is not None:
            return self.divisor
        kx = ToricDivisorData.canonical(self.fibration.total)
        return kx.add(ToricDivisorData.boundary_subset(
            self.fibration.total, self.dx_rays))

    @cached_property
    def base_divisor(self):
        ky = ToricDivisorData.canonical(self.fibration.base)
        if self.is_log:
            return ky.add(ToricDivisorData.boundary_subset(
                self.fibration.base, self.dy_rays))
        return ky

    @property
    def dim_base(self):
        return self.fibration.base.lattice_rank

    def fiber_data(self):
        fib = self.fibration
        return (fib.fiber, fib.restrict_divisor(self.total_divisor),
                fib.restrict_metric(self.metric))

    @cached_property
    def system(self):
        """The total-space SectionSystem."""
        return SectionSystem(self.fibration.total, self.total_divisor,
                             metric=self.metric, degree_bound=self.degree_bound)

    @cached_property
    def report(self):
        return kappa_report(self.system)

    @cached_property
    def kappa_sigma(self):
        return kappa_sigma(self.system)

    @cached_property
    def kappa_sigma_hor(self):
        return kappa_sigma_hor(self.system, self.fibration)

    @cached_property
    def base(self):
        """(kappa, kappa_sigma) of the base with its log or canonical divisor."""
        sys = SectionSystem(self.fibration.base, self.base_divisor,
                            degree_bound=self.degree_bound)
        return kappa_report(sys).kappa, kappa_sigma(sys)

    least_twist_degree = 1

    def base_twist(self, degree):
        """The addti twist: degree times the base's standard ample."""
        return self.fibration.base.standard_ample.scale(degree)

    def addti_counts(self, base_twist):
        """(h^0 of the degree-1 system twisted by f^* base_twist, h^0 of the
        base twist, fiber section count at degree 1)."""
        fib = self.fibration
        lhs = self.system.twist(fib.pullback_divisor(base_twist)).count(1)
        base_h0 = SectionSystem(fib.base, base_twist, degree_bound=1).count(1)
        return lhs, base_h0, self.fiber_system.count(1)


@dataclass
class CurveProductInstance(_FiberSpace):
    """X = Y x F for a curve Y and a toric fiber F, projected to Y.

    base_class is the curve part of K_X + L (so K_Y + L_Y); the metric splits
    into marked curve points and torus-invariant fiber weights."""

    curve: CurveModel
    base_class: CurveDivisorClass
    fiber_variety: ToricVariety
    fiber_divisor: ToricDivisorData
    base_metric: SingularMetricData = EMPTY_METRIC  # ids: curve point names
    fiber_metric: SingularMetricData = EMPTY_METRIC
    degree_bound: int = DEFAULT_DEGREE_BOUND

    dim_base = 1
    is_log = False  # metric flavor only

    @property
    def default_checks(self):
        dio = ["dio"] if self.curve.genus >= 2 else []
        return ["112", "112k", "chain", "upper"] + dio

    # -- curve-side counts --------------------------------------------------

    def base_class_at(self, k, extra_degree=0):
        """k(K_Y + L_Y) - (metric ideal) + extra, as a curve class; a marked
        point of weight p/q drops multiplier_coeff(p/q, k)."""
        mult = self.base_class.times(k)
        drop = sum(_coeff(mu.numerator, mu.denominator, k)
                   for _, mu in self.base_metric.entries)
        if drop == 0 and extra_degree == 0:
            return mult
        return CurveDivisorClass.general(mult.degree - drop + extra_degree)

    def base_count(self, k, extra_degree=0):
        return curve_h0(self.curve, self.base_class_at(k, extra_degree))

    def base_growth(self, extra_degree=0):
        """Growth degree of the curve-side counts; the metric ideal has the
        period of floor(k mu), the denominator of mu."""
        return certified_growth(
            [self.base_count(k, extra_degree)
             for k in range(1, self.degree_bound + 1)], self.base_period())

    def base_period(self):
        return lcm(1, *(mu.denominator for _, mu in self.base_metric.entries))

    # -- fiber side and products --------------------------------------------

    def fiber_data(self):
        return self.fiber_variety, self.fiber_divisor, self.fiber_metric

    def product_period(self):
        """The lcm of the curve-side and fiber periods."""
        return lcm(self.base_period(), self.fiber_system.period())

    def product_counts(self, base_extra=0, fiber_aux=None):
        """Curve-side counts times the fiber's, twisted by fiber_aux if given."""
        sys = self.fiber_system.twist(fiber_aux)
        return [self.base_count(k, base_extra) * sys.count(k)
                for k in range(1, self.degree_bound + 1)]

    # -- invariants ---------------------------------------------------------

    @cached_property
    def report(self):
        """The growth order of the split section counts as the kappa triple:
        the sum of the factor orders, held by cross_check to the growth degree
        of the product counts, which one populated degree cannot fix."""
        counts = self.product_counts()
        populated = sum(c > 0 for c in counts)
        k = NEG_INF
        if populated:
            k = cross_check(
                self.base_growth() + self.fiber_report.kappa,
                [growth_degree(counts, self.product_period())],
                "product growth mismatch: sum route {exact}, slope route {empirical}",
                populated == 1, "product growth not estimable")
        return KappaValues(k, k, k, None)

    @cached_property
    def kappa_sigma(self):
        """Perturbed growth with both factors fattened (ample on Y times
        ample on F)."""
        return self._perturbed_kappa(horizontal_only=False)

    @cached_property
    def kappa_sigma_hor(self):
        """Perturbed growth with just the curve side fattened (pullback
        perturbations)."""
        return self._perturbed_kappa(horizontal_only=True)

    def _perturbed_kappa(self, horizontal_only):
        """Every determinable multiple of the perturbation must give the
        sum of the factor orders."""
        p = 2 * self.curve.genus + 1
        base_part = self.base_growth(extra_degree=p)
        fiber_k, fiber_sigma = self.fiber
        exact = base_part + (fiber_k if horizontal_only else fiber_sigma)
        amp = self.fiber_variety.standard_ample
        period = self.product_period()
        return cross_check(
            exact,
            [growth_degree(self.product_counts(
                base_extra=m * p,
                fiber_aux=None if horizontal_only else amp.scale(m)), period)
             for m in PERTURBATION_MULTIPLES],
            "product perturbed growth mismatch: {exact} vs {empirical}",
            exact == NEG_INF, "perturbed product growth not estimable")

    @cached_property
    def base(self):
        """(kappa, kappa_sigma) of K_Y off a throwaway copy with no metric;
        base_growth reads only curve, degree_bound and the two fields set."""
        ky = replace(self, base_metric=EMPTY_METRIC,
                     base_class=CurveDivisorClass.canonical_multiple(self.curve, 1))
        return ky.base_growth(), ky.base_growth(2 * self.curve.genus + 1)

    @property
    def least_twist_degree(self):
        """2g - 1: from this degree on, h^0 of a curve class is its degree
        minus g plus 1 (Riemann-Roch without the special term)."""
        return 2 * self.curve.genus - 1

    def base_twist(self, degree):
        """The addti twist: a curve class of the given degree."""
        return CurveDivisorClass.general(degree)

    def addti_counts(self, base_twist):
        """(h^0 of the degree-1 product twisted by base_twist on the curve,
        h^0 of the base twist, fiber section count at degree 1)."""
        base = self.base_count(1, extra_degree=base_twist.degree)
        rank = self.fiber_system.count(1)
        return base * rank, curve_h0(self.curve, base_twist), rank


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class InequalityVerdict:
    check_id: str
    lhs: float
    rhs_terms: tuple  # of (label, value)
    holds: bool
    vacuous: bool = False
    combine: str = "sum"  # rhs aggregation: "sum", "product", or "chain"


def _verdict(check_id, lhs, rhs_terms, equality=False):
    rhs = sum(v for _, v in rhs_terms)
    vacuous = rhs == NEG_INF and not equality
    holds = (lhs == rhs) if equality else (lhs >= rhs)
    return InequalityVerdict(check_id, lhs, tuple(rhs_terms), holds, vacuous)


def _require(inst, check):
    """ValueError unless the check applies to the instance."""
    toric = isinstance(inst, ToricFibrationInstance)
    if check in ("spc", "spck") and not inst.is_log:
        raise ValueError(f"check {check} needs a log instance")
    if check in ("112", "112k") and inst.is_log:
        raise ValueError(f"check {check} needs a metric instance")
    if check in ("iitaka", "simple") and not toric:
        raise ValueError(f"check {check} needs a toric instance")
    if check == "dio" and toric:
        raise ValueError("dio equality needs a curve times toric instance")
    if check == "dio" and inst.curve.genus < 2:
        raise ValueError("dio equality needs a general-type base (genus >= 2)")


def verify_subadditivity(inst, which):
    """Checks spc / spck (log flavor) and 112 / 112k (metric flavor)."""
    if which not in ("spc", "spck", "112", "112k"):
        raise ValueError(f"unknown check {which!r}")
    _require(inst, which)
    lhs_sigma = inst.kappa_sigma
    fiber_k, fiber_sigma = inst.fiber
    base_k, base_sigma = inst.base

    if which in ("spc", "112"):
        terms = [("kappa_sigma(fiber)", fiber_sigma), ("kappa(base)", base_k)]
    else:
        terms = [("kappa(fiber)", fiber_k), ("kappa_sigma(base)", base_sigma)]
    return _verdict(which, lhs_sigma, terms)


def verify_chain(inst):
    """kappa <= kappa_sigma_hor <= kappa_sigma on the total space."""
    k, ks, kh = inst.report.kappa, inst.kappa_sigma, inst.kappa_sigma_hor
    holds = k <= kh <= ks
    return InequalityVerdict(
        check_id="jiangluo_chain", lhs=k,
        rhs_terms=(("kappa_sigma_hor", kh), ("kappa_sigma", ks)),
        holds=holds, combine="chain")


def verify_upper_bound(inst):
    """kappa(X) <= kappa(F) + dim Y."""
    k = inst.report.kappa
    fiber_k, _ = inst.fiber
    dim_base = inst.dim_base
    return InequalityVerdict(
        check_id="lemmakey_upper", lhs=k,
        rhs_terms=(("kappa(fiber)", fiber_k), ("dim(base)", dim_base)),
        holds=k <= fiber_k + dim_base)


def verify_dio_equality(inst):
    """Exact addition: kappa(X) = kappa(F) + 1 for a general-type curve base."""
    _require(inst, "dio")
    lhs = inst.report.kappa
    fiber_k = inst.fiber_report.kappa
    return _verdict("dio_equality", lhs,
                    [("kappa(fiber)", fiber_k), ("dim(base)", 1)],
                    equality=True)


def verify_addti(inst, base_twist):
    """h^0(degree-1 system twisted by f^* D_Y) >= h^0(Y, D_Y) * rank, where
    the rank is the fiber section count at degree 1."""
    lhs, base_h0, rank = inst.addti_counts(base_twist)
    return InequalityVerdict(
        check_id="addti", lhs=lhs,
        rhs_terms=(("h0(base twist)", base_h0), ("rank", rank)),
        holds=lhs >= base_h0 * rank,
        vacuous=base_h0 * rank == 0,
        combine="product")


def verify_stride(inst):
    """kappa_sigma of the total space computed on the degree multiples of
    each stride a in 2, 3, 5 equals the instance's full value."""
    base = inst.kappa_sigma
    results = []
    ok = True
    for a in (2, 3, 5):
        val = kappa_sigma(inst.system, stride=a)
        results.append((f"stride_{a}", val))
        ok = ok and val == base
    return InequalityVerdict(
        check_id="simple", lhs=base, rhs_terms=tuple(results), holds=ok)


def verify_iitaka(inst):
    """Generalized Iitaka-fibration verdict: the Kodaira-map image dimension
    equals the growth order and every degree contracts to the fiber point."""
    _require(inst, "iitaka")
    sys = inst.system
    total = inst.report.kappa
    if not sys.support():
        return InequalityVerdict(
            check_id="iitaka_fibration", lhs=total,
            rhs_terms=(("kappa", total), ("fiber_kappa", NEG_INF)),
            holds=True, vacuous=True)
    # raises on any certification failure
    image_dim = iitaka_analysis(sys, lambda: total)
    return InequalityVerdict(
        check_id="iitaka_fibration", lhs=image_dim,
        rhs_terms=(("kappa", total), ("fiber_kappa", 0)),
        holds=image_dim == total)


# check id -> its verdict on (instance, addti twist degree)
_CHECKS = {
    "spc": lambda inst, twist: verify_subadditivity(inst, "spc"),
    "spck": lambda inst, twist: verify_subadditivity(inst, "spck"),
    "112": lambda inst, twist: verify_subadditivity(inst, "112"),
    "112k": lambda inst, twist: verify_subadditivity(inst, "112k"),
    "chain": lambda inst, twist: verify_chain(inst),
    "upper": lambda inst, twist: verify_upper_bound(inst),
    "dio": lambda inst, twist: verify_dio_equality(inst),
    "iitaka": lambda inst, twist: verify_iitaka(inst),
    "simple": lambda inst, twist: verify_stride(inst),
    "addti": lambda inst, twist: verify_addti(inst, inst.base_twist(twist)),
}


def run_check(inst, check, twist):
    """The verdict of one check id on an instance (twist: the degree of the
    addti base twist); ValueError when the check is unknown or does not
    apply.  The invariants are read first, in the summary's order
    (invariants())."""
    if not isinstance(check, str) or check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    _require(inst, check)
    inst.invariants()
    return _CHECKS[check](inst, twist)


# ---------------------------------------------------------------------------
# generalized Iitaka fibration analysis
# ---------------------------------------------------------------------------

def iitaka_analysis(sys, growth):
    """The image dimension of the monomial Kodaira map at degree k, the
    largest nonempty degree with 2k inside the bound, once the generalized
    Iitaka fibration it defines is certified, and checked at the end
    against growth(), the growth order of the system (a callable, read
    last, so that a certification failure is raised first).

    The image dimension is the exponent-hull dimension, and it must have
    stabilized (rank at k equals rank at 2k).  The fiber growth order is
    zero exactly when every degree maps to a single fiber point, which is
    certified degree by degree.

    Every read is a rank or a kernel of the degrees' Gram matrices
    (SectionSystem.gram): the image dimension and the 2k stability check
    are their ranks, and degree l maps to one fiber point iff its Gram
    matrix kills the integer kernel of the degree-k Gram matrix."""
    support = sys.support()
    if not support:
        raise ValueError("empty section system")
    k = max((d for d in support if 2 * d <= sys.degree_bound), default=None)
    if k is None:
        raise DegreeBoundError("increase degree bound")

    image_dim = sys.rank(k)
    if image_dim != sys.rank(2 * k):
        raise DegreeBoundError("increase degree bound")

    # the Gram rows span the differences' rational space, so their
    # saturation is the contracted lattice L, and the integer kernel of the
    # symmetric Gram matrix is L's orthogonal complement: for saturated L,
    # p - q lies in L iff <w, p> = <w, q> for every w in that kernel.  A
    # degree's Gram matrix G is positive semidefinite with w^T G w half the
    # sum of <w, p - q>^2 over its pairs of points, so <w, .> is constant on
    # the degree iff G w = 0
    perp = int_kernel(sys.gram(k))
    for l in support:
        g = sys.gram(l)
        if any(dot(row, w) for w in perp for row in g):
            raise CrossCheckError(
                f"degree {l} spreads across fibers: growth is not contracted")

    total_kappa = growth()
    if image_dim != total_kappa:
        raise CrossCheckError(
            f"image dimension {image_dim} disagrees with growth {total_kappa}")
    return image_dim
