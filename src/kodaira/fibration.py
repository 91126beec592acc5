"""Fiber-space instances and the inequality checks run on them.

Three instance shapes: toric products (projection to the second factor),
Hirzebruch surfaces over the line (first-coordinate projection), and curve
times toric (projection to the curve).  Torus-invariant and split data
restrict verbatim to every fiber over the open locus, so "sufficiently
general fiber" never needs sampling: restriction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .curve import (
    CurveDivisorClass,
    CurveModel,
    h0 as curve_h0,
    kappa_curve,
    kappa_sigma_curve,
)
from .lattice import IntLattice, NEG_INF, saturate_rows, vsub
from .multiplier import EMPTY_METRIC, SingularMetricData, multiplier_coeff
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
    check_perturbed,
    divisor_polytope,
    growth_degree,
    kappa_report,
    kappa_sigma,
    kappa_sigma_hor,
    standard_ample,
)


def _neg_inf_sum(*terms):
    if any(t == NEG_INF for t in terms):
        return NEG_INF
    return sum(terms)


# ---------------------------------------------------------------------------
# toric fibrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricFibration:
    """Toric morphism data: which rays are vertical (fiber direction) and how
    base rays pull back (multiplicity one in all models here)."""

    total: ToricVariety
    base: ToricVariety
    fiber: ToricVariety
    vertical_rays: tuple          # indices into total.rays
    pullback_rays: tuple          # pullback_rays[b] = total ray index of base ray b
    fiber_ray_of_vertical: dict   # total ray index -> fiber ray index

    def pullback_divisor(self, base_divisor):
        coeffs = [Fraction(0)] * len(self.total.rays)
        for b, i in enumerate(self.pullback_rays):
            coeffs[i] = base_divisor.coefficients[b]
        return ToricDivisorData(tuple(coeffs))

    def base_ample(self):
        return standard_ample(self.base)

    def restrict_divisor(self, divisor):
        coeffs = [Fraction(0)] * len(self.fiber.rays)
        for i in self.vertical_rays:
            coeffs[self.fiber_ray_of_vertical[i]] = divisor.coefficients[i]
        return ToricDivisorData(tuple(coeffs))

    def restrict_metric(self, metric):
        if metric is None:
            return EMPTY_METRIC
        entries = []
        for ray_id, mu in metric.entries:
            if ray_id in self.fiber_ray_of_vertical:
                entries.append((self.fiber_ray_of_vertical[ray_id], mu))
        return SingularMetricData(entries)


def product_fibration(fiber_variety, base_variety):
    """X = F x Y with the projection onto Y; fiber-factor rays come first."""
    total = ToricVariety.product(fiber_variety, base_variety)
    nf = len(fiber_variety.rays)
    vertical = tuple(range(nf))
    pullback = tuple(nf + b for b in range(len(base_variety.rays)))
    return ToricFibration(
        total=total, base=base_variety, fiber=fiber_variety,
        vertical_rays=vertical, pullback_rays=pullback,
        fiber_ray_of_vertical={i: i for i in vertical})


def hirzebruch_fibration(a):
    """F_a -> P1 by the first coordinate; vertical rays are (0, +-1)."""
    total = ToricVariety.hirzebruch(a)
    base = ToricVariety.projective_space(1)
    fiber = ToricVariety.projective_space(1)
    # total rays: (1,0), (0,1), (-1,a), (0,-1); base rays: (1,), (-1,)
    return ToricFibration(
        total=total, base=base, fiber=fiber,
        vertical_rays=(1, 3), pullback_rays=(0, 2),
        fiber_ray_of_vertical={1: 0, 3: 1})


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------
#
# Each instance computes each growth invariant on first read and keeps it
# (cached_property) for all verdicts: report (the total-space kappa triple),
# kappa_sigma, kappa_sigma_hor and the (kappa, kappa_sigma) pairs fiber and
# base.  Verdicts read them in a fixed order, which fixes the order of the
# computations and so the first error raised; a part that raises is not
# kept.  Nothing kept refers back to the instance, so dropping it frees it.
# Do not change an instance after its first read.

def general_fiber_data(inst):
    """(fiber model, restricted divisor, restricted metric): torus-invariant
    and split data restrict identically to every fiber over the open orbit."""
    return inst.fiber_data()


def fiber_kappa_values(inst):
    """(kappa, kappa_sigma) of the general fiber."""
    fiber, divisor, metric = general_fiber_data(inst)
    return (inst.fiber_report.kappa,
            kappa_sigma(fiber, divisor, metric, degree_bound=inst.degree_bound))


@dataclass
class ToricFibrationInstance:
    """Fibration with torus-invariant data: either log divisors (reduced
    boundary subsets with f* D_Y inside D_X) or a metric, never both."""

    fibration: ToricFibration
    divisor: ToricDivisorData | None = None      # M = K_X + L, metric flavor
    metric: SingularMetricData | None = None
    dx_rays: frozenset = frozenset()             # log flavor
    dy_rays: frozenset = frozenset()
    degree_bound: int = DEFAULT_DEGREE_BOUND
    instance_id: str = ""

    def __post_init__(self):
        if self.metric is not None and (self.dx_rays or self.dy_rays):
            raise ValueError("metric and log divisors are mutually exclusive")
        for b in self.dy_rays:
            if self.fibration.pullback_rays[b] not in self.dx_rays:
                raise ValueError("pullback of D_Y is not contained in D_X")

    @property
    def is_log(self):
        return self.divisor is None

    def total_divisor(self):
        if self.divisor is not None:
            return self.divisor
        kx = ToricDivisorData.canonical(self.fibration.total)
        return kx.add(ToricDivisorData.boundary_subset(
            self.fibration.total, self.dx_rays))

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
        return (fib.fiber, fib.restrict_divisor(self.total_divisor()),
                fib.restrict_metric(self.metric))

    @cached_property
    def system(self):
        """The total-space SectionSystem."""
        return SectionSystem(self.fibration.total, self.total_divisor(),
                             metric=self.metric, degree_bound=self.degree_bound)

    @cached_property
    def report(self):
        return kappa_report(self.system)

    @cached_property
    def kappa_sigma(self):
        return kappa_sigma(self.fibration.total, self.total_divisor(),
                           self.metric, degree_bound=self.degree_bound)

    @cached_property
    def kappa_sigma_hor(self):
        return kappa_sigma_hor(self.fibration.total, self.total_divisor(),
                               self.metric, self.fibration,
                               degree_bound=self.degree_bound)

    @cached_property
    def fiber_report(self):
        return kappa_report(SectionSystem(*self.fiber_data(),
                                          degree_bound=self.degree_bound))

    @cached_property
    def fiber(self):
        return fiber_kappa_values(self)

    @cached_property
    def base(self):
        """(kappa, kappa_sigma) of the base with its log or canonical divisor."""
        base, m = self.fibration.base, self.base_divisor()
        sys = SectionSystem(base, m, degree_bound=self.degree_bound)
        return (kappa_report(sys).kappa,
                kappa_sigma(base, m, None, degree_bound=self.degree_bound))

    def addti_counts(self, base_twist, k):
        """(h^0 of the degree-k system twisted by f^* base_twist, h^0 of the
        base twist, fiber section count at degree k)."""
        fib = self.fibration
        bound = max(k, 1)
        lhs = SectionSystem(fib.total, self.total_divisor(), metric=self.metric,
                            aux=fib.pullback_divisor(base_twist),
                            degree_bound=bound).count(k)
        base_h0 = divisor_polytope(fib.base, base_twist, 1).count_lattice_points()
        rank = SectionSystem(*self.fiber_data(), degree_bound=bound).count(k)
        return lhs, base_h0, rank


@dataclass
class CurveProductInstance:
    """X = Y x F for a curve Y and a toric fiber F, projected to Y.

    base_class is the curve part of K_X + L (so K_Y + L_Y); the metric splits
    into marked curve points and torus-invariant fiber weights."""

    curve: CurveModel
    base_class: CurveDivisorClass
    fiber_variety: ToricVariety
    fiber_divisor: ToricDivisorData
    base_metric: tuple = ()              # ((point_id, mu), ...)
    fiber_metric: SingularMetricData = EMPTY_METRIC
    degree_bound: int = DEFAULT_DEGREE_BOUND
    instance_id: str = ""

    dim_base = 1

    def __post_init__(self):
        self.base_metric = tuple((pid, Fraction(mu)) for pid, mu in self.base_metric)
        for _, mu in self.base_metric:
            if mu < 0:
                raise ValueError("metric weight must be nonnegative")

    # -- curve-side counts --------------------------------------------------

    def base_class_at(self, k, extra_degree=0):
        """k(K_Y + L_Y) - (metric ideal) + extra, as a curve class."""
        mult = self.base_class.times(k)
        drop = sum(multiplier_coeff(mu, k) for _, mu in self.base_metric)
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
        return lcm(1, *(mu.denominator for _, mu in self.base_metric))

    # -- fiber side and products --------------------------------------------

    def fiber_data(self):
        return self.fiber_variety, self.fiber_divisor, self.fiber_metric

    @cached_property
    def _plain_fiber_system(self):
        return SectionSystem(*self.fiber_data(), degree_bound=self.degree_bound)

    def fiber_system(self, aux=None):
        """The fiber SectionSystem twisted by the integral divisor aux; the
        aux-free one is built once, so its counts are shared."""
        if aux is None:
            return self._plain_fiber_system
        return SectionSystem(*self.fiber_data(), aux=aux,
                             degree_bound=self.degree_bound)

    @cached_property
    def fiber_report(self):
        return kappa_report(self.fiber_system())

    def product_period(self):
        """The lcm of the curve-side and fiber periods."""
        return lcm(self.base_period(), self.fiber_system().period())

    def product_counts(self, base_extra=0, fiber_aux=None):
        sys = self.fiber_system(aux=fiber_aux)
        return [self.base_count(k, base_extra) * sys.count(k)
                for k in range(1, self.degree_bound + 1)]

    # -- invariants ---------------------------------------------------------

    @cached_property
    def report(self):
        k = curve_product_kappa(self)
        return KappaValues(k, k, k, None, self.degree_bound)

    @cached_property
    def kappa_sigma(self):
        return curve_product_kappa_sigma(self)

    @cached_property
    def kappa_sigma_hor(self):
        return curve_product_kappa_sigma(self, horizontal_only=True)

    @cached_property
    def fiber(self):
        return fiber_kappa_values(self)

    @cached_property
    def base(self):
        """(kappa, kappa_sigma) of the curve with its canonical divisor."""
        ky = CurveDivisorClass.canonical_multiple(self.curve, 1)
        return (kappa_curve(self.curve, ky, self.degree_bound),
                kappa_sigma_curve(self.curve, ky, self.degree_bound))

    def addti_counts(self, base_twist, k):
        """(h^0 of the degree-k product twisted by base_twist on the curve,
        h^0 of the base twist, fiber section count at degree k)."""
        base = self.base_count(k, extra_degree=base_twist.degree)
        rank = self.fiber_system().count(k)
        return base * rank, curve_h0(self.curve, base_twist), rank


# ---------------------------------------------------------------------------
# kappa values on instances
# ---------------------------------------------------------------------------

def curve_product_kappa(inst):
    """Growth order of the split section counts, via two routes that must
    agree: sum of factor orders, and the growth degree of the product
    counts."""
    counts = inst.product_counts()
    support = [c for c in counts if c > 0]
    if not support:
        return NEG_INF
    base_part = inst.base_growth()
    exact = _neg_inf_sum(base_part, inst.fiber_report.kappa)
    empirical = growth_degree(counts, inst.product_period())
    if empirical is None:
        if len(support) > 1:
            raise CrossCheckError("product growth not estimable")
        empirical = exact  # a single populated degree fixes no degree
    if empirical != exact:
        raise CrossCheckError(
            f"product growth mismatch: sum route {exact}, slope route {empirical}")
    return exact


def curve_product_kappa_sigma(inst, horizontal_only=False):
    """Perturbed growth of the product counts.

    Full perturbation fattens both factors (ample on Y times ample on F);
    horizontal_only fattens just the curve side (pullback perturbations).
    Every determinable multiple of the perturbation must give the sum of the
    factor orders."""
    p = 2 * inst.curve.genus + 1
    base_part = inst.base_growth(extra_degree=p)
    fiber_k, fiber_sigma = inst.fiber
    exact = _neg_inf_sum(base_part, fiber_k if horizontal_only else fiber_sigma)
    amp = standard_ample(inst.fiber_variety)
    period = inst.product_period()
    return check_perturbed(
        exact,
        [growth_degree(inst.product_counts(
            base_extra=m * p,
            fiber_aux=None if horizontal_only else amp.scale(m)), period)
         for m in PERTURBATION_MULTIPLES],
        "product perturbed growth mismatch: {exact} vs {empirical}",
        "perturbed product growth not estimable")


@dataclass
class KappaReport:
    """All growth invariants of a fiber-space instance in one record."""

    kappa1: float
    kappa2: float
    kappa3: float
    kappa_sigma: float
    kappa_sigma_hor: float
    fiber_kappa: float
    fiber_kappa_sigma: float
    base_kappa: float
    base_kappa_sigma: float
    degree_bound: int
    witness_degree: int | None

    @property
    def kappa(self):
        return self.kappa1


def kappa_summary(inst):
    """KappaReport of an instance; the three total-space invariants are
    asserted equal along the way (toric instances compute them separately,
    curve products equate the two independent routes)."""
    rep = inst.report
    return KappaReport(
        kappa1=rep.kappa1, kappa2=rep.kappa2, kappa3=rep.kappa3,
        kappa_sigma=inst.kappa_sigma, kappa_sigma_hor=inst.kappa_sigma_hor,
        fiber_kappa=inst.fiber[0], fiber_kappa_sigma=inst.fiber[1],
        base_kappa=inst.base[0], base_kappa_sigma=inst.base[1],
        degree_bound=inst.degree_bound, witness_degree=rep.witness_degree)


def instance_kappa_values(inst):
    """(kappa, kappa_sigma, kappa_sigma_hor) of the total space."""
    return inst.report.kappa, inst.kappa_sigma, inst.kappa_sigma_hor


def base_kappa_values(inst):
    """(kappa, kappa_sigma) of the base with its log or canonical divisor."""
    return inst.base


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class InequalityVerdict:
    check_id: str
    instance_id: str
    lhs: float
    rhs_terms: tuple  # of (label, value)
    holds: bool
    vacuous: bool = False
    combine: str = "sum"  # rhs aggregation: "sum", "product", or "chain"
    note: str = ""

    @property
    def rhs_value(self):
        if self.combine == "product":
            out = 1
            for _, v in self.rhs_terms:
                out *= v
            return out
        if self.combine == "chain":
            return self.rhs_terms[-1][1]
        return _neg_inf_sum(*(v for _, v in self.rhs_terms))


def _verdict(check_id, inst, lhs, rhs_terms, equality=False):
    rhs = _neg_inf_sum(*(v for _, v in rhs_terms))
    vacuous = rhs == NEG_INF and not equality
    holds = (lhs == rhs) if equality else (lhs >= rhs)
    return InequalityVerdict(
        check_id=check_id, instance_id=inst.instance_id, lhs=lhs,
        rhs_terms=tuple(rhs_terms), holds=holds, vacuous=vacuous)


def verify_subadditivity(inst, which):
    """Checks spc / spck (log flavor) and 112 / 112k (metric flavor)."""
    if which in ("spc", "spck"):
        if not isinstance(inst, ToricFibrationInstance) or not inst.is_log:
            raise ValueError(f"check {which} needs a log instance")
    elif which in ("112", "112k"):
        if isinstance(inst, ToricFibrationInstance) and inst.is_log:
            raise ValueError(f"check {which} needs a metric instance")
    else:
        raise ValueError(f"unknown check {which!r}")

    _, lhs_sigma, _ = instance_kappa_values(inst)
    fiber_k, fiber_sigma = inst.fiber
    base_k, base_sigma = inst.base

    if which in ("spc", "112"):
        terms = [("kappa_sigma(fiber)", fiber_sigma), ("kappa(base)", base_k)]
    else:
        terms = [("kappa(fiber)", fiber_k), ("kappa_sigma(base)", base_sigma)]
    return _verdict(which, inst, lhs_sigma, terms)


def verify_chain(inst):
    """kappa <= kappa_sigma_hor <= kappa_sigma on the total space."""
    k, ks, kh = instance_kappa_values(inst)
    holds = k <= kh <= ks
    return InequalityVerdict(
        check_id="jiangluo_chain", instance_id=inst.instance_id,
        lhs=k, rhs_terms=(("kappa_sigma_hor", kh), ("kappa_sigma", ks)),
        holds=holds, combine="chain")


def verify_upper_bound(inst):
    """kappa(X) <= kappa(F) + dim Y."""
    k, _, _ = instance_kappa_values(inst)
    fiber_k, _ = inst.fiber
    dim_base = inst.dim_base
    rhs = _neg_inf_sum(fiber_k, dim_base) if fiber_k != NEG_INF else NEG_INF
    holds = k <= rhs or k == NEG_INF
    return InequalityVerdict(
        check_id="lemmakey_upper", instance_id=inst.instance_id, lhs=k,
        rhs_terms=(("kappa(fiber)", fiber_k), ("dim(base)", dim_base)),
        holds=holds)


def verify_dio_equality(inst):
    """Exact addition: kappa(X) = kappa(F) + 1 for a general-type curve base."""
    if not isinstance(inst, CurveProductInstance):
        raise ValueError("dio equality needs a curve times toric instance")
    if inst.curve.genus < 2:
        raise ValueError("dio equality needs a general-type base (genus >= 2)")
    lhs = inst.report.kappa
    fiber_k = inst.fiber_report.kappa
    return _verdict("dio_equality", inst, lhs,
                    [("kappa(fiber)", fiber_k), ("dim(base)", 1)],
                    equality=True)


def verify_addti(inst, base_twist, k=1):
    """h^0(degree-k system twisted by f^* D_Y) >= h^0(Y, D_Y) * rank, where
    the rank is the fiber section count at degree k."""
    lhs, base_h0, rank = inst.addti_counts(base_twist, k)
    return InequalityVerdict(
        check_id="addti", instance_id=inst.instance_id, lhs=lhs,
        rhs_terms=(("h0(base twist)", base_h0), ("rank", rank)),
        holds=lhs >= base_h0 * rank,
        vacuous=base_h0 * rank == 0,
        combine="product")


def verify_stride(variety, divisor, metric, strides=(2, 3, 5),
                  degree_bound=DEFAULT_DEGREE_BOUND, instance_id="", base=None):
    """kappa_sigma computed on degree multiples of a equals the full value
    (base: the stride-1 value when the caller already has it)."""
    if base is None:
        base = kappa_sigma(variety, divisor, metric, degree_bound=degree_bound)
    results = []
    ok = True
    for a in strides:
        val = kappa_sigma(variety, divisor, metric,
                          degree_bound=degree_bound, stride=a)
        results.append((f"stride_{a}", val))
        ok = ok and val == base
    return InequalityVerdict(
        check_id="simple", instance_id=instance_id, lhs=base,
        rhs_terms=tuple(results), holds=ok)


def verify_iitaka(inst):
    """Generalized Iitaka-fibration verdict: the Kodaira-map image dimension
    equals the growth order and every degree contracts to the fiber point."""
    if not isinstance(inst, ToricFibrationInstance):
        raise ValueError("iitaka verdict needs a toric instance")
    sys = inst.system
    total = inst.report.kappa
    if not sys.support():
        return InequalityVerdict(
            check_id="iitaka_fibration", instance_id=inst.instance_id,
            lhs=total, rhs_terms=(("kappa", total), ("fiber_kappa", NEG_INF)),
            holds=True, vacuous=True)
    res = iitaka_analysis(sys)  # raises on any certification failure
    return InequalityVerdict(
        check_id="iitaka_fibration", instance_id=inst.instance_id,
        lhs=res.image_dim,
        rhs_terms=(("kappa", total), ("fiber_kappa", res.fiber_kappa)),
        holds=res.image_dim == total and res.fiber_kappa == 0)


# ---------------------------------------------------------------------------
# generalized Iitaka fibration analysis
# ---------------------------------------------------------------------------

@dataclass
class IitakaAnalysis:
    image_dim: int
    fiber_lattice_rank: int        # rank of the quotient character lattice
    fiber_relations: tuple         # saturated basis of the contracted lattice
    fiber_kappa: int
    degrees_checked: tuple


def iitaka_analysis(sys, k=None):
    """Monomial Kodaira-map analysis at degree k.

    image_dim is the exponent-hull dimension; the fiber character lattice is
    Z^n modulo the saturation of the degree-k difference lattice; the fiber
    growth order is zero exactly when every degree maps to a single coset,
    which is certified degree by degree.  Requires the difference lattice to
    have stabilized (rank at k equals rank at 2k inside the bound).
    """
    support = sys.support()
    if not support:
        raise ValueError("empty section system")
    if k is None:
        k = max((d for d in support if 2 * d <= sys.degree_bound), default=None)
        if k is None:
            raise DegreeBoundError("increase degree bound")
    if k not in support:
        raise ValueError(f"degree {k} has no sections")
    if 2 * k > sys.degree_bound:
        raise DegreeBoundError("increase degree bound")

    n = sys.variety.lattice_rank

    def diff_lattice(deg):
        pts = sys.exponents(deg)
        lat = IntLattice(n)
        for p in pts[1:]:
            lat.add(vsub(p, pts[0]))
            if lat.rank == n:
                break
        return lat

    bk = diff_lattice(k)
    if bk.rank != diff_lattice(2 * k).rank:
        raise DegreeBoundError("increase degree bound")

    image_dim = bk.rank
    sat_lat = IntLattice(n)
    sat = saturate_rows(bk.basis()) if bk.rows else []
    for row in sat:
        sat_lat.add(row)

    checked = []
    for l in support:
        pts = sys.exponents(l)
        base = pts[0]
        for p in pts[1:]:
            if not sat_lat.contains(vsub(p, base)):
                raise CrossCheckError(
                    f"degree {l} spreads across fibers: growth is not contracted")
        checked.append(l)

    total_kappa = kappa_report(sys).kappa
    if image_dim != total_kappa:
        raise CrossCheckError(
            f"image dimension {image_dim} disagrees with growth {total_kappa}")

    return IitakaAnalysis(
        image_dim=image_dim,
        fiber_lattice_rank=n - len(sat),
        fiber_relations=tuple(sat),
        fiber_kappa=0,
        degrees_checked=tuple(checked))
