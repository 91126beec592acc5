"""Smooth complete toric varieties as a fully computable model class.

Torus-invariant linear systems have monomial bases, so a space of sections is
an exponent set: the lattice points of a divisor polytope, shifted by the
multiplier-ideal coefficients of a torus-invariant singular metric.  All
growth invariants are computed twice, once exactly from limit polytopes or
hull dimensions and once empirically from counts, and the two routes must
agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .lattice import (
    NEG_INF,
    GeometryError,
    IntLattice,
    Polytope,
    affine_rank,
    det_int,
    dot,
    int_points_rank,
    is_zero,
    primitive,
    scan_int_points,
    solve_rational,
    vsub,
)
from .multiplier import EMPTY_METRIC, coeff_limit, multiplier_coeff
from .semigroup import DegreeBoundError, GradedSemigroup


class CrossCheckError(RuntimeError):
    """An exact value and its mandatory empirical estimate disagree."""


DEFAULT_DEGREE_BOUND = 24


# ---------------------------------------------------------------------------
# varieties and divisors
# ---------------------------------------------------------------------------

class ToricVariety:
    """Complete smooth fan: primitive rays plus maximal cones (ray index sets).

    Validation checks primitivity, smoothness (each maximal cone is a lattice
    basis) and completeness (every wall is shared by exactly two maximal
    cones; both directions present in rank one).
    """

    def __init__(self, rays, max_cones, name=None):
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not self.rays:
            raise ValueError("a complete fan needs rays")
        self.lattice_rank = len(self.rays[0])
        self.max_cones = tuple(sorted(frozenset(c) for c in max_cones))
        self.name = name or f"toric{self.lattice_rank}d"
        self._dir_mults = None
        self._ample = None
        self._validate()

    def _validate(self):
        n = self.lattice_rank
        for r in self.rays:
            if len(r) != n:
                raise ValueError("ray dimension mismatch")
            if is_zero(r) or primitive(r) != r:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        for cone in self.max_cones:
            if len(cone) != n:
                raise ValueError("maximal cone is not simplicial of full rank")
            mat = [self.rays[i] for i in sorted(cone)]
            if abs(det_int(mat)) != 1:
                raise ValueError(f"cone {sorted(cone)} is not smooth")
        if n == 1:
            if set(self.rays) != {(1,), (-1,)}:
                raise ValueError("complete fan in rank 1 needs rays +1 and -1")
            return
        walls = {}
        for cone in self.max_cones:
            for facet in combinations(sorted(cone), n - 1):
                walls[facet] = walls.get(facet, 0) + 1
        if any(count != 2 for count in walls.values()):
            raise ValueError("fan is not complete: some wall is not shared twice")

    def __repr__(self):
        return f"ToricVariety({self.name}, rank={self.lattice_rank}, rays={len(self.rays)})"

    def direction_multipliers(self):
        """For each of the 2n directions +-e_i, nonnegative integer ray
        multipliers expressing the direction inside some maximal cone.

        Yields exact coordinate bounds for every divisor polytope: from
        <u, v_rho> >= c_rho one gets <u, d> >= sum lambda_rho c_rho whenever
        d = sum lambda_rho v_rho with lambda >= 0.  The multipliers are
        integers because every maximal cone is unimodular.  Cached per variety.
        """
        if self._dir_mults is not None:
            return self._dir_mults
        n = self.lattice_rank
        out = []
        for i in range(n):
            for sign in (1, -1):
                d = tuple(sign if j == i else 0 for j in range(n))
                found = None
                for cone in self.max_cones:
                    idx = sorted(cone)
                    mat = [[self.rays[r][j] for r in idx] for j in range(n)]
                    lam = solve_rational(mat, d)
                    if lam is not None and all(x >= 0 for x in lam):
                        found = {r: int(x) for r, x in zip(idx, lam) if x != 0}
                        break
                if found is None:
                    raise GeometryError("fan is not complete")
                out.append(((i, sign), found))
        self._dir_mults = tuple(out)
        return self._dir_mults

    # -- presets -------------------------------------------------------------

    @classmethod
    def projective_space(cls, n):
        if n < 1:
            raise ValueError("projective space needs n >= 1")
        rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        rays.append(tuple([-1] * n))
        cones = [frozenset(range(n + 1)) - {i} for i in range(n + 1)]
        return cls(rays, cones, name=f"P{n}")

    @classmethod
    def product(cls, first, second):
        n1, n2 = first.lattice_rank, second.lattice_rank
        rays = [r + tuple([0] * n2) for r in first.rays]
        rays += [tuple([0] * n1) + r for r in second.rays]
        shift = len(first.rays)
        cones = []
        for c1 in first.max_cones:
            for c2 in second.max_cones:
                cones.append(frozenset(c1) | frozenset(i + shift for i in c2))
        return cls(rays, cones, name=f"{first.name}x{second.name}")

    @classmethod
    def hirzebruch(cls, a):
        a = int(a)
        if a < 0:
            raise ValueError("hirzebruch parameter must be >= 0")
        rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
        cones = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
        return cls(rays, cones, name=f"F{a}")


@dataclass(frozen=True)
class ToricDivisorData:
    """Ray coefficients b_rho of a torus-invariant Q-divisor."""

    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in coefficients))

    @property
    def k0(self):
        """Smallest positive integer making every coefficient integral."""
        lcm = 1
        for c in self.coefficients:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        return lcm

    def is_integral(self):
        return self.k0 == 1

    def scale(self, t):
        return ToricDivisorData(tuple(Fraction(t) * c for c in self.coefficients))

    def add(self, other):
        return ToricDivisorData(tuple(a + b for a, b in
                                      zip(self.coefficients, other.coefficients)))

    @classmethod
    def canonical(cls, variety):
        return cls(tuple([-1] * len(variety.rays)))

    @classmethod
    def zero(cls, variety):
        return cls(tuple([0] * len(variety.rays)))

    @classmethod
    def boundary_subset(cls, variety, ray_indices):
        """Reduced divisor: sum of the chosen prime torus-invariant divisors."""
        chosen = set(ray_indices)
        return cls(tuple(1 if i in chosen else 0 for i in range(len(variety.rays))))


def divisor_polytope(variety, divisor, k=1):
    """Polytope of sections of k*D: {u : <u, v_rho> >= -k b_rho}.

    h^0(X, kD) is its lattice point count on a complete toric variety.
    Requires k*D integral.
    """
    coeffs = [Fraction(k) * c for c in divisor.coefficients]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("needs multiple of k0")
    return Polytope(variety.lattice_rank,
                    [(ray, -c) for ray, c in zip(variety.rays, coeffs)])


def is_ample(variety, divisor):
    """Ample test used for perturbation divisors: the degree-1 polytope is
    full-dimensional and every ray constraint is achieved with equality."""
    if not divisor.is_integral():
        return False
    poly = divisor_polytope(variety, divisor, 1)
    if poly.is_empty() or poly.affine_dim() != variety.lattice_rank:
        return False
    verts = poly.vertices()
    for ray, c in zip(variety.rays, divisor.coefficients):
        if all(dot(v, ray) != -c for v in verts):
            return False
    return True


def standard_ample(variety):
    """A canned ample divisor with every coefficient >= 1.

    All-ones works for projective spaces and their products; Hirzebruch
    surfaces need the twisted coefficient on the (-1, a) ray.  Validated once
    and cached per variety.
    """
    if variety._ample is None:
        coeffs = [1] * len(variety.rays)
        for i, ray in enumerate(variety.rays):
            if variety.lattice_rank == 2 and len(variety.rays) == 4:
                if ray[0] == -1 and ray[1] > 1:
                    coeffs[i] = ray[1]
        amp = ToricDivisorData(tuple(coeffs))
        if not is_ample(variety, amp):
            raise GeometryError(f"no canned ample for {variety.name}")
        variety._ample = amp
    return variety._ample


# ---------------------------------------------------------------------------
# section systems
# ---------------------------------------------------------------------------

class SectionSystem:
    """Degreewise exponent sets of (k k0 M + E) twisted by the k k0-th
    multiplier ideal of a torus-invariant metric.

    The degree-k piece is {u : <u, v_rho> >= -k k0 b_rho - e_rho + c_rho}
    with c_rho the multiplier coefficient at level k k0.  Every bound is an
    integer (k k0 clears the denominators of the b_rho, E is integral,
    multiplier coefficients are integers), and so is the enclosing box,
    since every cone is unimodular (ToricVariety.direction_multipliers).  So
    the integers k0 b_rho and e_rho are fixed once, and each degree only
    shifts integer bounds and the box for one integer lattice scan.

    Exponent sets and counts are cached per degree; E is a fixed auxiliary
    integral divisor (not scaled with k).
    """

    def __init__(self, variety, divisor, metric=None, aux=None,
                 degree_bound=DEFAULT_DEGREE_BOUND, clamp=True):
        self.variety = variety
        self.divisor = divisor
        self.metric = metric if metric is not None else EMPTY_METRIC
        if aux is not None and not aux.is_integral():
            raise ValueError("auxiliary divisor must be integral")
        self.aux = aux
        self.degree_bound = int(degree_bound)
        self.clamp = clamp
        self.k0 = divisor.k0
        # degree-k bound of ray i: k * slope + offset + multiplier coefficient
        self._slopes = [int(-self.k0 * c) for c in divisor.coefficients]
        self._offsets = ([-int(c) for c in aux.coefficients] if aux is not None
                         else [0] * len(variety.rays))
        self._weights = [(i, self.metric.weight(i)) for i in
                         range(len(variety.rays)) if self.metric.weight(i)]
        self._points = {}
        self._counts = {}

    def _scan(self, k, collect):
        """Integer scan of the degree-k piece (multiplier level k*k0)."""
        t = k * self.k0
        bounds = [k * a + b for a, b in zip(self._slopes, self._offsets)]
        for i, mu in self._weights:
            bounds[i] += multiplier_coeff(mu, t, clamp=self.clamp)
        box = [[None, None] for _ in range(self.variety.lattice_rank)]
        for (i, sign), mults in self.variety.direction_multipliers():
            val = sum(lam * bounds[r] for r, lam in mults.items())
            if sign > 0:
                box[i][0] = val
            else:
                box[i][1] = -val
        return scan_int_points(box, zip(self.variety.rays, bounds), collect)

    def exponents(self, k):
        if k not in self._points:
            pts = tuple(self._scan(k, collect=True))
            self._points[k] = pts
            self._counts[k] = len(pts)
        return self._points[k]

    def count(self, k):
        if k not in self._counts:
            self._counts[k] = self._scan(k, collect=False)
        return self._counts[k]

    def support(self, bound=None):
        bound = self.degree_bound if bound is None else bound
        return [k for k in range(1, bound + 1) if self.count(k) > 0]

    def counts(self, bound=None):
        bound = self.degree_bound if bound is None else bound
        return {k: self.count(k) for k in range(1, bound + 1)}

    def to_semigroup(self):
        """The exponent sets as a degreewise graded semigroup (closed under
        addition by polytope additivity and coefficient subadditivity)."""
        levels = {k: set(self.exponents(k)) for k in range(1, self.degree_bound + 1)}
        return GradedSemigroup.from_levels(
            self.variety.lattice_rank, levels,
            closed_under_addition=self.clamp, check_closure=False,
            degree_bound=self.degree_bound)


def sections_of(variety, divisor, metric=None, k=1, aux=None, clamp=True):
    """Exponent set of the degree-k piece (see SectionSystem)."""
    sys = SectionSystem(variety, divisor, metric=metric, aux=aux,
                        degree_bound=max(k, 1), clamp=clamp)
    return sys.exponents(k)


# ---------------------------------------------------------------------------
# growth estimation shared by the empirical routes
# ---------------------------------------------------------------------------

def growth_order_estimate(counts, offset_search=0):
    """Least-squares slope of log(count) against log(degree), rounded.

    Fits over support degrees in the upper half window [K/2, K].  An empty
    window with nonempty support means the counts vanish in the tail, which
    is NEG_INF growth (perturbed families are not multiplicative, so they can
    die out).  A single-sample window is widened to the whole support; if the
    support itself is a single degree the only safe estimate is 0 for a count
    of one, otherwise None (no slope can be fitted).

    With offset_search > 0 the fit is log(count) ~ q * log(k + b) over offsets
    b in [0, offset_search], keeping the minimal-residual q; additionally the
    fit is tried on residue classes of small candidate periods, anchored at
    the top degree, because quasi-polynomial counts (fractional weights) are
    honestly polynomial only along their period.  Perturbed count sequences
    behave like (k + b)^q with b of the order of the perturbation
    coefficients, and the uncorrected slope underestimates q for b comparable
    to the window.
    """
    support = sorted(k for k, c in counts.items() if c > 0)
    if not support:
        return NEG_INF
    top = max(counts)
    if len(support) == 1:
        k = support[0]
        if top > 2 * k:
            return NEG_INF  # room for a second appearance, none came
        return 0 if counts[k] == 1 else None
    # counts that stop strictly before the top degree, by more than their own
    # internal period, have died out: the growth order is NEG_INF
    internal_gap = max(b - a for a, b in zip(support, support[1:]))
    if top - support[-1] > internal_gap:
        return NEG_INF
    window = [k for k in support if 2 * k >= top]
    if not window:
        return NEG_INF
    if len(window) < 2:
        window = support

    def fit(points, search):
        ys = [math.log(counts[k]) for k in points]
        best = None
        for b in range(0, search + 1):
            xs = [math.log(k + b) for k in points]
            xbar = sum(xs) / len(xs)
            ybar = sum(ys) / len(ys)
            denom = sum((x - xbar) ** 2 for x in xs)
            if denom == 0:
                continue
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
            mse = sum((y - ybar - slope * (x - xbar)) ** 2
                      for x, y in zip(xs, ys)) / len(points)
            if best is None or mse < best[0]:
                best = (mse, slope)
        return best

    if offset_search == 0:
        best = fit(window, 0)
        return round(best[1]) if best else None

    anchor = window[-1]
    best = None
    for period in range(1, 9):
        cls = [k for k in window if (anchor - k) % period == 0]
        if len(cls) < (2 if period == 1 else 4):
            continue
        res = fit(cls, offset_search)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    if best is None:
        return None
    order = round(best[1])
    # integer counts with a genuinely negative trend are on their way to
    # zero: decay means the family dies, not a negative growth order
    return NEG_INF if order < 0 else order


# ---------------------------------------------------------------------------
# the three section-growth invariants
# ---------------------------------------------------------------------------

def kappa1(sys):
    """Rank of the group generated by all within-degree exponent differences
    (the transcendence degree of the field of degree-zero monomial
    fractions).  NEG_INF when every degree is empty."""
    n = sys.variety.lattice_rank
    lat = IntLattice(n)
    seen_any = False
    for k in sys.support():
        pts = sys.exponents(k)
        seen_any = True
        base = pts[0]
        for p in pts[1:]:
            lat.add(vsub(p, base))
        if lat.rank == n:
            break
    if not seen_any:
        return NEG_INF
    return lat.rank


def kappa2(sys, with_witness=False):
    """Maximal image dimension of the monomial maps: max over nonempty
    degrees of the affine dimension of the exponent hull."""
    best = NEG_INF
    witness = None
    for k in sys.support():
        d = int_points_rank(sys.exponents(k))
        if d > best:
            best, witness = d, k
    if with_witness:
        return best, witness
    return best


def kappa3(sys):
    """Count growth order: hull dimension at the top nonempty degree, cross
    checked against the log-log slope of the counts.  Disagreement raises
    DegreeBoundError("degree bound too small")."""
    support = sys.support()
    if not support:
        return NEG_INF
    k_star = support[-1]
    exact = int_points_rank(sys.exponents(k_star))
    empirical = growth_order_estimate(sys.counts())
    if empirical is None:
        if exact == 0:
            return exact
        raise DegreeBoundError("degree bound too small")
    if empirical != exact:
        raise DegreeBoundError("degree bound too small")
    return exact


@dataclass
class KappaValues:
    kappa1: float
    kappa2: float
    kappa3: float
    witness_degree: int | None
    degree_bound: int

    @property
    def kappa(self):
        return self.kappa1


def kappa_report(sys):
    """All three invariants, asserted equal (raises CrossCheckError)."""
    v1 = kappa1(sys)
    v2, witness = kappa2(sys, with_witness=True)
    v3 = kappa3(sys)
    if not (v1 == v2 == v3):
        raise CrossCheckError(
            f"section growth invariants disagree: {v1}, {v2}, {v3}")
    return KappaValues(kappa1=v1, kappa2=v2, kappa3=v3,
                       witness_degree=witness, degree_bound=sys.degree_bound)


# ---------------------------------------------------------------------------
# numerical (perturbed) growth
# ---------------------------------------------------------------------------

def limit_polytope(variety, divisor, metric=None):
    """Normalized limit of the degreewise constraint polytopes:
    {u : <u, v_rho> >= -b_rho + max(mu_rho - 1, 0)}."""
    metric = metric if metric is not None else EMPTY_METRIC
    cons = []
    for i, ray in enumerate(variety.rays):
        gamma = coeff_limit(metric.weight(i)) if metric.weight(i) else Fraction(0)
        cons.append((ray, -divisor.coefficients[i] + gamma))
    return Polytope(variety.lattice_rank, cons)


def _limit_growth_exact(variety, divisor, metric, fattened_rays):
    """Exact growth order of perturbed counts from the limit polytope.

    The value is the largest face dimension of the limit polytope whose tight
    constraints admit a displacement w with <w, v> >= 1 on limit-strict rays
    (metric weight >= 1, not fattened) and <w, v> >= 0 on neutral rays;
    fattened rays absorb any bounded displacement.  With every ray fattened
    this is just the polytope dimension.
    """
    metric = metric if metric is not None else EMPTY_METRIC
    q = limit_polytope(variety, divisor, metric)
    if q.is_empty():
        return NEG_INF
    verts = q.vertices()
    n = variety.lattice_rank

    kinds = []
    for i in range(len(variety.rays)):
        if i in fattened_rays:
            kinds.append("fat")
        elif metric.weight(i) >= 1:
            kinds.append("strict")
        else:
            kinds.append("neutral")

    cons = q.constraints  # parallel to rays by construction
    faces = {}
    ray_count = len(cons)
    for mask in range(1 << ray_count):
        tight = [i for i in range(ray_count) if mask & (1 << i)]
        vset = tuple(v for v in verts
                     if all(dot(v, cons[i][0]) == cons[i][1] for i in tight))
        if vset and vset not in faces:
            faces[vset] = True

    best = NEG_INF
    for vset in faces:
        full_tight = [i for i in range(ray_count)
                      if all(dot(v, cons[i][0]) == cons[i][1] for v in vset)]
        disp = []
        for i in full_tight:
            if kinds[i] == "strict":
                disp.append((cons[i][0], Fraction(1)))
            elif kinds[i] == "neutral":
                disp.append((cons[i][0], Fraction(0)))
        feasible = not Polytope(n, disp).is_empty() if disp else True
        if feasible:
            dim = affine_rank(vset)
            if dim > best:
                best = dim
    return best


def _perturbed_growth(variety, divisor, metric, perturbation, degree_bound,
                      stride, clamp, perturbation_range, route):
    """Growth order of the counts of k*D + m*P for the perturbation P.

    Exact value from the limit polytope with the support of P fattened;
    empirical value as the maximum over m in perturbation_range of the count
    growth order (on multiples of the stride).  The routes must agree or
    CrossCheckError naming the route is raised.
    """
    fattened = {i for i, c in enumerate(perturbation.coefficients) if c > 0}
    exact = _limit_growth_exact(variety, divisor, metric, fattened)

    n = variety.lattice_rank
    search = int(3 * max(perturbation_range)
                 * max(max(perturbation.coefficients), 1)) + 3
    empirical = NEG_INF
    estimable = False
    for m in perturbation_range:
        sys = SectionSystem(variety, divisor, metric=metric,
                            aux=perturbation.scale(m),
                            degree_bound=degree_bound * stride, clamp=clamp)
        counts = {k // stride: sys.count(k)
                  for k in range(stride, degree_bound * stride + 1, stride)}
        est = growth_order_estimate(counts, offset_search=search)
        if est is None:
            continue
        estimable = True
        est = min(est, n)  # counts cannot outgrow the lattice rank
        if est > empirical:
            empirical = est
    if not estimable and exact != NEG_INF:
        raise CrossCheckError("perturbed growth order could not be estimated")
    if estimable and empirical != exact:
        raise CrossCheckError(
            f"{route} growth mismatch: exact {exact}, empirical {empirical}")
    return exact


def kappa_sigma(variety, divisor, metric=None, ample=None,
                degree_bound=DEFAULT_DEGREE_BOUND, stride=1, clamp=True,
                perturbation_range=(1, 2, 3)):
    """Perturbed section growth order (numerical dimension flavor).

    Exact value from the limit polytope; empirical value as the maximum over
    small multiples of the ample perturbation of the count growth order.  The
    routes must agree or CrossCheckError is raised.
    """
    if ample is None:
        ample = standard_ample(variety)
    elif not is_ample(variety, ample):
        raise ValueError("perturbation divisor is not ample")
    return _perturbed_growth(variety, divisor, metric, ample, degree_bound,
                             stride, clamp, perturbation_range, "numerical")


def kappa_sigma_hor(variety, divisor, metric, fibration,
                    degree_bound=DEFAULT_DEGREE_BOUND, clamp=True,
                    perturbation_range=(1, 2, 3)):
    """Perturbed growth order along divisors pulled back from the base.

    Same as kappa_sigma, but the perturbation is m * f^*(ample on base): only
    pulled-back rays are fattened, so metric rays in the fiber direction stay
    limit-strict and the value can drop below kappa_sigma.
    """
    pulled = fibration.pullback_divisor(fibration.base_ample())
    return _perturbed_growth(variety, divisor, metric, pulled, degree_bound,
                             1, clamp, perturbation_range, "horizontal")
