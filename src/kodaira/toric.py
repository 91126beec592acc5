"""Smooth complete toric varieties as a fully computable model class.

Torus-invariant linear systems have monomial bases, so a space of sections is
an exponent set: the lattice points of a divisor polytope, shifted by the
multiplier-ideal coefficients of a torus-invariant singular metric.  All
growth invariants are computed twice, once exactly from limit polytopes or
hull dimensions and once empirically, as the growth degree of the counts read
off integer finite differences along residue classes of a period computed up
front (growth_degree); the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from operator import and_

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
        self._subsets = None
        self._limits = {}
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

    def nonsingular_subsets(self):
        """(ray index tuple, |det|) for every n-subset of rays with nonzero
        determinant: every vertex of a polytope {u : <u, v_rho> >= c_rho}
        solves one of them.  Cached per variety."""
        if self._subsets is None:
            self._subsets = tuple(
                (sub, abs(det)) for sub in
                combinations(range(len(self.rays)), self.lattice_rank)
                if (det := det_int([self.rays[i] for i in sub])))
        return self._subsets

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
        return lcm(1, *(c.denominator for c in self.coefficients))

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
    """Ampleness on a smooth complete fan: D is integral and, for every
    maximal cone sigma, the point m_sigma with <m_sigma, v_rho> = -b_rho on
    sigma's rays satisfies <m_sigma, v_rho> > -b_rho on every other ray."""
    if not divisor.is_integral():
        return False
    b = divisor.coefficients
    for cone in variety.max_cones:
        idx = sorted(cone)
        m = solve_rational([variety.rays[i] for i in idx], [-b[i] for i in idx])
        if any(dot(m, ray) <= -c for i, (ray, c) in enumerate(zip(variety.rays, b))
               if i not in cone):
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

    def growth(self, stride=1):
        """growth_degree of the counts at degrees stride, 2 stride, ... up to
        the degree bound."""
        return growth_degree(
            [self.count(k) for k in range(stride, self.degree_bound + 1, stride)],
            self.period(stride))

    def period(self, stride=1):
        """A period of the counts at degrees stride, 2 stride, ... for large
        degrees.  Only rays whose constraint touches the limit polytope Q
        bound the degree piece for large k; the others are slack by a margin
        growing with k (all rays count when Q is empty or the clamp is off).
        A vertex cut out by rays B moves with a period dividing |det B| times
        the periods of their multiplier coefficients (the denominators of
        k0 stride mu), and the lcm of the vertex periods is a period of the
        counts."""
        touching = set(range(len(self.variety.rays)))
        q = limit_polytope(self.variety, self.divisor, self.metric)
        if self.clamp and not q.is_empty():  # Q is the clamped limit
            verts = q.vertices()
            touching = {i for i, (ray, c) in enumerate(q.constraints)
                        if any(dot(v, ray) == c for v in verts)}
        mu_period = {i: (mu * self.k0 * stride).denominator
                     for i, mu in self._weights}
        period = 1
        for sub, det in self.variety.nonsingular_subsets():
            if touching.issuperset(sub):
                period = lcm(period, det * lcm(
                    *(mu_period.get(i, 1) for i in sub)))
        return period

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
# exact growth degree shared by the empirical routes
# ---------------------------------------------------------------------------

def growth_degree(counts, period):
    """Exact growth degree of the counts at degrees 1..K, or None.

    Section counts are eventually quasi-polynomial in k with a period that
    divides `period`, and along each residue class they never decrease once
    stable.  So along each residue class mod the period: a class whose last
    two samples are 0 is dead; one that decreases in its last three samples
    has not stabilised; otherwise its degree is the least d for which the
    last d+2 samples lie on one degree-d polynomial (vanishing (d+1)-st
    difference) with a positive last d-th difference.  NEG_INF when every
    class is dead, None when some class is not determinable from its
    samples, else the largest class degree.
    """
    best = NEG_INF
    for end in range(max(len(counts) - period, 0), len(counts)):
        diffs = list(counts[end::-period])[::-1]
        if diffs[-2:] == [0, 0]:
            continue
        tail = diffs[-3:]
        if any(a > b for a, b in zip(tail, tail[1:])):
            return None
        for d in range(len(diffs) - 1):
            nxt = [b - a for a, b in zip(diffs, diffs[1:])]
            if nxt[-1] == 0 and diffs[-1] > 0:
                best = max(best, d)
                break
            diffs = nxt
        else:
            return None
    return best


def certified_growth(counts, period):
    """growth_degree of the counts; DegreeBoundError when not determinable."""
    degree = growth_degree(counts, period)
    if degree is None:
        raise DegreeBoundError("degree bound too small")
    return degree


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
    checked against the growth degree of the counts.  Disagreement, or a
    growth degree the bound cannot determine for a positive dimension, raises
    DegreeBoundError("degree bound too small")."""
    support = sys.support()
    if not support:
        return NEG_INF
    k_star = support[-1]
    exact = int_points_rank(sys.exponents(k_star))
    empirical = sys.growth()
    if empirical is None and exact == 0:
        return exact
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
    {u : <u, v_rho> >= -b_rho + max(mu_rho - 1, 0)}, constraints parallel to
    the rays.  Cached per variety, so its vertices are enumerated once."""
    metric = metric if metric is not None else EMPTY_METRIC
    key = (divisor, metric)
    if key not in variety._limits:
        cons = []
        for i, ray in enumerate(variety.rays):
            gamma = coeff_limit(metric.weight(i)) if metric.weight(i) else Fraction(0)
            cons.append((ray, -divisor.coefficients[i] + gamma))
        variety._limits[key] = Polytope(variety.lattice_rank, cons)
    return variety._limits[key]


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
    cons = q.constraints  # parallel to rays by construction
    # bit i of tight[j]: vertex j lies on the constraint of ray i
    tight = [sum(1 << i for i, (ray, c) in enumerate(cons) if dot(v, ray) == c)
             for v in verts]
    faces = set()
    for mask in range(1 << len(cons)):
        vset = tuple(j for j, t in enumerate(tight) if t & mask == mask)
        if vset:
            faces.add(vset)

    best = NEG_INF
    for vset in faces:
        full_tight = reduce(and_, (tight[j] for j in vset))
        disp = [(cons[i][0], 1 if metric.weight(i) >= 1 else 0)
                for i in range(len(cons))
                if full_tight >> i & 1 and i not in fattened_rays]
        if not disp or not Polytope(variety.lattice_rank, disp).is_empty():
            best = max(best, affine_rank([verts[j] for j in vset]))
    return best


PERTURBATION_MULTIPLES = (1, 2, 3)


def check_perturbed(exact, estimates, mismatch, unestimable):
    """exact, once every determinable estimate (not None) equals it and, unless
    it is NEG_INF, some estimate is determinable; else CrossCheckError."""
    determined = [e for e in estimates if e is not None]
    for empirical in determined:
        if empirical != exact:
            raise CrossCheckError(
                mismatch.format(exact=exact, empirical=empirical))
    if not determined and exact != NEG_INF:
        raise CrossCheckError(unestimable)
    return exact


def _perturbed_growth(variety, divisor, metric, perturbation, degree_bound,
                      stride, clamp, route):
    """Growth order of the counts of k*D + m*P for the perturbation P.

    Exact value from the limit polytope with the support of P fattened, which
    is the same for every m >= 1.  Empirical values: the growth degree of the
    counts (on multiples of the stride) for each m in PERTURBATION_MULTIPLES.
    Every determinable one must equal the exact value, or CrossCheckError
    naming the route is raised.
    """
    fattened = {i for i, c in enumerate(perturbation.coefficients) if c > 0}
    exact = _limit_growth_exact(variety, divisor, metric, fattened)

    estimates = [
        SectionSystem(variety, divisor, metric=metric,
                      aux=perturbation.scale(m), degree_bound=degree_bound * stride,
                      clamp=clamp).growth(stride)
        for m in PERTURBATION_MULTIPLES]
    return check_perturbed(
        exact, estimates,
        route + " growth mismatch: exact {exact}, empirical {empirical}",
        "perturbed growth order could not be estimated")


def kappa_sigma(variety, divisor, metric=None, ample=None,
                degree_bound=DEFAULT_DEGREE_BOUND, stride=1, clamp=True):
    """Perturbed section growth order (numerical dimension flavor).

    Exact value from the limit polytope; empirical values as the growth
    degree of the counts for small multiples of the ample perturbation.  The
    routes must agree or CrossCheckError is raised.
    """
    if ample is None:
        ample = standard_ample(variety)
    elif not is_ample(variety, ample):
        raise ValueError("perturbation divisor is not ample")
    return _perturbed_growth(variety, divisor, metric, ample, degree_bound,
                             stride, clamp, "numerical")


def kappa_sigma_hor(variety, divisor, metric, fibration,
                    degree_bound=DEFAULT_DEGREE_BOUND, clamp=True):
    """Perturbed growth order along divisors pulled back from the base.

    Same as kappa_sigma, but the perturbation is m * f^*(ample on base): only
    pulled-back rays are fattened, so metric rays in the fiber direction stay
    limit-strict and the value can drop below kappa_sigma.
    """
    pulled = fibration.pullback_divisor(fibration.base_ample())
    return _perturbed_growth(variety, divisor, metric, pulled, degree_bound,
                             1, clamp, "horizontal")
