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
from functools import cache, cached_property, reduce
from itertools import chain, combinations
from math import gcd, inf, lcm
from operator import and_, mul

from .lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    ScanPlan,
    _bareiss,
    _solve,
    as_int,
    dot,
    is_zero,
    primitive,
    rat_rank,
)
from .multiplier import _coeff
from .semigroup import DegreeBoundError


class CrossCheckError(RuntimeError):
    """An exact value and a determined empirical estimate of it disagree; an
    estimate the degree bound cannot determine is a DegreeBoundError."""


DEFAULT_DEGREE_BOUND = 24


# ---------------------------------------------------------------------------
# varieties and divisors
# ---------------------------------------------------------------------------

class ToricVariety:
    """Complete smooth fan: primitive rays plus maximal cones (ray index sets).

    Validation checks primitivity, smoothness (each maximal cone is a lattice
    basis) and completeness (every wall is shared by exactly two maximal
    cones; both directions present in rank one).  cone_inverses holds, in
    max_cones order, (sorted ray indices, rows of R^-1) for each cone's ray
    matrix R (rows v_rho), from the fraction-free solve that tests smoothness.

    The presets projective_space, hirzebruch and product return one shared,
    validated instance per argument for the life of the process (product is
    keyed on its factor objects, so a product of presets is shared too).
    What an instance keeps is therefore solved once per distinct fan per
    process: the cone inverses, scan_plan, the standard_ample property with
    its ampleness check, the limit polytopes of limit_polytope with their
    vertices, and the exact perturbed growth orders read off them.  The
    limit caches grow with the distinct (divisor, weights) pairs and
    fattened ray sets the process sees.  A variety built directly,
    ToricVariety(rays, cones), is not shared and is validated on every
    call.  Shared instances are not to be mutated.
    """

    def __init__(self, rays, max_cones, name=None):
        self.rays = tuple(tuple(as_int(x, "ray entry") for x in r) for r in rays)
        if not self.rays:
            raise ValueError("a complete fan needs rays")
        self.lattice_rank = len(self.rays[0])
        self.max_cones = tuple(sorted(frozenset(c) for c in max_cones))
        self.name = name or f"toric{self.lattice_rank}d"
        self._limits = {}
        self._limit_growths = {}
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
        inverses = []
        for cone in self.max_cones:
            if len(cone) != n:
                raise ValueError("maximal cone is not simplicial of full rank")
            idx = tuple(sorted(cone))
            echelon = _bareiss([list(self.rays[i]) + [int(i == j) for j in idx]
                                for i in idx], n)  # rows [v_rho | e]
            if len(echelon) < n or abs(echelon[-1][2]) != 1:
                raise ValueError(f"cone {list(idx)} is not smooth")
            den = echelon[-1][2]  # +-1: column j of R^-1 is x / den for R x = e_j
            cols = [_solve(echelon, n, n + j)[1] for j in range(n)]
            inverses.append((idx, tuple(tuple(den * x for x in row) for row in zip(*cols))))
        self.cone_inverses = tuple(inverses)
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

    @cached_property
    def scan_plan(self):
        """(ScanPlan of the rays, box rows) for scanning degree pieces.
        Row i holds the ray multipliers of +e_i and of -e_i: +-row i of the
        first cone inverse that is nonnegative, as e_i = sum (R^-1)_{i rho}
        v_rho.  <u, v_rho> >= c_rho gives <u, d> >= sum lam c for d = sum
        lam v_rho with lam >= 0, so coordinate i of every point of
        {u : <u, v_rho> >= c_rho} lies between sum lam c and -sum lam' c."""
        def mults(i, sign):
            for idx, inv in self.cone_inverses:
                if all(sign * x >= 0 for x in inv[i]):
                    return tuple((r, sign * x) for r, x in zip(idx, inv[i]) if x)
            raise GeometryError("fan is not complete")

        rows = tuple((mults(i, 1), mults(i, -1)) for i in range(self.lattice_rank))
        return ScanPlan(self.lattice_rank, self.rays), rows

    factors = ()  # (first, second) of a product

    @cached_property
    def standard_ample(self):
        """A canned ample divisor with every coefficient >= 1.

        All-ones works for projective spaces; Hirzebruch surfaces need the
        twisted coefficient on the (-1, a) ray; a product takes its factors'
        side by side, since D1 x D2 is ample iff both factors are."""
        nums = [n for f in self.factors for n in f.standard_ample.nums] or [
            max(r[1], 1) if len(r) == 2 and r[0] == -1 else 1 for r in self.rays]
        amp = ToricDivisorData.over(nums, 1)
        if not is_ample(self, amp):
            raise GeometryError(f"no canned ample for {self.name}")
        return amp

    # -- presets -------------------------------------------------------------

    @classmethod
    def projective_space(cls, n):
        """P^n, shared per n."""
        return cls._projective_space(as_int(n, "projective space parameter n"))

    @classmethod
    @cache
    def _projective_space(cls, n):
        if n < 1:
            raise ValueError("projective space needs n >= 1")
        rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        rays.append(tuple([-1] * n))
        cones = [frozenset(range(n + 1)) - {i} for i in range(n + 1)]
        return cls(rays, cones, name=f"P{n}")

    @classmethod
    @cache
    def product(cls, first, second):
        """first x second, shared per pair of factor objects."""
        n1, n2 = first.lattice_rank, second.lattice_rank
        rays = [r + tuple([0] * n2) for r in first.rays]
        rays += [tuple([0] * n1) + r for r in second.rays]
        shift = len(first.rays)
        cones = []
        for c1 in first.max_cones:
            for c2 in second.max_cones:
                cones.append(frozenset(c1) | frozenset(i + shift for i in c2))
        out = cls(rays, cones, name=f"{first.name}x{second.name}")
        out.factors = (first, second)
        return out

    @classmethod
    def hirzebruch(cls, a):
        """The Hirzebruch surface F_a, shared per a."""
        return cls._hirzebruch(as_int(a, "hirzebruch parameter a"))

    @classmethod
    @cache
    def _hirzebruch(cls, a):
        if a < 0:
            raise ValueError("hirzebruch parameter must be >= 0")
        rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
        cones = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
        return cls(rays, cones, name=f"F{a}")


@dataclass(frozen=True)
class ToricDivisorData:
    """Ray coefficients b_rho = nums[rho] / k0 of a torus-invariant Q-divisor,
    in lowest terms: k0 is the least positive integer making every b_rho
    integral, so equal divisors have equal fields however they were built."""

    nums: tuple
    k0: int

    def __init__(self, coefficients):
        """From coefficients given as ints, Fractions or "p/q" strings."""
        coeffs = [Fraction(c) for c in coefficients]
        k0 = lcm(1, *(c.denominator for c in coeffs))
        object.__setattr__(self, "nums", tuple(
            c.numerator * (k0 // c.denominator) for c in coeffs))
        object.__setattr__(self, "k0", k0)

    @classmethod
    def over(cls, nums, k0):
        """The divisor with coefficients nums[rho] / k0 (integers, k0 > 0)."""
        g = gcd(k0, *nums)
        out = object.__new__(cls)
        object.__setattr__(out, "nums", tuple(n // g for n in nums))
        object.__setattr__(out, "k0", k0 // g)
        return out

    def is_integral(self):
        return self.k0 == 1

    def scale(self, t):
        t = t if isinstance(t, int) else Fraction(t)
        return self.over([t.numerator * n for n in self.nums], t.denominator * self.k0)

    def add(self, other):
        k0 = lcm(self.k0, other.k0)
        a, b = k0 // self.k0, k0 // other.k0
        return self.over([a * x + b * y for x, y in zip(self.nums, other.nums)], k0)

    @classmethod
    def canonical(cls, variety):
        return cls.over([-1] * len(variety.rays), 1)

    @classmethod
    def boundary_subset(cls, variety, ray_indices):
        """Reduced divisor: sum of the chosen prime torus-invariant divisors."""
        chosen = set(ray_indices)
        return cls.over([int(i in chosen) for i in range(len(variety.rays))], 1)


def _nums(variety, divisor, name="divisor"):
    """The divisor's numerators; ValueError unless there is one per ray."""
    if len(divisor.nums) != len(variety.rays):
        raise ValueError(f"{name} has {len(divisor.nums)} coefficients, "
                         f"{variety.name} has {len(variety.rays)} rays")
    return divisor.nums


def is_ample(variety, divisor):
    """Ampleness on a smooth complete fan: D is integral and, for every
    maximal cone sigma, the point m_sigma with <m_sigma, v_rho> = -b_rho on
    sigma's rays satisfies <m_sigma, v_rho> > -b_rho on every other ray.
    m_sigma = -R^-1 b_sigma for the cone's ray matrix R (rows v_rho), and
    is integral since R^-1 is (ToricVariety.cone_inverses)."""
    b = _nums(variety, divisor)
    if not divisor.is_integral():
        return False
    for idx, inv in variety.cone_inverses:
        m = [-sum(x * b[r] for r, x in zip(idx, row)) for row in inv]
        if any(dot(m, ray) <= -c for i, (ray, c) in enumerate(zip(variety.rays, b))
               if i not in idx):
            return False
    return True


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
    since every cone is unimodular (ToricVariety.scan_plan).  So
    the integers k0 b_rho and e_rho are fixed once, and each degree only
    shifts integer bounds and the box for one integer lattice scan, run on
    the variety's ScanPlan.  A weight <= 1 has one coefficient at every
    level, folded into the constant bounds once; a system with no slope and
    no weight above 1 has one piece at every degree, and counts it once.

    Degree window.  The gap between the upper and the lower box end of a
    coordinate is a + k b plus multiplier terms, which only shrink it: a
    coefficient enters with a factor -lam - lam' <= 0, and it is at least
    t (p - q) / q, with or without its clamp.  So, scaled by the lcm of the
    weights' q to keep everything integral, gap i is at most a_i + k
    rise_i.  Outside the window lo <= k <= hi one of these bounds is
    negative and the box is empty: count, support and gram answer 0, or a
    zero Gram matrix, there without building the piece.  The rises read no
    auxiliary divisor and are computed once per build; the window is read
    off the constants of each twist on its first use.

    E is a fixed auxiliary integral divisor (not scaled with k), and only
    the constant bounds read it.  A system is built without one; twist(E)
    is the system for E, memoised per E alone, that shares the rest, built
    once per (variety, divisor, metric): plan, box rows, slopes, weights,
    degree bound and the period of each stride.  Counts, Gram matrices and
    their ranks are cached per degree.
    """

    def __init__(self, variety, divisor, metric=None,
                 degree_bound=DEFAULT_DEGREE_BOUND):
        self.variety = variety
        self.divisor = divisor
        self.metric = metric
        self.degree_bound = as_int(degree_bound, "degree_bound")
        if self.degree_bound < 1:
            raise ValueError(f"degree_bound must be positive, got {degree_bound!r}")
        self.k0 = divisor.k0
        # the bounds of the rays, then the lower and upper box end of each
        # coordinate (the bounds times a row of _ends, +-lam off the scan
        # plan's box rows), at degree k: consts + k slopes plus the multiplier
        # terms; for each ray of weight above 1, its index, its (p, q) and
        # the (place, multiplier) pairs of the entries its coefficient enters
        self._plan, rows = variety.scan_plan
        m = len(variety.rays)
        self._ends = [[sign * lams.get(r, 0) for r in range(m)] for row in rows
                      for lams, sign in zip(map(dict, row), (1, -1))]
        self._slopes = self._fold([-a for a in _nums(variety, divisor)])
        # the aux-free constants: a weight p/q <= 1 has one coefficient at
        # every level (0 below 1, 1 at 1), told apart by _coeff itself:
        # before its clamp a coefficient gains p - q every q levels
        self._free = [0] * m
        self._weighted = []
        for i, (p, q) in enumerate(_ray_weights(variety, self.metric)):
            c = _coeff(p, q, 1)
            if c == _coeff(p, q, 1 + q):
                self._free[i] += c
            else:
                self._weighted.append((i, p, q, ((i, 1),) + tuple(
                    (m + e, row[i]) for e, row in enumerate(self._ends) if row[i])))
        self._fixed = not (any(self._slopes) or self._weighted)
        # the rises of the degree window (class docstring), scaled: per
        # place, its slope plus lam step for each multiplier term; per
        # coordinate (rise, lower end's place, upper end's place), the rise
        # its upper end's less its lower end's.  A multiplier coefficient
        # enters that gap with the factor lam (upper) - lam (lower) <= 0
        # and is at least t (p - q) / q, so the rise bounds its growth
        self._scale = lcm(1, *(q for _, _, q, _ in self._weighted))
        rises = [self._scale * b for b in self._slopes]
        for _, p, q, places in self._weighted:
            step = self.k0 * (p - q) * (self._scale // q)
            for j, lam in places[1:]:  # the box ends, after the ray's bound
                rises[j] += step * lam
        self._rises = [(rises[j + 1] - rises[j], j, j + 1)
                       for j in range(m, len(rises), 2)]
        self._periods = {}  # stride: period
        self._twists = {}  # aux: system
        self._own(None)

    def _fold(self, values):
        """values, then the box ends they give."""
        return values + [sum(map(mul, row, values)) for row in self._ends]

    def _own(self, aux):
        """Fold the constant bounds of aux, start the caches, join the twists."""
        self._consts = self._fold(self._free if aux is None else [
            c - a for c, a in zip(self._free, _nums(self.variety, aux, "aux"))])
        self._counts, self._grams, self._ranks = {}, {}, {}
        self._support = self._span = None
        self._twists[aux] = self

    def twist(self, aux):
        """This system with the integral auxiliary divisor aux (or None),
        folded off the aux-free constants (so twists do not add up), once
        per aux."""
        if aux not in self._twists:
            if aux is not None and not aux.is_integral():
                raise ValueError("auxiliary divisor must be integral")
            out = object.__new__(SectionSystem)
            out.__dict__.update(self.__dict__)
            out._own(aux)
        return self._twists[aux]

    def _window(self):
        """(lo, hi), either end possibly infinite: every degree k outside
        lo <= k <= hi has an empty box, as some a_i + k rise_i < 0.  Read
        off this system's constants once: the callers read the cached _span
        first."""
        lo, hi = -inf, inf
        consts, scale = self._consts, self._scale
        for rise, lower, upper in self._rises:
            a = scale * (consts[upper] - consts[lower])
            if rise > 0:
                end = -(a // rise)
                if end > lo:
                    lo = end
            elif rise < 0:
                end = a // -rise
                if end < hi:
                    hi = end
            elif a < 0:  # at every degree
                lo, hi = 1, 0
                break
        self._span = lo, hi
        return self._span

    def _piece(self, k):
        """(box, bounds) of the degree-k piece (multiplier level k*k0)."""
        values = [a + k * b for a, b in zip(self._consts, self._slopes)]
        t = k * self.k0
        for _, p, q, places in self._weighted:
            c = _coeff(p, q, t)
            for j, lam in places:
                values[j] += lam * c
        m = len(self.variety.rays)
        return list(zip(values[m::2], values[m + 1::2])), values[:m]

    def count(self, k):
        if k not in self._counts:
            if self._fixed and self._counts:  # every degree has one piece
                self._counts[k] = next(iter(self._counts.values()))
            else:
                lo, hi = self._span or self._window()
                self._counts[k] = self._plan.scan(
                    *self._piece(k)) if lo <= k <= hi else 0
        return self._counts[k]

    def gram(self, k):
        """G_k = N S2 - S1 S1^T for the moments (N, S1, S2) of the degree-k
        piece (ScanPlan.moments): half the sum of (p - q)(p - q)^T over its
        pairs of points, an integer positive semidefinite matrix whose rows
        span the degree's exponent differences, as rank(D^T D) = rank(D).
        Records the count N; a degree outside the window, or already
        counted to hold fewer than two points, has G_k = 0 without a scan."""
        if k not in self._grams:
            n = self.variety.lattice_rank
            lo, hi = self._span or self._window()
            if self._counts.get(k, 2) < 2 or not lo <= k <= hi:
                self._grams[k] = [[0] * n for _ in range(n)]
            else:
                count, sums, squares = self._plan.moments(*self._piece(k))
                self._counts[k] = count
                self._grams[k] = [[count * x - a * b
                                   for b, x in zip(sums, row)]
                                  for a, row in zip(sums, squares)]
        return self._grams[k]

    def rank(self, k):
        """Rank of G_k (gram): the affine dimension of the degree-k piece.
        A zero G_k, as of a degree of fewer than two points, has rank 0
        without an elimination."""
        if k not in self._ranks:
            g = self.gram(k)
            self._ranks[k] = rat_rank(g) if any(map(any, g)) else 0
        return self._ranks[k]

    def support(self):
        """The nonempty degrees up to the degree bound, listed once; only
        the degrees in the window are counted."""
        if self._support is None:
            lo, hi = self._span or self._window()
            self._support = [k for k in range(
                max(lo, 1), min(hi, self.degree_bound) + 1) if self.count(k) > 0]
        return self._support

    def growth(self, stride=1):
        """growth_degree of the counts at the first degree_bound multiples
        of the stride: degrees stride, 2 stride, ..., degree_bound stride.
        A degree is counted only when growth_degree reads it: 2 samples of a
        dead residue class, max(3, d + 2) of a class of degree d, and the
        whole of an undecided one.  ValueError for a stride below 1."""
        if as_int(stride, "stride") < 1:
            raise ValueError(f"stride must be positive, got {stride!r}")
        return growth_degree(_DegreeCounts(self, range(
            stride, self.degree_bound * stride + 1, stride)), self.period(stride))

    def period(self, stride=1):
        """A period of the counts at degrees stride, 2 stride, ... for large
        degrees: the least p for which p k0 stride Q is a lattice polytope,
        Q the limit polytope, that is M / gcd(M, k0 stride) for M the lcm of
        the denominators of Q's vertex coordinates.

        Only the rays touching Q bound the degree-k piece for large k; the
        others are slack by a margin growing with k.  Once the pieces have
        settled, p more strides add p k0 stride Q to the piece (a Minkowski
        sum) if they move each multiplier coefficient on a touching ray by
        whole steps, and the count is then a polynomial along the class
        (McMullen's theorem: P. McMullen, "Valuations and Euler-type
        relations on certain classes of convex polytopes", Proc. London
        Math. Soc., 1977).  The steps are whole for this p: the bound of a
        ray tight at a vertex v of Q is <v, v_rho> = -b_rho + mu - 1 for a
        weight mu = a/q above 1, so q / gcd(q, k0 stride), the period of its
        coefficient, divides the denominator of k0 stride v (a weight <= 1
        has one coefficient at every level, in the constant bounds).  This
        divides the rule it replaced, the lcm over bases B of touching rays
        of |det B| times the multiplier periods on B: a vertex solves the
        system of a basis of its tight rays, whose bounds those periods
        clear.

        When Q is empty the counts vanish for large k and any period holds;
        M is then the lcm of q over the weights above 1, so that a count
        that does not vanish, as under a broken clamp, still repeats along
        its classes.  None of this reads the auxiliary divisor, so each
        stride's period is shared by all twists."""
        if stride not in self._periods:
            limit = limit_polytope(self.variety, self.divisor, self.metric)
            m = lcm(1, *([x.denominator for v in limit.vertices() for x in v]
                         or [q for _, _, q, _ in self._weighted]))
            self._periods[stride] = m // gcd(m, self.k0 * stride)
        return self._periods[stride]


class _DegreeCounts:
    """The counts of a section system at the given degrees, as a sequence
    that counts a degree when it is first read."""

    def __init__(self, system, degrees):
        self.count, self.degrees = system.count, degrees

    def __len__(self):
        return len(self.degrees)

    def __getitem__(self, i):
        return self.count(self.degrees[i])


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
    samples (as one with no sample), else the largest class degree.

    `counts` is any sequence, read by index, and each class only from the
    top down as far as its rules look: its last 2 samples when it is dead,
    its last max(3, d + 2) when it has degree d, all of it when undecided.
    """
    best = NEG_INF
    for end in range(len(counts) - period, len(counts)):
        degree = _class_degree(counts, range(end, -1, -period))
        if degree is None:
            return None
        best = max(best, degree)
    return best


def _class_degree(counts, places):
    """growth_degree of the one class at `places`, from the top down.

    Reading one sample further down extends the two edges of the class's
    difference table by one: `front` holds the differences at the oldest
    sample read, and the new one, x, makes it x, front[0] - x, ...; its
    last entry is the next difference at the top, the one the step-d test
    (top[d + 1] == 0 < top[d]) needs for d one higher."""
    samples = [counts[i] for i in places[:2]]
    if samples == [0, 0]:
        return NEG_INF
    samples += [counts[i] for i in places[2:3]]
    if any(a < b for a, b in zip(samples, samples[1:])):  # falling
        return None
    top, front = [], []
    for x in chain(samples, (counts[i] for i in places[3:])):
        new = [x]
        for f in front:
            new.append(f - new[-1])
        front = new
        top.append(new[-1])
        d = len(top) - 2
        if d >= 0 and top[d + 1] == 0 and top[d] > 0:
            return d
    return None


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
    fractions): the rank of the sum of the degrees' Gram matrices
    (SectionSystem.gram) until it is full.  Each Gram matrix is positive
    semidefinite, so the kernel of the sum is the intersection of their
    kernels, and its rank the dimension of the sum of their row spaces:
    the rank of all their rows together, one `_bareiss` over the Gram rows
    chained degree by degree.  It stops at full rank, before a later
    degree's Gram matrix is built.  NEG_INF when every degree is empty."""
    support = sys.support()
    if not support:
        return NEG_INF
    return len(_bareiss(chain.from_iterable(map(sys.gram, support)),
                        sys.variety.lattice_rank))


def kappa2(sys):
    """Maximal image dimension of the monomial maps: max over nonempty
    degrees of the affine dimension of the exponent hull, the rank of the
    degree's Gram matrix (SectionSystem.rank), read up to the first degree
    of full lattice rank."""
    best = NEG_INF
    for k in sys.support():
        best = max(best, sys.rank(k))
        if best == sys.variety.lattice_rank:  # no degree can exceed it
            break
    return best


def kappa3(sys):
    """Count growth order: hull dimension at the top nonempty degree (the
    rank of its Gram matrix), cross checked against the growth degree of
    the counts by cross_check: a growth degree the bound cannot determine
    (one populated degree fixes none) confirms only a dimension of 0."""
    support = sys.support()
    if not support:
        return NEG_INF
    exact = sys.rank(support[-1])
    return cross_check(
        exact, [sys.growth()],
        "count growth mismatch: top rank {exact}, growth degree {empirical}",
        exact == 0, "degree bound too small")


@dataclass
class KappaValues:
    kappa1: float
    kappa2: float
    kappa3: float
    witness_degree: int | None

    @property
    def kappa(self):
        return self.kappa1


def kappa_report(sys):
    """All three invariants, asserted equal (raises CrossCheckError); the
    witness is the first degree of rank kappa2, whose rank kappa2 cached."""
    v1 = kappa1(sys)
    v2 = kappa2(sys)
    v3 = kappa3(sys)
    if not (v1 == v2 == v3):
        raise CrossCheckError(
            f"section growth invariants disagree: {v1}, {v2}, {v3}")
    witness = next((k for k in sys.support() if sys.rank(k) == v2), None)
    return KappaValues(kappa1=v1, kappa2=v2, kappa3=v3, witness_degree=witness)


# ---------------------------------------------------------------------------
# numerical (perturbed) growth
# ---------------------------------------------------------------------------

def _ray_weights(variety, metric):
    """The weight p/q of each ray as (p, q), (0, 1) off the metric, read off
    its entries once; ValueError naming an id that is not a ray index."""
    mu = [(0, 1)] * len(variety.rays)
    for i, w in metric.entries if metric is not None else ():
        if not (isinstance(i, int) and 0 <= i < len(mu)):
            raise ValueError(f"metric id {i!r} is not a ray index of {variety.name}")
        mu[i] = w.numerator, w.denominator
    return tuple(mu)


def limit_polytope(variety, divisor, metric=None):
    """Normalized limit of the degreewise constraint polytopes:
    {u : <u, v_rho> >= -b_rho + max(mu_rho - 1, 0)}, constraints parallel to
    the rays.  Cached on the variety per (divisor, weights), so its vertices
    are enumerated once per variety; a preset variety is shared by the whole
    process (ToricVariety), and so is this cache, which grows with the
    distinct (divisor, weights) pairs the process sees.  The bounds are
    integers over k0 lcm(q), for q the denominators of the weights."""
    mu, k0 = _ray_weights(variety, metric), divisor.k0
    key = (divisor.nums, k0, mu)
    if key not in variety._limits:
        den = lcm(*(q for _, q in mu))
        variety._limits[key] = Polytope(variety.lattice_rank, variety.rays, [
            (k0 * max(p - q, 0) - q * n) * (den // q)
            for n, (p, q) in zip(divisor.nums, mu)], k0 * den)
    return variety._limits[key]


def _limit_growth_exact(variety, divisor, metric, fattened_rays):
    """Exact growth order of perturbed counts from the limit polytope Q.

    The value is the largest face dimension of Q whose tight constraints
    admit a displacement w with <w, v> >= 1 on limit-strict rays (metric
    weight >= 1, not fattened) and <w, v> >= 0 on neutral rays; fattened
    rays absorb any bounded displacement.  A face is tight on every ray
    that all of Q is tight on, so its displacement system contains Q's,
    and any w for a face serves Q too: that largest face is Q itself when
    there is one.  So the value is dim Q when the rays tight on all of Q
    admit a displacement, and NEG_INF otherwise; with every ray fattened it
    is just dim Q.  dim Q is n less the rank of the normals of the rays
    tight on all of Q, its implicit equalities (Schrijver, "Theory of
    Linear and Integer Programming", 8.2).  Cached on the variety next to
    Q, per limit key and fattened ray set.
    """
    mu = _ray_weights(variety, metric)
    key = (divisor.nums, divisor.k0, mu, frozenset(fattened_rays))
    if key not in variety._limit_growths:
        q = limit_polytope(variety, divisor, metric)
        growth = NEG_INF
        if not q.is_empty():
            on_q = reduce(and_, q.tight_masks())  # bit i: Q lies on ray i
            disp = [i for i in range(len(q.normals))  # parallel to the rays
                    if on_q >> i & 1 and i not in fattened_rays]
            if not (disp and Polytope(
                    variety.lattice_rank, [q.normals[i] for i in disp],
                    [int(mu[i][0] >= mu[i][1]) for i in disp]).is_empty()):
                growth = variety.lattice_rank - rat_rank(  # dim Q
                    [v for i, v in enumerate(q.normals) if on_q >> i & 1])
        variety._limit_growths[key] = growth
    return variety._limit_growths[key]


PERTURBATION_MULTIPLES = (1, 2, 3)


def cross_check(exact, estimates, mismatch, excused, undetermined):
    """exact, once every determinable (not None) estimate equals it, else a
    CrossCheckError; with none determinable, DegreeBoundError unless excused."""
    determined = [e for e in estimates if e is not None]
    for empirical in determined:
        if empirical != exact:
            raise CrossCheckError(
                mismatch.format(exact=exact, empirical=empirical))
    if not determined and not excused:
        raise DegreeBoundError(undetermined)
    return exact


def _perturbed_growth(system, perturbation, stride, route):
    """Growth order of the counts of k*D + m*P for the perturbation P, on
    the variety, divisor, metric and degree bound of the system.

    Exact value from the limit polytope with the support of P fattened, which
    is the same for every m >= 1.  Empirical values: the growth degree of the
    counts (on the first degree-bound multiples of the stride) of the system
    twisted by m*P, for each m in PERTURBATION_MULTIPLES, so every stride
    reads the same twists.  cross_check holds them to the exact value, the
    route named in a mismatch, excused when none is determinable at NEG_INF.
    """
    fattened = {i for i, n in enumerate(perturbation.nums) if n > 0}
    exact = _limit_growth_exact(system.variety, system.divisor, system.metric,
                                fattened)
    estimates = [system.twist(perturbation.scale(m)).growth(stride)
                 for m in PERTURBATION_MULTIPLES]
    return cross_check(
        exact, estimates,
        route + " growth mismatch: exact {exact}, empirical {empirical}",
        exact == NEG_INF, "perturbed growth order could not be estimated")


def kappa_sigma(system, ample=None, stride=1):
    """Perturbed section growth order (numerical dimension flavor) of the
    system's divisor and metric, at its degree bound.

    Exact value from the limit polytope; empirical values as the growth
    degree of the counts of the system's twists by small multiples of the
    ample perturbation.  The routes must agree or CrossCheckError is raised.
    """
    if ample is None:
        ample = system.variety.standard_ample
    elif not is_ample(system.variety, ample):
        raise ValueError("perturbation divisor is not ample")
    return _perturbed_growth(system, ample, stride, "numerical")


def kappa_sigma_hor(system, fibration):
    """Perturbed growth order along divisors pulled back from the base.

    Same as kappa_sigma, but the perturbation is m * f^*(ample on base): only
    pulled-back rays are fattened, so metric rays in the fiber direction stay
    limit-strict and the value can drop below kappa_sigma.
    """
    pulled = fibration.pullback_divisor(fibration.base.standard_ample)
    return _perturbed_growth(system, pulled, 1, "horizontal")
