"""Graded sub-semigroups of Z^n x Z>=0 and their Newton-Okounkov bodies.

A graded semigroup is given either by a finite generator list (each generator
a point of Z^n at a positive level) or degreewise, as point sets A_k up to a
degree bound.  Regularization intersects the generated group G with the
closed convex cone C over the points; the Okounkov body is the level-1 slice
of C, and the growth coefficient of the regularized Hilbert function is
m^q * Vol(Delta) measured in the lattice G ∩ {level 0}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, compress, product, repeat, starmap
from operator import add, index, itemgetter, le, mul, ne

from .lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    ScanPlan,
    _dots,
    basis_coords,
    det_int,
    dot,
    hnf_basis,
    hull_polytope,
    hull_volume,
    vadd,
)


class EmptySemigroupError(ValueError):
    """All levels of the semigroup are empty."""


class DegreeBoundError(ValueError):
    """A degreewise semigroup was queried beyond its stored bound."""


_CLOSURE_CHECK_BUDGET = 200_000  # pairwise sums; larger inputs get sampled


def _int_points(points, what):
    """Each point as a tuple of ints; a non-integral entry (a float, a
    Fraction, a string) raises ValueError instead of being truncated."""
    try:
        return [tuple(map(index, p)) for p in points]
    except TypeError as exc:
        raise ValueError(f"{what} entries must be integers: {exc}") from None


def _runs(codes):
    """(starts, ends) of the maximal runs of consecutive integers in a sorted
    list of distinct integers."""
    tail = codes[1:]
    breaks = list(map(ne, tail, map(add, codes, repeat(1))))
    return (codes[:1] + list(compress(tail, breaks)),
            list(compress(codes, breaks)) + codes[-1:])


def _column_ends(points):
    """The two ends of each column, a run of points with the same leading
    coordinates, of sorted distinct points (a one-point column's twice): a
    point between them is not a vertex of the hull."""
    heads = list(map(itemgetter(slice(-1)), points))
    breaks = list(map(ne, heads[1:], heads))
    return (points[:1] + list(compress(points[1:], breaks))
            + list(compress(points, breaks)) + points[-1:])


class GradedSemigroup:
    """Sub-semigroup of Z^n x Z>=0 with zero as the only level-0 element.

    `generators`: finite list of (u, level) rows in Z^n x Z>0, or None.
    `levels`: dict {k: set of points in Z^n} for k up to `degree_bound`, used
    when no generator list is given; `check_closure` spot-checks that
    A_k + A_l is contained in A_{k+l} (stored levels are declared closed).
    """

    def __init__(self, ambient_rank, generators=None, levels=None,
                 degree_bound=None, check_closure=True):
        self.ambient_rank = int(ambient_rank)
        if (generators is None) == (levels is None):
            raise ValueError("exactly one of generators/levels must be given")
        if generators is not None:
            gens = _int_points(generators, "generator")
            for g in gens:
                if len(g) != self.ambient_rank + 1:
                    raise ValueError("generator dimension mismatch")
                if g[-1] <= 0:
                    raise ValueError("generator level must be positive")
            self.generators = tuple(sorted(set(gens)))
            self.levels = None
            self.degree_bound = degree_bound
            self._level_cache = {0: {tuple([0] * self.ambient_rank)}}
        else:
            self.generators = None
            lv = {}
            for k, pts in levels.items():
                try:
                    k = index(k)
                except TypeError:
                    raise ValueError(
                        f"level keys must be integers, got {k!r}") from None
                if k <= 0:
                    raise ValueError("levels are indexed by positive degrees")
                lv[k] = set(_int_points(pts, "point"))
                if not set(map(len, lv[k])) <= {self.ambient_rank}:
                    raise ValueError("point dimension mismatch")
            self.levels = lv
            self.degree_bound = int(degree_bound if degree_bound is not None
                                    else (max(lv) if lv else 0))
            if check_closure:
                self._spot_check_closure()
            self._level_cache = None

    @classmethod
    def from_generators(cls, generators, ambient_rank=None):
        gens = [tuple(g) for g in generators]
        if ambient_rank is None:
            if not gens:
                raise ValueError("ambient_rank required for empty generators")
            ambient_rank = len(gens[0]) - 1
        return cls(ambient_rank, generators=gens)

    @classmethod
    def from_levels(cls, ambient_rank, levels, check_closure=True,
                    degree_bound=None):
        return cls(ambient_rank, levels=levels, degree_bound=degree_bound,
                   check_closure=check_closure)

    # -- structure -----------------------------------------------------------

    def _spot_check_closure(self):
        """Check A_k + A_l ⊆ A_{k+l} for k <= l, k + l within the bound, in
        pair order, sampling every len // 14-th point of both sorted sets
        once |A_k| |A_l| exceeds what is left of the budget.

        Each point p becomes the integer code sum_j p_j R^(n-1-j), R = 4M + 1
        for M the largest |coordinate|: linear, order-preserving, and
        injective on vectors with |coordinates| <= 2M, so on the points and
        their pairwise sums.  The sorted codes of a level split into runs of
        consecutive integers; a run plus a run is the run of the summed
        ends, and it lies in C_{k+l} iff it lies in one run of C_{k+l}.
        Each level's runs are split once; only a sampled pair splits its
        sampled codes again.
        """
        pairs = sorted((k, l) for k in self.levels for l in self.levels
                       if k <= l and k + l <= self.degree_bound)
        n = self.ambient_rank
        radix = 4 * max(map(abs, chain.from_iterable(
            chain.from_iterable(self.levels.values()))), default=0) + 1
        weights = [radix ** (n - 1 - j) for j in range(n)]
        codes = {k: sorted(_dots(weights, list(pts)))
                 for k, pts in self.levels.items()}
        runs = {k: _runs(c) for k, c in codes.items()}
        # runs of each target level, with a run (-inf, -inf] in front so the
        # run before the first start has an end below every sum
        targets = {}
        budget = _CLOSURE_CHECK_BUDGET
        for k, l in pairs:
            ck, cl = codes[k], codes[l]
            if len(ck) * len(cl) > budget:  # runs of the sampled codes
                ck = ck[:: max(1, len(ck) // 14)]
                cl = cl[:: max(1, len(cl) // 14)]
                (a0, a1), (b0, b1) = _runs(ck), _runs(cl)
            else:
                (a0, a1), (b0, b1) = runs[k], runs[l]
            budget -= len(ck) * len(cl)
            if k + l not in targets:
                starts, ends = runs.get(k + l, ([], []))
                targets[k + l] = (starts, [NEG_INF] + ends)
            starts, ends = targets[k + l]
            lows = starmap(add, product(a0, b0))
            highs = starmap(add, product(a1, b1))
            within = map(ends.__getitem__, map(bisect_right, repeat(starts), lows))
            if not all(map(le, highs, within)):
                raise ValueError(
                    f"declared closure fails: A_{k}+A_{l} escapes A_{k + l}")
            if budget <= 0:
                break

    def level_points(self, k):
        """The set A_k (computed for generated semigroups, stored otherwise)."""
        k = int(k)
        if k < 0:
            raise ValueError("negative degree")
        if self.generators is not None:
            if k not in self._level_cache:
                for t in range(1, k + 1):
                    if t in self._level_cache:
                        continue
                    acc = set()
                    for g in self.generators:
                        lv = g[-1]
                        if lv <= t:
                            prev = self._level_cache.get(t - lv)
                            if prev:
                                head = g[:-1]
                                acc.update(vadd(p, head) for p in prev)
                    self._level_cache[t] = acc
            return self._level_cache[k]
        if k == 0:
            return {tuple([0] * self.ambient_rank)}
        if k > self.degree_bound:
            raise DegreeBoundError(f"degree {k} beyond stored bound {self.degree_bound}")
        return self.levels.get(k, set())

    def spanning_levels(self):
        """{k: sorted points u} of the points (u, k) that span the semigroup,
        by increasing level k: the generators, or the nonempty stored levels
        up to the degree bound."""
        if self.generators is not None:
            levels = {}
            for g in self.generators:
                levels.setdefault(g[-1], []).append(g[:-1])
            return dict(sorted(levels.items()))
        return {k: sorted(pts) for k, pts in sorted(self.levels.items())
                if pts and k <= self.degree_bound}


@dataclass
class Regularization:
    """Group and Okounkov-body data of a graded semigroup, and the slice data
    that counts G ∩ C at any level.

    The cone C over the semigroup is strongly convex by construction: the
    constraint normals of a nonempty bounded hull span R^n, and the level row
    (0, ..., 0, 1) adds the last coordinate, so the cone rows have rank n + 1.
    """

    group_basis: tuple
    m: int                   # index of the level projection of G in Z
    boundary_lattice: tuple  # basis of G ∩ {level = 0}
    ind: int | None          # index of boundary lattice in Z^n x {0}, or None
    okounkov_dim: int
    okounkov_body: Polytope = field(repr=False)  # C ∩ {level = 1} in Z^n x R
    # G ∩ C at level t m is g0 t + (y · boundary) for the integer y in t times
    # one rational polytope: (ScanPlan over its integer normals, the bounds of
    # the t = 1 slice, (den, den times the (min, max) of each y coordinate
    # over its vertices, integers for den the lcm of their denominators), the
    # y coordinates of its vertices)
    _slice: tuple = field(repr=False)
    strongly_convex: bool = True


def regularize(sg):
    """Regularization of a graded semigroup.

    Computes the group G generated by the graded points (u, k) of the
    semigroup's spanning levels, the level index m, the boundary lattice
    G ∩ {level 0} with its index in Z^n x {0} (None when rank-deficient),
    the Okounkov body Delta = C ∩ {level 1} of the convex cone C over the
    points, and, once, the slice data `hilbert_reg` scales to each level.
    Raises EmptySemigroupError when no level is populated, and GeometryError
    when the body's dimension is not rank(G) - 1.
    """
    levels = sg.spanning_levels()
    if not levels:
        raise EmptySemigroupError("empty semigroup")
    n = sg.ambient_rank

    basis = hnf_basis(u + (k,) for k, pts in levels.items() for u in pts)
    rank = len(basis)
    # the HNF of G's basis with the level column first: its first row is a
    # point g0 of G at the least positive level m, and the rows below it,
    # at level 0, are the HNF of the boundary lattice G ∩ {level 0}
    level_first = hnf_basis([row[-1:] + row[:-1] for row in basis])
    g0, *boundary = [row[1:] + row[:1] for row in level_first]
    m = g0[-1]

    ind = abs(det_int([row[:-1] for row in boundary])) if len(boundary) == n else None

    body_dim = rank - 1
    # cone over the generators equals the cone over the level-1 hull because
    # every graded point sits at a positive level.  conv(∪ A_k / k) needs
    # only the column ends of each level A_k (sorted and distinct); each
    # level is scaled by den / k, den the lcm of the levels, so that one
    # integer hull over den gets them all
    den = math.lcm(*levels)
    hull = hull_polytope(sorted(set(chain.from_iterable(
        map(tuple, map(map, repeat(partial(mul, den // k)), _column_ends(pts)))
        for k, pts in levels.items()))), den)
    if hull.affine_dim() != body_dim:
        raise GeometryError("okounkov dimension disagrees with group rank")
    lifted = [(v + (0,), c) for v, c in hull.constraints]
    lifted.append((tuple([0] * n) + (1,), Fraction(1)))
    lifted.append((tuple([0] * n) + (-1,), Fraction(-1)))
    body = Polytope(n + 1, lifted,
                    vertices=[v + (Fraction(1),) for v in hull.vertices()])

    # the level-m slice in boundary coordinates y, around a point g0 of
    # G at level m: the hull row <x, v> >= num/den on x = g0 + y · B
    # reads <y, den B v> >= num m - den <g0, v>, and its vertices are the
    # coordinates of m v - g0 for the vertices v of Delta
    normals, bounds = [], []
    for v, c in hull.constraints:
        normals.append(tuple(c.denominator * dot(b[:-1], v) for b in boundary))
        bounds.append(c.numerator * m - c.denominator * dot(g0[:-1], v))
    coords = basis_coords(boundary, [tuple(m * x - g for x, g in zip(v, g0))
                                     for v in body.vertices()])
    box = [(min(c), max(c)) for c in zip(*coords)]
    box_den = math.lcm(1, *(x.denominator for x in chain(*box)))
    box = tuple((int(lo * box_den), int(hi * box_den)) for lo, hi in box)
    slice_data = (ScanPlan(len(boundary), normals), tuple(bounds),
                  (box_den, box), coords)

    return Regularization(
        group_basis=tuple(basis),
        m=m,
        boundary_lattice=tuple(boundary),
        ind=ind,
        okounkov_dim=body_dim,
        okounkov_body=body,
        _slice=slice_data,
    )


def hilbert(sg, k):
    """Card(A_k): the Hilbert function of the semigroup itself."""
    return len(sg.level_points(k))


def hilbert_reg(reg, k):
    """Hilbert function of the regularization `reg` (from `regularize`):
    Card(G ∩ C ∩ {level k}).

    Valid for any k >= 0, also beyond a degreewise bound.  G meets level k
    only when m divides k; the slice at level t m is t times the level-m
    slice built once by `regularize`, so each level is one integer scan of
    its scaled box and bounds, the box ends rounded by integer division.
    """
    k = int(k)
    if k < 0:
        raise ValueError("negative degree")
    if k == 0:
        return 1
    t, r = divmod(k, reg.m)
    if r:
        return 0
    plan, bounds, (den, box), _ = reg._slice
    return plan.scan([(-(-t * lo // den), t * hi // den) for lo, hi in box],
                     [t * b for b in bounds])


@dataclass
class GrowthLawReport:
    q: int
    m: int
    a_q_empirical: Fraction
    a_q_predicted: Fraction
    relative_gap: Fraction
    k_max: int


def growth_law_check(reg, k_max=200):
    """Growth coefficient of the regularized Hilbert function vs. the body,
    for the regularization `reg` (from `regularize`).

    predicted = m^q * Vol(Delta) in boundary-lattice coordinates, the volume
    of the level-m slice, read from the coordinates of its vertices that
    `regularize` solved (`hull_volume`);
    empirical = H_reg(m * k_max) / k_max^q.  The cone is strongly convex by
    construction (see Regularization).
    """
    q = reg.okounkov_dim
    m = reg.m
    # boundary lattice rank is exactly rank(G) - 1 = q here
    predicted = hull_volume(reg._slice[3])
    count = hilbert_reg(reg, m * k_max)
    empirical = Fraction(count, k_max ** q)
    gap = abs(empirical - predicted) / predicted
    return GrowthLawReport(q=q, m=m, a_q_empirical=empirical,
                           a_q_predicted=predicted, relative_gap=gap,
                           k_max=k_max)
