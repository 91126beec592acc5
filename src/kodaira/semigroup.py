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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, compress, product, repeat, starmap
from operator import add, index, le, mul, ne

from .lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    ScanPlan,
    _bareiss,
    _dots,
    _solve,
    as_int,
    dot,
    hnf_basis,
    hull_polytope,
    int_hull,
    volume_sum,
)


class EmptySemigroupError(ValueError):
    """All levels of the semigroup are empty."""


class DegreeBoundError(ValueError):
    """A degreewise semigroup was queried beyond its stored bound, or a
    degree bound is too small to decide a growth order (`toric.kappa3`,
    `toric.certified_growth`) or an image dimension (`iitaka_analysis`)."""


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


def _coder(n, size):
    """(radix, weights) of the integer code c(p) = sum_j p_j R^(n-1-j) of
    the points of Z^n with |coordinates| <= size, R = 4 size + 1: linear,
    lexicographically order-preserving, and injective on vectors with
    |coordinates| <= 2 size, so on the points and their pairwise sums.  Two
    points' codes differ by 1 iff the points differ by e_n, so a run of
    consecutive codes is a run s, s + e_n, ..., s + j e_n of one column."""
    radix = 4 * size + 1
    return radix, [radix ** (n - 1 - j) for j in range(n)]


def _decode(codes, radix, weights):
    """The points of codes of `_coder(n, size)`, by balanced digits: with
    M = size, coordinate j is the base-R digit of c + 2M sum(weights) at
    weights[j], less 2M."""
    if not weights:
        return [()] * len(codes)
    half = radix // 2
    shift = half * sum(weights)
    shifted = [c + shift for c in codes]
    return list(zip(*[[s // w % radix - half for s in shifted]
                      for w in weights]))


def _run_ends(codes, radix, weights):
    """(starts, tails): the points of sorted distinct codes of `_coder` at
    the starts of their runs of consecutive codes, and at the other ends of
    the runs of two or more.  A run is a run s, s + e_n, ..., s + j e_n of
    one column, so the run ends include the two ends of each column."""
    starts, stops = _runs(codes)
    tails = list(compress(stops, map(ne, stops, starts)))
    points = _decode(starts + tails, radix, weights)
    return points[:len(starts)], points[len(starts):]


class GradedSemigroup:
    """Sub-semigroup of Z^n x Z>=0 with zero as the only level-0 element.

    `generators`: finite list of (u, level) rows in Z^n x Z>0, or None.
    `levels`: dict {k: points of Z^n} for k up to `degree_bound`, used when
    no generator list is given; `check_closure` checks that A_k + A_l is
    contained in A_{k+l} (stored levels are declared closed).

    Every level is kept once, as the sorted distinct codes of its points
    (`codes[k]`, the code of `_coder(n, M)`, `radix` and `weights`), and
    `spanning` holds the codes of the points (u, k) that span the semigroup,
    by increasing level k.  A stored semigroup codes all its levels up
    front, M the largest |coordinate| of any level; `spanning` is its
    nonempty levels up to the degree bound.  A generated semigroup codes its
    levels up to its reach, the degree bound (at least 1): M is the reach
    times the largest |generator coordinate|, which bounds the coordinates
    of every point up to that level.  `spanning` is its generators, and a
    level is built when first asked, as the sorted sums codes[k - l] + c(g)
    over the generators g at level l, since the code is linear.  Asked past
    its reach, it codes again at twice the degree asked.  The closure
    check, `hilbert` and `regularize` read only the codes.
    """

    def __init__(self, ambient_rank, generators=None, levels=None,
                 degree_bound=None, check_closure=True):
        self.ambient_rank = n = as_int(ambient_rank, "ambient_rank")
        if (generators is None) == (levels is None):
            raise ValueError("exactly one of generators/levels must be given")
        if degree_bound is not None:
            degree_bound = as_int(degree_bound, "degree_bound")
            if degree_bound < 0:
                raise ValueError(
                    f"degree_bound must be nonnegative, got {degree_bound}")
        self.degree_bound = degree_bound
        if generators is not None:
            gens = _int_points(generators, "generator")
            for g in gens:
                if len(g) != n + 1:
                    raise ValueError("generator dimension mismatch")
                if g[-1] <= 0:
                    raise ValueError("generator level must be positive")
            self.generators = tuple(sorted(set(gens)))
            self._code_generators(degree_bound or 1)
        else:
            self.generators = None
            rows, size = {}, 0
            for k, pts in levels.items():
                try:
                    k = index(k)
                except TypeError:
                    raise ValueError(
                        f"level keys must be integers, got {k!r}") from None
                if k <= 0:
                    raise ValueError("levels are indexed by positive degrees")
                # entry types checked in one pass; only other types than
                # plain int take the per-point route, which names a bad one
                try:
                    pts = list(pts)
                    flat = (list(chain.from_iterable(pts))
                            if set(map(type, pts)) <= {tuple, list} else None)
                except TypeError:
                    flat = None
                if flat is None or not set(map(type, flat)) <= {int}:
                    pts = _int_points(pts, "point")
                    flat = list(chain.from_iterable(pts))
                if not set(map(len, pts)) <= {n}:
                    raise ValueError("point dimension mismatch")
                if flat:
                    size = max(size, max(flat), -min(flat))
                rows[k] = pts
            self.radix, self.weights = _coder(n, size)
            self.codes = {k: sorted(set(_dots(self.weights, pts)))
                          for k, pts in rows.items()}
            if degree_bound is None:
                self.degree_bound = max(rows, default=0)
            self.spanning = {k: c for k, c in sorted(self.codes.items())
                             if c and k <= self.degree_bound}
            if check_closure:
                self._check_closure()

    def _code_generators(self, reach):
        """Code the generated levels up to degree `reach`: the coder, the
        generator codes by level, and the level-0 code; levels are built by
        `level_codes`."""
        heads = [g[:-1] for g in self.generators]
        self.reach = reach
        self.radix, self.weights = _coder(self.ambient_rank, reach * max(
            map(abs, chain.from_iterable(heads)), default=0))
        spanning = {}
        for g, c in zip(self.generators, _dots(self.weights, heads)):
            spanning.setdefault(g[-1], []).append(c)
        self.spanning = {k: sorted(c) for k, c in sorted(spanning.items())}
        self.codes = {0: [0]}

    # -- structure -----------------------------------------------------------

    def _check_closure(self):
        """Check A_k + A_l ⊆ A_{k+l} for k <= l, k + l within the bound, in
        pair order, exactly.

        Reads the stored codes: the code is linear and injective on the
        points and their pairwise sums (`_coder`), so it checks sums of
        codes.  The sorted codes of a level split into runs of consecutive
        integers; a run plus a run is the run of the summed ends, and it
        lies in C_{k+l} iff its start does and the run of C_{k+l} holding
        that start reaches its end.  Each level's runs are split once, and
        each target level's map from a code to the last code of its run is
        built once, so a pair of runs is one lookup.
        """
        pairs = sorted((k, l) for k in self.codes for l in self.codes
                       if k <= l and k + l <= self.degree_bound)
        codes = self.codes
        runs = {k: _runs(c) for k, c in codes.items()}
        reaches = {}  # target level: {code: last code of its run}
        for k, l in pairs:
            if k + l not in reaches:
                starts, ends = runs.get(k + l, ((), ()))
                reaches[k + l] = dict(zip(codes.get(k + l, ()), chain.from_iterable(
                    repeat(end, end - start + 1) for start, end in zip(starts, ends))))
            (a0, a1), (b0, b1) = runs[k], runs[l]
            lows = starmap(add, product(a0, b0))
            highs = starmap(add, product(a1, b1))
            within = map(reaches[k + l].get, lows, repeat(NEG_INF))
            if not all(map(le, highs, within)):
                raise ValueError(
                    f"declared closure fails: A_{k}+A_{l} escapes A_{k + l}")

    def level_codes(self, k):
        """The sorted codes of the level A_k (the zero code at k = 0)."""
        k = as_int(k, "degree")
        if k < 0:
            raise ValueError("negative degree")
        if k == 0:
            return [0]
        if self.generators is None:
            if k > self.degree_bound:
                raise DegreeBoundError(
                    f"degree {k} beyond stored bound {self.degree_bound}")
            return self.codes.get(k, [])
        if k > self.reach:
            self._code_generators(2 * k)
        codes = self.codes
        for t in range(len(codes), k + 1):
            level = set()
            for l, gens in self.spanning.items():
                if l > t:
                    break
                for c in gens:
                    level.update(map(add, codes[t - l], repeat(c)))
            codes[t] = sorted(level)
        return codes[k]


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
    ind: int | None          # its index in Z^n x {0}, read off the slice solve, or None
    okounkov_dim: int
    okounkov_body: Polytope = field(repr=False)  # C ∩ {level = 1} in Z^n x R
    # G ∩ C at level t m is g0 t + (y · boundary) for the integer y in t times
    # one rational polytope: (ScanPlan over its integer normals, the bounds of
    # the t = 1 slice, (den, den times the (min, max) of each y coordinate
    # over its vertices, integers over that one den), (numerator, denominator)
    # of its volume m^q Vol(Delta), the predicted growth coefficient)
    _slice: tuple = field(repr=False)


def regularize(sg):
    """Regularization of a graded semigroup.

    Computes the group G generated by the graded points (u, k) of the
    semigroup's spanning levels, the level index m, the boundary lattice
    G ∩ {level 0} with its index in Z^n x {0} (None when rank-deficient),
    the Okounkov body Delta = C ∩ {level 1} of the convex cone C over the
    points, and, once, the slice data `hilbert_reg` scales to each level
    and the slice volume `growth_law_check` reads: one hull gives the body,
    its dimension and its volume.  Raises EmptySemigroupError when no level
    is populated, and GeometryError when the body's dimension is not
    rank(G) - 1.
    """
    radix, weights, levels = sg.radix, sg.weights, sg.spanning
    if not levels:
        raise EmptySemigroupError("empty semigroup")
    n = sg.ambient_rank

    # G is generated by the run starts (s, k), and by (e_n, 0) once a run
    # holds two points; (e_n, 0) is read first, so that `hnf_basis` can stop
    # at the identity sooner
    ends = {k: _run_ends(codes, radix, weights) for k, codes in levels.items()}
    unit = ([tuple([0] * (n - 1)) + (1, 0)]
            if any(tails for _, tails in ends.values()) else [])
    basis = hnf_basis(chain(unit, (u + (k,) for k, (starts, _) in ends.items()
                                   for u in starts)))
    rank = len(basis)
    # the HNF of G's basis with the level column first: its first row is a
    # point g0 of G at the least positive level m, and the rows below it,
    # at level 0, are the HNF of the boundary lattice G ∩ {level 0}
    level_first = hnf_basis([row[-1:] + row[:-1] for row in basis])
    g0, *boundary = [row[1:] + row[:1] for row in level_first]
    m = g0[-1]

    body_dim = rank - 1
    # cone over the generators equals the cone over the level-1 hull because
    # every graded point sits at a positive level.  conv(∪ A_k / k) needs
    # only the run ends of each level A_k, which include the two ends of
    # each column; each level is scaled by den / k, den the lcm of the
    # levels, so that one integer hull over den gets them all
    den = math.lcm(*levels)
    hull = int_hull(sorted(set(chain.from_iterable(
        map(tuple, map(map, repeat(partial(mul, den // k)), chain(starts, tails)))
        for k, (starts, tails) in ends.items()))))
    cols, _, verts = hull
    if len(cols) != body_dim:
        raise GeometryError("okounkov dimension disagrees with group rank")
    delta = hull_polytope(hull, den)
    level = tuple([0] * n)
    body = Polytope(n + 1, [v + (0,) for v in delta.normals]
                    + [level + (1,), level + (-1,)], delta.bounds + (den, -den),
                    den, vertices=[v + (Fraction(1),) for v in delta.vertices()])

    # the level-m slice in boundary coordinates y, around a point g0 of
    # G at level m: the hull row <x, v> >= b/den on x = g0 + y · B
    # reads <y, den B v> >= b m - den <g0, v>
    normals = [tuple(den * dot(b[:-1], v) for b in boundary)
               for v in delta.normals]
    bounds = [b * m - den * dot(g0[:-1], v)
              for v, b in zip(delta.normals, delta.bounds)]
    # its vertices are the y of m V / den - g0 for the vertices V of den
    # Delta: den y M = m V - den g0 on the hull's pivot columns, for
    # M the boundary rows there, invertible once the dimensions agree; one
    # solve for all V gives den y as numerators over its last pivot, ±det M
    q = body_dim
    echelon, _ = _bareiss([[b[c] for b in boundary]
                           + [m * v[c] - den * g0[c] for v in verts]
                           for c in cols], q)
    det = echelon[-1][2] if echelon else 1
    # with n boundary rows the pivot columns are all n, so |det M| is ind
    ind = abs(det) if len(boundary) == n else None
    coords = [_solve(echelon, q, j)[1] for j in range(q, q + len(verts))]
    box = tuple((min(c), max(c)) if det > 0 else (-max(c), -min(c))
                for c in zip(*coords))
    # the slice's volume m^q Vol(Delta) in the boundary lattice: the hull's
    # volume on the pivot columns over |det M|, scaled by m / den
    volume = (m ** q * volume_sum(hull),
              math.factorial(q) * den ** q * abs(det))
    slice_data = (ScanPlan(q, normals), tuple(bounds),
                  (abs(det) * den, box), volume)

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
    """Card(A_k): the Hilbert function of the semigroup itself, the number
    of codes of the level."""
    return len(sg.level_codes(k))


def hilbert_reg(reg, k):
    """Hilbert function of the regularization `reg` (from `regularize`):
    Card(G ∩ C ∩ {level k}).

    Valid for any k >= 0, also beyond a degreewise bound.  G meets level k
    only when m divides k; the slice at level t m is t times the level-m
    slice built once by `regularize`, so each level is one integer scan of
    its scaled box and bounds, the box ends rounded by integer division.
    Level 0 is scanned too: its box is the origin, so it counts 1.
    """
    k = as_int(k, "degree")
    if k < 0:
        raise ValueError("negative degree")
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
    of the level-m slice, which `regularize` read off the one hull that gave
    the body and its dimension; empirical = H_reg(m * k_max) / k_max^q, for
    an integer k_max >= 1.  The cone is strongly convex by construction (see
    Regularization).
    """
    k_max = as_int(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    q = reg.okounkov_dim
    m = reg.m
    predicted = Fraction(*reg._slice[3])
    count = hilbert_reg(reg, m * k_max)
    empirical = Fraction(count, k_max ** q)
    gap = abs(empirical - predicted) / predicted
    return GrowthLawReport(q=q, m=m, a_q_empirical=empirical,
                           a_q_predicted=predicted, relative_gap=gap,
                           k_max=k_max)
