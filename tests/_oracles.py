"""Independent brute-force oracles shared by the test modules.

Every oracle here deliberately uses a different algorithm than the library
path it checks (enumeration, interpolation, Caratheodory decomposition), so
expected values are computed rather than copied.  The module also holds the
lattice helpers that only tests use (`in_row_lattice`, `solve_in_lattice`,
`dilate`), the per-level regularized Hilbert function
(`hilbert_reg_per_level`) that the library's slice scaling replaced, and the
per-point closure check (`closure_check_per_point`) that the library's run
check on integer codes replaced, and the per-point lattice insertions
(`diff_lattice_per_point`, `kappa1_per_point`, `iitaka_fibers_per_point`)
that the library's Gram-matrix spans replaced.  The lattice they insert
into (`IntLattice`, extended-gcd Hermite rows grown one vector at a time)
is the one `int_hull` read its dimension and pivot columns off before
`_bareiss` gave them; it stays as the incremental Hermite reference of
those insertions, `span_rank` and the saturation references.  The exact
rational linear algebra the library's fraction-free core replaced lives
here too, as the references it is compared against: Fraction Gauss-Jordan
(`rref`, `solve_rational`, `solve_linear_system`, and `rational_rank`, the
rank of rational rows, which the library's `rat_rank` takes as integers
only; `_integral` scales a rational row to integers), vertices from one
Fraction solve per n-subset of constraints (`vertices_by_rref`),
Fourier-Motzkin emptiness (`fm_is_empty`), lattice
membership (`lattice_contains`) and the perturbed growth order from a walk
over every ray mask (`limit_growth_mask_walk`); the rank of a point set's
differences (`affine_rank`) is the reference for the limit polytope's
dimension, read off its implicit equalities.  The column-by-column Euclid
chase the library's gcd insertion replaced (`hnf_euclid_chase`, the full
(H, U) that the library never builds, with the kernel, basis and saturation
built on it) and the lattice route of `regularize` it replaced
(`regularize_lattice_reference`: a level kernel, the combinations, a
second HNF and an extended-gcd point) are references
too, and so are the Cramer's-rule fan data the cone inverses of
`ToricVariety` replaced: the ray multipliers of +-e_i
(`direction_multipliers_cramer`, `scan_rows_cramer`) and the cone-vertex
ampleness test (`is_ample_cramer`), on cofactor determinants.  The
`Fraction` divisor record that `ToricDivisorData`'s integer numerators over
k0 replaced (`FractionDivisor`, k0 from an lcm on every read) is the
reference for the divisor arithmetic, the fibration pullback and
restriction (`pullback_reference`, `restrict_reference`) and the polytope
bounds (`divisor_bounds_reference`, `limit_bounds_reference`).  The body
route of `regularize` its one integer hull over the lcm of the levels
replaced (`regularize_per_level`: one `int_hull` per level, its vertices
divided by k as Fractions, one `rational_hull` of their union, and the
slice box kept as Fractions) is the reference for the Okounkov body.  The
library reads the body, its dimension and its volume off one `int_hull`;
the two-hull route it replaced is the reference for the growth-law
volume (`slice_volume_two_hulls`: `hull_volume`, a second hull, of the
Fraction boundary coordinates `basis_coords` of the slice vertices).
`scaled_hull` puts the rational scaling around `int_hull`, `rational_hull`
reads its `hull_polytope`, and `body_volume` divides the library's
`volume_sum` by the determinant of a lattice basis on the hull's pivot
columns.  The hull route that read its dimension, pivot columns and
equality normals off an `IntLattice` and tested a vertex by enumerating
determinants (`hull_by_hermite`) is the reference for the Bareiss route
that replaced it.  The tuple route the coded levels of `GradedSemigroup`
replaced is the reference for them: levels as
sets of `operator.index` tuples (`tuple_levels`), the two ends of each
column (`column_ends`), and the group basis from every point and the hull
of the column ends (`regularize_tuple_route`); `spanning_points` reads a
semigroup's spanning levels as tuples, and `level_points` decodes one
level.  The two semigroup constructors only tests use live here too: a
semigroup from its generator rows (`from_generators`) and a section
system's exponent sets as stored levels (`to_semigroup`).  The rank reads
the moment Grams of `SectionSystem.gram` replaced are references too:
`span_rank`, one Gram matrix of the differences from each set's first
point, read in doubling prefixes, `int_points_rank` on it, and the kappa
and Iitaka reads on them (`kappa_routes_span_rank`, `iitaka_span_rank`);
`gram_of_points` builds a point list's Gram matrix point by point.  The
column walk that listed each innermost column of a `ScanPlan`, before the
plan kept only counts and moments (`scan_points`, unsplit and unmemoised),
is the reference for `ScanPlan.scan` and `ScanPlan.moments`, with
`point_moments` summed point by point; `section_points` lists a section
system's degree piece with it, and is the default exponent set reader
`points(k)` of the kappa, Iitaka and semigroup references above.  The
subadditivity pairs of a coefficient list, compared pair by pair
(`subadditivity_pairs_pairwise`), are the reference for the row test of
`subadditivity_scan`.  The two-coordinate count leaf that split every
line crossing at an integer point, and kept a y bound with no x term as a
line (`EveryCrossingPlan`), is the reference for `ScanPlan`'s leaf, and
the growth degree that read each residue class's last `cap` samples
before the whole class (`growth_degree_capped`) is the reference for the
lazy read of `growth_degree`.  The section system constructor that
folded an auxiliary divisor in itself, before `SectionSystem.twist` became
the only way to add one (`FreshSectionSystem`), is the fresh-system
reference the twists are compared against.  The count period that took
the lcm over every nonsingular n-subset of rays touching the limit
polytope of its determinant times the multiplier periods on it
(`period_by_ray_subsets`) is the reference the limit polytope's
denominator must divide.  The oracles read and write
polytopes as rational (normal, bound) pairs, <u, normal> >= bound:
`rational_polytope` scales them to the integer record of `Polytope`,
`rational_pairs` reads a polytope back.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, compress, product
from operator import and_, index, itemgetter, mul, ne, or_

from kodaira.lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    ScanPlan,
    _bareiss,
    _hull,
    _insert,
    _solve,
    as_int,
    as_int_row,
    det_int,
    floor_sum,
    dot,
    hnf_basis,
    hull_polytope,
    int_hull,
    int_kernel,
    volume_sum,
    vsub,
    xgcd,
)
from kodaira.multiplier import EMPTY_METRIC
from kodaira.semigroup import DegreeBoundError, GradedSemigroup, _decode
from kodaira.toric import (
    DEFAULT_DEGREE_BOUND,
    CrossCheckError,
    SectionSystem,
    limit_polytope,
)


def rational_polytope(n, pairs, vertices=None):
    """The Polytope of rational (normal, bound) pairs: the integer normals,
    and the bounds as integers over their common denominator."""
    pairs = [(v, Fraction(c)) for v, c in pairs]
    den = math.lcm(1, *(c.denominator for _, c in pairs))
    return Polytope(n, [v for v, _ in pairs],
                    [c.numerator * (den // c.denominator) for _, c in pairs],
                    den, vertices)


def rational_pairs(poly):
    """The rows of a Polytope as rational (normal, bound) pairs."""
    return [(v, Fraction(b, poly.den)) for v, b in zip(poly.normals, poly.bounds)]


def rref(rows, ncols):
    """Reduced row echelon form of a rational matrix, pivoting only in the
    first ncols columns: (rows as lists of Fractions, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def rational_rank(rows):
    """Rank of a rational matrix: the number of `rref` pivots."""
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def _integral(row):
    """A rational row scaled to integers by the lcm of its denominators."""
    den = math.lcm(1, *(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def solve_rational(a_rows, b):
    """Solve A x = b exactly (A square, rows of rationals); None if singular."""
    n = len(a_rows)
    work, pivots = rref([list(r) + [b[i]] for i, r in enumerate(a_rows)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in work)


def solve_linear_system(a_rows, b):
    """One exact solution x of A x = b for a consistent (possibly non-square)
    system, or None if inconsistent."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    work, pivots = rref([list(a_rows[i]) + [b[i]] for i in range(m)], n)
    if any(row[n] != 0 for row in work[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(work, pivots):
        x[col] = row[n]
    return tuple(x)


def vertices_by_rref(poly):
    """Vertices of a Polytope, sorted: the Fraction solve of every n-subset
    of its constraints that satisfies all of them."""
    n = poly.ambient_dim
    if n == 0:
        return () if fm_is_empty(poly) else ((),)
    found = set()
    cons = rational_pairs(poly)
    for idx in combinations(cons, n):
        sol = solve_rational([v for v, _ in idx], [c for _, c in idx])
        if sol is not None and all(dot(sol, v) >= c for v, c in cons):
            found.add(sol)
    return tuple(sorted(found))


def _fm_eliminate(constraints, var):
    """Fourier-Motzkin: the constraints (v, c), <u, v> >= c, with variable
    var eliminated; parallel rows keep their largest bound."""
    lower = [(v, c) for v, c in constraints if v[var] > 0]
    upper = [(v, c) for v, c in constraints if v[var] < 0]
    best = {}
    for v, c in constraints:
        if v[var] == 0:
            best[v] = max(c, best.get(v, c))
    for vp, cp in lower:
        for vn, cn in upper:
            a, b = vp[var], -vn[var]
            w = tuple(b * x + a * y for x, y in zip(vp, vn))
            d = Fraction(b * cp + a * cn)
            g = math.gcd(*w)
            if g > 1:
                w, d = tuple(x // g for x in w), d / g
            best[w] = max(d, best.get(w, d))
    return list(best.items())


def fm_is_empty(poly):
    """Emptiness by eliminating every variable: infeasible iff some
    remaining constraint reads 0 >= c with c > 0."""
    cons = rational_pairs(poly)
    for var in range(poly.ambient_dim):
        cons = _fm_eliminate(cons, var)
    return any(c > 0 for _, c in cons)


class IntLattice:
    """Mutable integer lattice kept in row-echelon form via gcd insertion
    (`_insert`): the incremental Hermite reference of `span_rank`,
    `diff_lattice_per_point`, `lattice_contains` and the saturation
    references.  Vectors are added one at a time and the rank is read
    cheaply; entries stay small, as no fraction-free step is taken."""

    def __init__(self, ambient_dim):
        self.n = as_int(ambient_dim, "ambient dimension")
        self.rows = []        # echelon rows, pivot columns strictly increase
        self.pivots = []      # pivot column per row

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert vec; True when it adds a pivot row (the rank grows)."""
        return _insert(self.rows, self.pivots, as_int_row(vec, "vector entry"),
                       self.n) is None

    def basis(self):
        return [tuple(r) for r in self.rows]


def lattice_contains(lat, vec):
    """Membership of an integer vector in an IntLattice, reduced along its
    echelon rows."""
    v = [int(x) for x in vec]
    for row, piv in zip(lat.rows, lat.pivots):
        if v[piv] != 0:
            if v[piv] % row[piv] != 0:
                return False
            q = v[piv] // row[piv]
            for jj in range(piv, lat.n):
                v[jj] -= q * row[jj]
    return all(x == 0 for x in v)


def limit_growth_mask_walk(variety, divisor, metric, fattened_rays):
    """Reference for `toric._limit_growth_exact`: every face of the limit
    polytope from a walk over all 2^#rays masks (the vertices tight on
    every ray of the mask), each checked for a feasible displacement with
    Fourier-Motzkin; the largest feasible face dimension."""
    metric = metric if metric is not None else EMPTY_METRIC
    q = limit_polytope(variety, divisor, metric)
    if fm_is_empty(q):
        return float("-inf")
    verts = vertices_by_rref(q)
    cons = rational_pairs(q)
    tight = [sum(1 << i for i, (v, c) in enumerate(cons) if dot(p, v) == c)
             for p in verts]
    faces = set()
    for mask in range(1 << len(cons)):
        vset = tuple(j for j, t in enumerate(tight) if t & mask == mask)
        if vset:
            faces.add(vset)
    best = float("-inf")
    for vset in faces:
        full_tight = reduce(and_, (tight[j] for j in vset))
        disp = [(cons[i][0], 1 if dict(metric.entries).get(i, 0) >= 1 else 0)
                for i in range(len(cons))
                if full_tight >> i & 1 and i not in fattened_rays]
        if not disp or not fm_is_empty(rational_polytope(variety.lattice_rank, disp)):
            best = max(best, affine_dimension([verts[j] for j in vset]))
    return best


def in_hull(point, points):
    """Caratheodory membership test: point lies in conv(points) iff it lies in
    the hull of some dim + 1 of them, dim the dimension of their affine hull
    (checked by solving barycentric coordinates exactly)."""
    pts = list(points)
    if not pts:
        return False
    n = len(pts[0])
    r = affine_dimension(pts) + 1
    for sub in combinations(pts, r):
        rows = [[Fraction(p[i]) for p in sub] for i in range(n)]
        rows.append([Fraction(1)] * r)
        rhs = [Fraction(point[i]) for i in range(n)] + [Fraction(1)]
        lam = solve_linear_system(rows, rhs)
        if lam is not None and all(x >= 0 for x in lam):
            # solve_linear_system returns one solution; verify it
            ok = all(
                sum(lam[j] * sub[j][i] for j in range(r)) == point[i]
                for i in range(n)
            ) and sum(lam) == 1
            if ok:
                return True
    return False


def coset_count(basis, box_side):
    """Index of the lattice spanned by `basis` in Z^n by brute-force coset
    enumeration over a box (valid when the box side is a multiple of every
    elementary divisor; callers pick generous sides)."""
    n = len(basis[0])
    reps = set()
    for pt in product(range(box_side), repeat=n):
        reps.add(_reduce_mod(list(pt), basis))
    return len(reps)


def _reduce_mod(v, basis):
    from kodaira.lattice import hnf_basis
    rows = hnf_basis(basis)
    for row in rows:
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        q = v[col] // row[col]
        for j in range(len(v)):
            v[j] -= q * row[j]
    return tuple(v)


def in_row_lattice(vec, basis):
    """Membership of an integer vector in the lattice spanned by HNF rows."""
    v = [int(x) for x in vec]
    for row in basis:
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        if q:
            for j in range(len(v)):
                v[j] -= q * row[j]
    return all(x == 0 for x in v)


def solve_in_lattice(target, rows):
    """Integer coefficients x with x * rows == target, or None."""
    h, u = hnf_euclid_chase(rows)
    v = [int(x) for x in target]
    coeff = [0] * len(h)
    for i, row in enumerate(h):
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        if v[col] % row[col] != 0:
            return None
        q = v[col] // row[col]
        coeff[i] = q
        if q:
            for j in range(len(v)):
                v[j] -= q * row[j]
    if any(x != 0 for x in v):
        return None
    m = len(rows)
    out = [0] * m
    for i in range(len(h)):
        if coeff[i]:
            for j in range(m):
                out[j] += coeff[i] * u[i][j]
    return tuple(out)


def dilate(poly, k):
    """The dilate k*P of an H-polytope (bounds scale, normals do not)."""
    return Polytope(poly.ambient_dim, poly.normals,
                    [b * k for b in poly.bounds], poly.den)


def interpolate_polynomial(samples):
    """Exact Lagrange interpolation through (x, y) rational samples; returns a
    callable evaluating the unique polynomial of degree < len(samples)."""
    samples = [(Fraction(x), Fraction(y)) for x, y in samples]

    def evaluate(x):
        x = Fraction(x)
        total = Fraction(0)
        for i, (xi, yi) in enumerate(samples):
            term = yi
            for j, (xj, _) in enumerate(samples):
                if i != j:
                    term *= (x - xj) / (xi - xj)
            total += term
        return total

    return evaluate


def semigroup_level_points(generators, level):
    """All points of the graded semigroup generated by `generators` at the
    given level, by exhaustive enumeration of coefficient vectors."""
    gens = [tuple(g) for g in generators]
    levels = [g[-1] for g in gens]
    pts = set()

    def rec(i, remaining, acc):
        if i == len(gens):
            if remaining == 0:
                pts.add(tuple(acc))
            return
        g, lv = gens[i], levels[i]
        c = 0
        while c * lv <= remaining:
            rec(i + 1, remaining - c * lv,
                [a + c * b for a, b in zip(acc, g)])
            c += 1

    n = len(gens[0]) if gens else 0
    rec(0, level, [0] * n)
    return {p[:-1] for p in pts}


def grid_lattice_points(constraints, box):
    """Filter an integer box through H-constraints directly.  An integer
    point sees <u, v> >= c only through an integer multiple of v and the
    ceiling of the matching bound, so each constraint is folded to that
    form once."""
    folded = []
    for v, c in constraints:
        scale = math.lcm(1, *(Fraction(x).denominator for x in v))
        folded.append((tuple(int(x * scale) for x in v),
                       math.ceil(Fraction(c) * scale)))
    out = []
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for pt in product(*ranges):
        if all(sum(map(mul, pt, v)) >= c for v, c in folded):
            out.append(pt)
    return sorted(out)


def scan_points(plan, box, bounds):
    """The points u of the box with <u, v_i> >= bounds[i] for the normals
    v_i of a ScanPlan, in lexicographic order: the column walk the plan
    once listed points with, unsplit and unmemoised.  Coordinate by
    coordinate, each constraint whose last nonzero entry is the current
    coordinate bounds it once the earlier ones are fixed, and the innermost
    range is listed as a column; a zero normal is checked once.  The
    reference for `ScanPlan.scan` and `ScanPlan.moments`."""
    n = plan.dim
    last = [[] for _ in range(n)]  # constraints by last nonzero entry
    for i, v in enumerate(plan.normals):
        support = [j for j, a in enumerate(v) if a]
        if support:
            last[support[-1]].append(i)
        elif bounds[i] > 0:
            return []
    if any(lo > hi for lo, hi in box):
        return []
    if n == 0:
        return [()]
    out, head = [], []

    def rec(depth):
        lo, hi = box[depth]
        for i in last[depth]:
            v = plan.normals[i]
            c = bounds[i] - sum(map(mul, v, head))
            if v[depth] > 0:
                lo = max(lo, -(-c // v[depth]))
            else:
                hi = min(hi, c // v[depth])
        if depth == n - 1:
            out.extend(tuple(head) + (y,) for y in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            head.append(x)
            rec(depth + 1)
            head.pop()
    rec(0)
    return out


def section_points(system, k):
    """The exponent set of a `SectionSystem`'s degree-k piece, listed by
    `scan_points` as a tuple."""
    return tuple(scan_points(system._plan, *system._piece(k)))


def point_moments(points, n):
    """(N, S1, S2) of a list of points of Z^n, summed point by point: the
    reference for `ScanPlan.moments`."""
    pts = list(points)
    return (len(pts), [sum(p[i] for p in pts) for i in range(n)],
            [[sum(p[i] * p[j] for p in pts) for j in range(n)]
             for i in range(n)])


def _lister(sys, points):
    """The degree -> exponent set reader of a reference: points when
    given, else `section_points` on sys, cached per degree."""
    return cache(partial(section_points, sys)) if points is None else points


def hull_vertex_set(points):
    """Minimal vertex set of conv(points): p is a vertex iff it is not in the
    hull of the remaining points."""
    pts = sorted(set(points))
    return {p for p in pts if not in_hull(p, [q for q in pts if q != p])}


def affine_rank(points):
    """Dimension of the affine hull of a point set (NEG_INF when empty): the
    rank of the differences from the first point.  The reference for the
    limit polytope's dimension, which `toric._limit_growth_exact` reads off
    its implicit equalities."""
    pts = list(points)
    if not pts:
        return NEG_INF
    p0 = pts[0]
    return rational_rank([vsub(p, p0) for p in pts[1:]]) if len(pts) > 1 else 0


def affine_dimension(points):
    """Dimension of the affine hull by plain Fraction elimination of the
    difference vectors (-inf for no points)."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        return float("-inf")
    rows = [vsub(p, pts[0]) for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        piv = next((r for r in rows if r[col] != 0), None)
        if piv is None:
            continue
        rows = [vsub(r, tuple(r[col] / piv[col] * x for x in piv))
                for r in rows if r is not piv]
        rank += 1
    return rank


def _primitive_normal(v):
    scale = math.lcm(1, *(Fraction(x).denominator for x in v))
    w = [int(Fraction(x) * scale) for x in v]
    g = math.gcd(*w)
    return tuple(x // g for x in w)


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row (no pivoting,
    no division), independent of the library's Bareiss `det_int`."""
    if not rows:
        return 1
    return sum((-1) ** i * a * laplace_det([r[:i] + r[i + 1:] for r in rows[1:]])
               for i, a in enumerate(rows[0]) if a)


def facet_scan(points):
    """Facets of conv(points), a full-dimensional set in R^n, n >= 2, by
    enumerating every hyperplane through n of the points, a scan independent
    of the library's incremental hull: those with all points on one side, as
    (primitive inward normal, Fraction bound).  A hyperplane's normal is the
    vector of Laplace cofactors of its n - 1 difference vectors."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    n = len(pts[0])
    facets = set()
    for sub in combinations(pts, n):
        a = sub[0]
        u = [vsub(p, a) for p in sub[1:]]
        nrm = tuple((-1) ** i * laplace_det([r[:i] + r[i + 1:] for r in u])
                    for i in range(n))
        if all(x == 0 for x in nrm):
            continue
        nrm = _primitive_normal(nrm)
        sides = {dot(vsub(p, a), nrm) > 0 for p in pts if dot(vsub(p, a), nrm) != 0}
        if len(sides) == 1:
            inward = nrm if sides == {True} else tuple(-x for x in nrm)
            facets.add((inward, dot(a, inward)))
    return facets


def pyramid_volume(points):
    """Euclidean volume of conv(points), a full-dimensional set in R^d, d >= 1:
    the pyramids from one point over the facets of `facet_scan`, each facet
    measured through its projection to a coordinate hyperplane (which scales
    its area by |w_i| / |w|, so no square root appears)."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    d = len(pts[0])
    if d == 1:
        return pts[-1][0] - pts[0][0]
    total = Fraction(0)
    for w, h in facet_scan(pts):
        i = next(j for j, x in enumerate(w) if x != 0)
        face = [p[:i] + p[i + 1:] for p in pts if dot(p, w) == h]
        total += (dot(pts[0], w) - h) * pyramid_volume(face) / abs(w[i])
    return total / d


def direction_multipliers_cramer(variety):
    """((i, sign), {ray: multiplier}) for each direction +-e_i: the nonzero
    multipliers of the rays of the first maximal cone (in max_cones order)
    that writes the direction as a nonnegative combination, each solved by
    Cramer's rule with cofactor determinants (the cone's determinant is
    +-1 on a smooth fan, so each is a determinant times it)."""
    n = variety.lattice_rank
    out = []
    for i in range(n):
        for sign in (1, -1):
            d = tuple(sign if j == i else 0 for j in range(n))
            for cone in variety.max_cones:
                idx = sorted(cone)
                rows = [variety.rays[r] for r in idx]
                det = laplace_det(rows)
                lam = [det * laplace_det(rows[:j] + [d] + rows[j + 1:])
                       for j in range(n)]
                if all(x >= 0 for x in lam):
                    out.append(((i, sign),
                                {r: x for r, x in zip(idx, lam) if x != 0}))
                    break
            else:
                raise ValueError("fan is not complete")
    return tuple(out)


def scan_rows_cramer(variety):
    """The box rows of `ToricVariety.scan_plan` from
    `direction_multipliers_cramer`: row i holds the (ray, multiplier) pairs
    of +e_i and of -e_i."""
    mults = {d: tuple(m.items()) for d, m in direction_multipliers_cramer(variety)}
    return tuple((mults[i, 1], mults[i, -1]) for i in range(variety.lattice_rank))


def is_ample_cramer(variety, divisor):
    """Cone-vertex ampleness with each m_sigma solved by Cramer's rule: D is
    integral and, for every maximal cone, <m_sigma, v_rho> > -b_rho on every
    ray outside it."""
    if not divisor.is_integral():
        return False
    b = [int(c) for c in ray_fractions(divisor)]
    for cone in variety.max_cones:
        rows = [variety.rays[i] + (-b[i],) for i in sorted(cone)]
        det = laplace_det([r[:-1] for r in rows])
        m = [det * laplace_det([r[:j] + r[-1:] + r[j + 1:-1] for r in rows])
             for j in range(variety.lattice_rank)]
        if any(dot(m, ray) <= -c for i, (ray, c) in enumerate(zip(variety.rays, b))
               if i not in cone):
            return False
    return True


def ample_by_vertices(variety, divisor):
    """Ampleness read off the Fraction divisor polytope: D is ample iff it is
    integral and the vertices of P_D are exactly the points m_sigma cut out by
    the maximal cones (<m, v_rho> = -b_rho on the cone's rays), pairwise
    distinct, so that the normal fan of P_D is the fan itself."""
    if not divisor.is_integral():
        return False
    b = ray_fractions(divisor)
    cone_points = [
        solve_linear_system([variety.rays[i] for i in sorted(cone)],
                            [-b[i] for i in sorted(cone)])
        for cone in variety.max_cones]
    poly = rational_polytope(variety.lattice_rank, zip(variety.rays, [-c for c in b]))
    verts = set() if poly.is_empty() else set(poly.vertices())
    return (len(set(cone_points)) == len(cone_points)
            and set(cone_points) == verts)


def hilbert_reg_per_level(reg, k):
    """Card(G ∩ C ∩ {level k}) built from scratch for the one level: a point
    of G at level k, then a fresh Polytope of the level-k slice in
    boundary-lattice coordinates around it, tested for emptiness and
    counted column by column over its vertex box, not by ScanPlan.  (x, k)
    lies in C iff x lies in k * Delta, read off the Okounkov body."""
    if k == 0:
        return 1
    base = _group_point_at_level(reg.group_basis, k)
    if base is None:
        return 0
    cons = [(w[:-1], k * (c - w[-1])) for w, c in rational_pairs(reg.okounkov_body)]
    b = reg.boundary_lattice
    if not b:
        pt = base[:-1]
        return 1 if all(dot(pt, v) >= c for v, c in cons) else 0
    # points of G at level k form base + (boundary lattice)
    new_cons = []
    for v, c in cons:
        w = tuple(dot(row[:-1], v) for row in b)
        new_cons.append((w, c - dot(base[:-1], v)))
    poly = rational_polytope(len(b), new_cons)
    if poly.is_empty():
        return 0
    *outer, last = [(math.ceil(min(c)), math.floor(max(c)))
                    for c in zip(*poly.vertices())]
    cons = [(v, math.ceil(c)) for v, c in rational_pairs(poly)]  # same points
    total = 0
    for head in product(*(range(lo, hi + 1) for lo, hi in outer)):
        lo, hi = last
        for v, c in cons:
            r, a = c - dot(head, v), v[-1]  # a u_last >= r
            if a > 0:
                lo = max(lo, -(-r // a))
            elif a < 0:
                hi = min(hi, r // a)
            elif r > 0:
                hi = lo - 1
        total += max(hi - lo + 1, 0)
    return total


def scaled_hull(points):
    """(int_hull, den) of rational points: `int_hull` of the points scaled
    to integers by their common denominator den, sorted and deduplicated."""
    rows = [tuple(map(Fraction, p)) for p in points]
    den = math.lcm(1, *(x.denominator for p in rows for x in p))
    return int_hull(sorted({tuple(x.numerator * (den // x.denominator)
                                  for x in p) for p in rows})), den


def rational_hull(points):
    """`hull_polytope` of rational points, on their `scaled_hull`."""
    return hull_polytope(*scaled_hull(points))


def body_volume(poly, basis):
    """Volume of a polytope in the lattice of integer basis rows spanning
    its direction space (GeometryError otherwise), by the library's
    `volume_sum` of the `scaled_hull` of its vertices over den:
    sum / (q! den^q |det M|), M the basis on the hull's q pivot columns."""
    hull, den = scaled_hull(poly.vertices())
    cols, _, verts = hull
    q = len(cols)
    if len(basis) != q or rational_rank(
            list(basis) + [vsub(v, verts[0]) for v in verts]) != q:
        raise GeometryError("basis does not span direction space")
    det = det_int([[b[c] for c in cols] for b in basis])
    return Fraction(volume_sum(hull), math.factorial(q) * den ** q * abs(det))


def hull_by_hermite(pts):
    """Reference for `int_hull` and `hull_polytope` (over den 1), the route
    that read the hull's dimension and pivot columns off the `IntLattice`
    of the differences from pts[0] (sorted distinct integer points, stopped
    at full rank): (pivots, vertices, normals, bounds).  A corner is a
    vertex when some d of its tight facet normals have a nonzero
    determinant, and the equality normals are the HNF basis of the integer
    orthogonal complement of the lattice's Hermite rows."""
    p0 = pts[0]
    n = len(p0)
    lat = IntLattice(n)
    for p in pts[1:]:
        if lat.rank == n:
            break
        lat.add(vsub(p, p0))
    d, cols = lat.rank, lat.pivots
    normals, bounds = [], []
    for w in (hnf_basis(int_kernel([tuple(r[i] for r in lat.rows)
                                    for i in range(n)])) if d < n else []):
        normals += [w, tuple(-x for x in w)]
        bounds += [dot(p0, w), -dot(p0, w)]
    if d == 0:
        return cols, [p0], normals, bounds
    proj = [tuple(p[c] for c in cols) for p in pts]
    simplices = _hull(proj)
    tight = {}
    for corners, w, _ in simplices:
        for q in corners:
            tight.setdefault(q, set()).add(w)
    back = dict(zip(proj, pts))
    verts = [back[q] for q, ws in tight.items()
             if any(det_int(sub) for sub in combinations(ws, d))]
    for w, h in sorted({(w, h) for _, w, h in simplices}):
        e = [0] * n
        for c, x in zip(cols, w):
            e[c] = -x
        normals.append(tuple(e))
        bounds.append(-h)
    return cols, verts, normals, bounds


def basis_coords(basis, vectors):
    """Coordinates of each vector in a basis of independent rows, as tuples
    of Fractions, from one `_bareiss` solve for all of them; GeometryError
    when the rows are dependent or a vector lies outside their span.  The
    library's integer route solves on the hull lattice's pivot columns
    only (`semigroup.regularize`)."""
    q = len(basis)
    vectors = list(vectors)
    # column i of the system is basis row i; the vectors are its right sides
    echelon, rest = _bareiss([_integral(col) for col in zip(*basis, *vectors)], q)
    if len(echelon) < q or any(x for row in rest for x in row[q:]):
        raise GeometryError("basis does not span direction space")
    out = []
    for j in range(q, q + len(vectors)):
        den, x = _solve(echelon, q, j)
        out.append(tuple(Fraction(v, den) for v in x))
    return out


def hull_volume(points):
    """Volume of the hull of rational points in R^q whose differences span
    R^q (GeometryError otherwise); 1 for q = 0: the points, scaled to
    integers by their common denominator den, hulled again by `_hull`, and
    the cones from the lexicographically first point over its boundary
    simplices summed, sum |det| / (q! den^q)."""
    q = len(points[0])
    den = math.lcm(1, *(x.denominator for p in points for x in p))
    pts = sorted({tuple(x.numerator * (den // x.denominator) for x in p)
                  for p in points})
    p0 = pts[0]
    if rational_rank([vsub(p, p0) for p in pts[1:]]) != q:
        raise GeometryError("basis does not span direction space")
    if q == 0:
        return Fraction(1)
    if q == 1:
        return Fraction(pts[-1][0] - p0[0], den)
    total = sum(abs(det_int([vsub(c, p0) for c in corners]))
                for corners, _, _ in _hull(pts))
    return Fraction(total, math.factorial(q) * den ** q)


def level_first(group_basis):
    """(g0, boundary): the rows of the HNF of a group basis with the level
    column moved first, back in place: a point g0 of the group at the
    least positive level m, and the HNF of the boundary lattice."""
    g0, *boundary = [row[1:] + row[:1] for row in hnf_basis(
        [row[-1:] + row[:-1] for row in group_basis])]
    return g0, boundary


def slice_volume_two_hulls(reg):
    """Reference for the predicted growth coefficient m^q Vol(Delta) that
    `regularize` reads off its one hull, on the two-hull route it replaced:
    `hull_volume` of the boundary coordinates (`basis_coords`) of m v - g0
    for the vertices v of the body."""
    g0, boundary = level_first(reg.group_basis)
    m = g0[-1]
    return hull_volume(basis_coords(boundary, [
        tuple(m * x - g for x, g in zip(v, g0))
        for v in reg.okounkov_body.vertices()]))


def _group_point_at_level(basis, k):
    """Some point of the group spanned by `basis` at level k (last
    coordinate), or None when the gcd of the basis levels does not divide k;
    built from an extended-gcd combination of the basis rows."""
    cur_g, cur_comb = 0, [0] * len(basis)
    for i, row in enumerate(basis):
        lv = row[-1]
        if lv == 0:
            continue
        if cur_g == 0:
            cur_g = abs(lv)
            cur_comb = [0] * len(basis)
            cur_comb[i] = 1 if lv > 0 else -1
        else:
            cur_g, x, y = xgcd(cur_g, lv)
            cur_comb = [x * c for c in cur_comb]
            cur_comb[i] += y
    if cur_g == 0 or k % cur_g != 0:
        return None
    t = k // cur_g
    point = [0] * len(basis[0])
    for c, row in zip(cur_comb, basis):
        for j, x in enumerate(row):
            point[j] += t * c * x
    return tuple(point)


def closure_check_per_point(levels, degree_bound):
    """Reference for `GradedSemigroup._check_closure`: for k <= l with
    k + l <= degree_bound, in pair order, every tuple sum a + b of A_k and
    A_l must lie in A_{k+l}.  Raises the library's ValueError at the first
    failing pair."""
    pairs = sorted((k, l) for k in levels for l in levels
                   if k <= l and k + l <= degree_bound)
    for k, l in pairs:
        target = levels.get(k + l, set())
        for a in levels[k]:
            for b in levels[l]:
                if tuple(x + y for x, y in zip(a, b)) not in target:
                    raise ValueError(
                        f"declared closure fails: A_{k}+A_{l} escapes A_{k + l}")


def period_by_ray_subsets(system, stride=1):
    """Reference for `SectionSystem.period`: the rule it replaced.  The lcm,
    over every n-subset B of rays touching the limit polytope Q (all rays
    when Q is empty) with det B != 0, of |det B| times the periods
    q / gcd(q, k0 stride) of the weights a/q above 1 on B."""
    variety, n = system.variety, system.variety.lattice_rank
    touching = (1 << len(variety.rays)) - 1  # bit i: ray i
    limit = limit_polytope(variety, system.divisor, system.metric)
    if not limit.is_empty():
        touching = reduce(or_, limit.tight_masks())
    step = system.k0 * stride
    mu_period = {i: w.denominator // math.gcd(w.denominator, step)
                 for i, w in (system.metric.entries if system.metric else ())
                 if w > 1}
    period = 1
    for sub in combinations(range(len(variety.rays)), n):
        det = det_int([variety.rays[i] for i in sub])
        if det and all(touching >> i & 1 for i in sub):
            period = math.lcm(period, abs(det) * math.lcm(
                *(mu_period.get(i, 1) for i in sub)))
    return period


def int_points_rank(points):
    """Affine rank of a set of integer points (rank of differences): the
    reference the Gram ranks of `toric.kappa2` and `kappa3` replaced."""
    pts = list(points)
    if not pts:
        return NEG_INF
    return span_rank([pts], len(pts[0]))[0]


def span_rank(point_sets, n):
    """(rank, gram) of the differences p - P[0] over the points p of each
    set P in Z^n, together: gram = sum of (p - P[0])(p - P[0])^T, an n x n
    integer matrix whose rows span the same rational space as the
    differences (rank(D^T D) = rank(D)).  The reference the moment Grams of
    `SectionSystem.gram` replaced in `kappa1` and the Iitaka analysis.

    Each set is read in doubling prefixes (n + 1 points, then twice as many,
    ...) and reading stops once the rank is n, so a full-rank set costs a
    few points; a lower rank reads every point of every set.  An entry of
    a prefix's block is sum p_i p_j - b_i S_j - b_j S_i + m b_i b_j for the
    base b, the column sums S and the m points, one C-level dot product of
    coordinate columns each.
    """
    gram = [[0] * n for _ in range(n)]
    rank = 0
    for pts in point_sets:
        base, start, stop = pts[0], 1, n + 1
        while start < len(pts):
            chunk = pts[start:stop]
            cols = list(zip(*chunk))
            sums = list(map(sum, cols))
            m = len(chunk)
            for i in range(n):
                bi, si, ci, row = base[i], sums[i], cols[i], gram[i]
                for j in range(i, n):
                    bj = base[j]
                    row[j] += (sum(map(mul, ci, cols[j])) - bi * sums[j]
                               - bj * si + m * bi * bj)
                    gram[j][i] = row[j]
            rank = rational_rank(gram)
            if rank == n:
                return rank, gram
            start, stop = stop, 2 * stop
    return rank, gram


def kappa_routes_span_rank(sys, points=None):
    """Reference for the rank reads of `toric.kappa1`, `kappa2` and
    `kappa3`, the span_rank route over listed exponent sets (points(k),
    `section_points` by default): (kappa1, (kappa2, witness degree), the
    hull dimension at the top nonempty degree that kappa3 cross-checks
    against the growth of the counts)."""
    points = _lister(sys, points)
    n = sys.variety.lattice_rank
    support = sys.support()
    if not support:
        return NEG_INF, (NEG_INF, None), NEG_INF
    kappa1 = span_rank(map(points, support), n)[0]
    best, witness = NEG_INF, None
    for k in support:
        d = int_points_rank(points(k))
        if d > best:
            best, witness = d, k
            if d == n:
                break
    return kappa1, (best, witness), int_points_rank(points(support[-1]))


def iitaka_span_rank(sys, k, points=None):
    """Reference for the reads of `fibration.iitaka_analysis` at degree k
    (which must have room for 2k), the span_rank route over listed exponent
    sets (points(l), `section_points` by default): (image_dim,
    fiber_relations, degrees_checked) before the final growth check, with
    the same errors.  Every point of every degree is dotted with each
    kernel vector of the degree-k Gram matrix."""
    points = _lister(sys, points)
    n = sys.variety.lattice_rank
    image_dim, gram = span_rank([points(k)], n)
    if image_dim != span_rank([points(2 * k)], n)[0]:
        raise DegreeBoundError("increase degree bound")
    perp = int_kernel(gram)
    checked = []
    for l in sys.support():
        pts = points(l)
        for w in perp:
            if len({dot(w, p) for p in pts}) > 1:
                raise CrossCheckError(
                    f"degree {l} spreads across fibers: growth is not contracted")
        checked.append(l)
    return image_dim, tuple(saturate_rows_euclid(gram)), tuple(checked)


def gram_of_points(points, n):
    """N S2 - S1 S1^T over a list of points of Z^n, summed point by point:
    the reference for `SectionSystem.gram`, and the Gram matrix a test puts
    in place of a degree's when it patches that degree's points."""
    pts = list(points)
    sums = [sum(p[i] for p in pts) for i in range(n)]
    return [[len(pts) * sum(p[i] * p[j] for p in pts) - sums[i] * sums[j]
             for j in range(n)] for i in range(n)]


def diff_lattice_per_point(point_sets, n, stop_at_full_rank=True):
    """Reference for `span_rank`: the IntLattice of the differences
    p - P[0] within each set P, inserted one point at a time, and left as
    soon as it reaches rank n when stop_at_full_rank.  With one set, its
    rank is the former `int_points_rank`."""
    lat = IntLattice(n)
    for pts in point_sets:
        for p in pts[1:]:
            lat.add(vsub(p, pts[0]))
            if stop_at_full_rank and lat.rank == n:
                return lat
    return lat


def kappa1_per_point(sys, points=None):
    """Reference for `toric.kappa1`: every point of each nonempty degree
    (points(k), `section_points` by default) goes into one IntLattice,
    degree by degree, until it has full rank."""
    points = _lister(sys, points)
    n = sys.variety.lattice_rank
    support = sys.support()
    if not support:
        return float("-inf")
    lat = IntLattice(n)
    for k in support:
        pts = points(k)
        for p in pts[1:]:
            lat.add(vsub(p, pts[0]))
        if lat.rank == n:
            break
    return lat.rank


def iitaka_fibers_per_point(sys, k, points=None):
    """Reference for the fiber check of `fibration.iitaka_analysis` at
    degree k: (image dimension, saturated basis of the contracted lattice),
    where every point's difference from its degree's first point
    (points(l), `section_points` by default) must lie in that lattice
    (lattice_contains), or CrossCheckError names the first degree that
    spreads across fibers."""
    points = _lister(sys, points)
    n = sys.variety.lattice_rank
    bk = diff_lattice_per_point([points(k)], n)
    sat = saturate_rows_euclid(bk.basis()) if bk.rows else []
    sat_lat = IntLattice(n)
    for row in sat:
        sat_lat.add(row)
    for l in sys.support():
        pts = points(l)
        for p in pts[1:]:
            if not lattice_contains(sat_lat, vsub(p, pts[0])):
                raise CrossCheckError(
                    f"degree {l} spreads across fibers: growth is not contracted")
    return bk.rank, tuple(sat)


def hnf_euclid_chase(rows):
    """Reference for `lattice.hnf_basis` and `lattice.int_kernel`, the
    column-by-column Euclid chase their gcd insertion replaced: in each
    column the entry of least absolute value below the current row is
    swapped up and the others are reduced by it until it is the only
    nonzero one, then the pivot is made positive and the entries above it
    reduced into [0, pivot).  Returns (H, U) with H = U * rows."""
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    h = [list(int(x) for x in r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        while True:
            nz = [i for i in range(row, m) if h[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            if piv != row:
                h[row], h[piv] = h[piv], h[row]
                u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    if q:
                        for j in range(n):
                            h[i][j] -= q * h[row][j]
                        for j in range(m):
                            u[i][j] -= q * u[row][j]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if row < m and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            p = h[row][col]
            for i in range(row):
                q = h[i][col] // p
                if q:
                    for j in range(n):
                        h[i][j] -= q * h[row][j]
                    for j in range(m):
                        u[i][j] -= q * u[row][j]
            row += 1
            if row == m:
                break
    return [tuple(r) for r in h], [tuple(r) for r in u]


def hnf_basis_euclid(rows):
    """Nonzero rows of the Euclid-chase HNF."""
    return [r for r in hnf_euclid_chase(rows)[0] if any(r)]


def int_kernel_euclid(rows):
    """Left kernel basis from the Euclid-chase transform: the rows of U
    whose row of H is zero."""
    h, u = hnf_euclid_chase(rows)
    return [ui for hi, ui in zip(h, u) if not any(hi)]


def saturate_rows_euclid(rows):
    """The saturation of the rows' span (its rational span met with Z^n) on
    the Euclid chase, the reference for the contracted lattice of
    `fibration.iitaka_analysis`: the integer kernel of the transposed basis
    (the orthogonal complement of the span), the kernel of its transpose,
    and that lattice's HNF."""
    basis = hnf_basis_euclid(rows)
    if not basis:
        return []
    n = len(basis[0])
    perp = int_kernel_euclid([tuple(r[i] for r in basis) for i in range(n)])
    if not perp:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return hnf_basis_euclid(
        int_kernel_euclid([tuple(p[i] for p in perp) for i in range(n)]))


def regularize_lattice_reference(points):
    """Reference for the lattice part of `semigroup.regularize`, the route
    it replaced, on the Euclid chase: (group basis, m, boundary lattice,
    ind, g0).  m is the gcd of the basis levels; the boundary lattice is
    the HNF of the basis combinations whose coefficients lie in the integer
    kernel of the level column; ind is its index in Z^n x {0}, None when
    it has rank below n; g0 is an extended-gcd combination of the basis
    rows at level m."""
    basis = hnf_basis_euclid(points)
    n = len(basis[0]) - 1
    m = 0
    for row in basis:
        m = math.gcd(m, row[-1])
    boundary = [tuple(sum(c * row[j] for c, row in zip(coeffs, basis))
                      for j in range(n + 1))
                for coeffs in int_kernel_euclid([(row[-1],) for row in basis])]
    boundary = hnf_basis_euclid(boundary)
    ind = (abs(laplace_det([row[:-1] for row in boundary]))
           if len(boundary) == n else None)
    g, g0 = 0, (0,) * (n + 1)
    for row in basis:
        if row[-1]:
            g, x, y = xgcd(g, row[-1])
            g0 = tuple(x * a + y * b for a, b in zip(g0, row))
    return basis, m, boundary, ind, g0


def tuple_levels(levels):
    """Reference for the coded levels of `GradedSemigroup`, on the tuple
    route the codes replaced: {k: set of points}, each point a tuple of
    `operator.index` values."""
    return {index(k): {tuple(map(index, p)) for p in pts}
            for k, pts in levels.items()}


def column_ends(points):
    """The two ends of each column, a run of points with the same leading
    coordinates, of sorted distinct points (a one-point column's twice), by
    `compress` on the changes of the leading coordinates."""
    heads = list(map(itemgetter(slice(-1)), points))
    breaks = list(map(ne, heads[1:], heads))
    return (points[:1] + list(compress(points[1:], breaks))
            + list(compress(points, breaks)) + points[-1:])


def from_generators(generators):
    """The semigroup generated by (u, level) rows, of the ambient rank the
    first row gives."""
    gens = [tuple(g) for g in generators]
    return GradedSemigroup(len(gens[0]) - 1, generators=gens)


def to_semigroup(system, points=None):
    """The exponent sets of a `SectionSystem` up to its degree bound
    (points(k), `section_points` by default), as a degreewise graded
    semigroup (closed under addition by polytope additivity and coefficient
    subadditivity)."""
    points = _lister(system, points)
    bound = system.degree_bound
    levels = {k: set(points(k)) for k in range(1, bound + 1)}
    return GradedSemigroup(system.variety.lattice_rank, levels=levels,
                           check_closure=False, degree_bound=bound)


def level_points(sg, k):
    """The set A_k of a semigroup: the codes `level_codes(k)` decoded (read
    first, since a generated semigroup asked past its reach codes again)."""
    codes = sg.level_codes(k)
    return set(_decode(codes, sg.radix, sg.weights))


def spanning_points(sg):
    """{k: sorted points u} of the points (u, k) that span `sg`, by
    increasing level: its generators grouped by level, or its nonempty
    stored levels up to the degree bound, decoded by `level_points`."""
    if sg.generators is None:
        return {k: sorted(level_points(sg, k)) for k in sg.spanning}
    levels = {}
    for g in sg.generators:
        levels.setdefault(g[-1], []).append(g[:-1])
    return dict(sorted(levels.items()))


def regularize_tuple_route(levels):
    """Reference for the group basis and the hull of `regularize` on the
    tuple route the codes replaced, for {k: sorted distinct points u} of
    the nonempty spanning levels: `hnf_basis` of every point (u, k), and
    `hull_polytope` over den of the column ends of each level scaled by
    den / k, den the lcm of the levels."""
    basis = hnf_basis([u + (k,) for k, pts in levels.items() for u in pts])
    den = math.lcm(*levels)
    hull = hull_polytope(int_hull(sorted({tuple(x * (den // k) for x in p)
                                          for k, pts in levels.items()
                                          for p in column_ends(pts)})), den)
    return basis, hull


def regularize_per_level(sg):
    """Reference for `semigroup.regularize` on the body route it replaced:
    each level A_k is cut to the vertices of its own integer hull
    (`int_hull`), each vertex divided by k as Fractions, and the union is
    hulled by `rational_hull`; the slice box holds the (min, max) of each
    boundary coordinate over the slice vertices as Fractions, and the
    slice volume is their `hull_volume`.  The lattice data (group basis, m,
    boundary lattice, the level-m point g0) are read off the level-first
    HNF as in the library."""
    from kodaira.semigroup import regularize

    reg = regularize(sg)
    n = sg.ambient_rank
    g0, boundary = level_first(reg.group_basis)
    m = g0[-1]
    hull = rational_hull([tuple(Fraction(x, k) for x in v)
                          for k, a_k in spanning_points(sg).items()
                          for v in int_hull(a_k)[2]])
    lifted = [(v + (0,), c) for v, c in rational_pairs(hull)]
    lifted.append((tuple([0] * n) + (1,), Fraction(1)))
    lifted.append((tuple([0] * n) + (-1,), Fraction(-1)))
    body = rational_polytope(n + 1, lifted,
                             vertices=[v + (Fraction(1),) for v in hull.vertices()])
    normals, bounds = [], []
    for v, c in rational_pairs(hull):
        normals.append(tuple(c.denominator * dot(b[:-1], v) for b in boundary))
        bounds.append(c.numerator * m - c.denominator * dot(g0[:-1], v))
    coords = basis_coords(boundary, [tuple(m * x - g for x, g in zip(v, g0))
                                     for v in body.vertices()])
    reg.okounkov_body = body
    reg._slice = (ScanPlan(len(boundary), normals), tuple(bounds),
                  tuple((min(c), max(c)) for c in zip(*coords)),
                  hull_volume(coords))
    return reg


@dataclass(frozen=True)
class FractionDivisor:
    """Reference for `toric.ToricDivisorData`: the ray coefficients as
    Fractions, k0 recomputed by an lcm on every read."""

    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in coefficients))

    @property
    def k0(self):
        return math.lcm(1, *(c.denominator for c in self.coefficients))

    def is_integral(self):
        return self.k0 == 1

    def scale(self, t):
        return FractionDivisor(tuple(Fraction(t) * c for c in self.coefficients))

    def add(self, other):
        return FractionDivisor(tuple(a + b for a, b in
                                     zip(self.coefficients, other.coefficients)))


def ray_fractions(divisor):
    """The ray coefficients b_rho of a divisor as Fractions: a
    `FractionDivisor`'s own, and Fraction(n, k0) off the numerators of a
    `toric.ToricDivisorData`."""
    if isinstance(divisor, FractionDivisor):
        return divisor.coefficients
    return tuple(Fraction(n, divisor.k0) for n in divisor.nums)


def pullback_reference(fib, base_divisor):
    """Coefficients of f^* D on the total space: D's on the pulled-back rays,
    0 elsewhere."""
    coeffs = [Fraction(0)] * len(fib.total.rays)
    for b, i in enumerate(fib.pullback_rays):
        coeffs[i] = base_divisor.coefficients[b]
    return FractionDivisor(coeffs)


def restrict_reference(fib, divisor):
    """Coefficients of D restricted to the general fiber: the vertical rays'."""
    coeffs = [Fraction(0)] * len(fib.fiber.rays)
    for i in fib.fiber_ray_of_vertical:
        coeffs[fib.fiber_ray_of_vertical[i]] = divisor.coefficients[i]
    return FractionDivisor(coeffs)


def divisor_bounds_reference(divisor, k):
    """Bounds -k b_rho of the section polytope of k D, or None when k D is
    not integral."""
    coeffs = [Fraction(k) * c for c in divisor.coefficients]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [-c for c in coeffs]


def limit_bounds_reference(variety, divisor, metric):
    """Bounds -b_rho + max(mu_rho - 1, 0) of the limit polytope, each weight
    looked up in the metric's entries."""
    weights = dict(metric.entries) if metric is not None else {}
    return [-divisor.coefficients[i] + max(weights.get(i, 0) - 1, 0)
            for i in range(len(variety.rays))]


def subadditivity_pairs_pairwise(coeffs, k_max):
    """The pairs (k, l), 1 <= k <= l <= k_max, with coeffs[k + l] >
    coeffs[k] + coeffs[l], in order, one comparison per pair."""
    return [(k, l) for k in range(1, k_max + 1) for l in range(k, k_max + 1)
            if coeffs[k + l] > coeffs[k] + coeffs[l]]


class EveryCrossingPlan(ScanPlan):
    """A ScanPlan whose two-coordinate leaf makes a one-point piece of every
    integer crossing of two lines, and keeps a constraint with no x term as
    a line y >= or <= q / m."""

    def __init__(self, dim, normals):
        super().__init__(dim, normals)
        if self.parts is not None:
            return
        self.sources, p, m, upper = [], [], [], []
        for i in self.bounding[dim - 1]:
            a, b = self.normals[i][dim - 2:]
            self.sources.append((i, -1 if b < 0 else 1))
            p.append(a if b < 0 else -a)
            m.append(abs(b))
            upper.append(b < 0)
        p += [0, 0]
        m += [1, 1]
        upper += [False, True]
        self.p, self.m = p, m
        self.upper = [j for j, up in enumerate(upper) if up]
        self.lower = [j for j, up in enumerate(upper) if not up]
        self.crossings = [(j, k, p[j] * m[k] - p[k] * m[j])
                          for j in range(len(p)) for k in range(j + 1, len(p))
                          if p[j] * m[k] != p[k] * m[j]]

    def _count_pair(self, y_box, xlo, xhi, residuals):
        p, m = self.p, self.m
        q = [s * residuals[i] for i, s in self.sources]
        q += y_box
        ends = {xhi}  # last x of each piece
        for j, k, d in self.crossings:
            num = q[k] * m[j] - q[j] * m[k]
            x = num // d
            if xlo <= x < xhi:
                ends.add(x)
            if x * d == num and xlo < x <= xhi:
                ends.add(x - 1)
        total = 0
        start = xlo
        for end in sorted(ends):
            ju = vu = jl = vl = None
            for j in self.upper:
                v = p[j] * start + q[j]
                if ju is None or v * m[ju] < vu * m[j]:
                    ju, vu = j, v
            for j in self.lower:
                v = p[j] * start + q[j]
                if jl is None or v * m[jl] > vl * m[j]:
                    jl, vl = j, v
            if vu * m[jl] >= vl * m[ju]:
                size = end - start + 1
                total += (floor_sum(size, m[ju], p[ju], vu)
                          + floor_sum(size, m[jl], -p[jl], -vl) + size)
            start = end + 1
        return total


class FreshSectionSystem(SectionSystem):
    """A section system built from scratch with the integral auxiliary
    divisor aux (or None) folded into its constant bounds by its own
    constructor, with caches of its own and no twist behind it."""

    def __init__(self, variety, divisor, metric=None, aux=None,
                 degree_bound=DEFAULT_DEGREE_BOUND):
        if aux is not None and not aux.is_integral():
            raise ValueError("auxiliary divisor must be integral")
        super().__init__(variety, divisor, metric, degree_bound)
        if aux is not None:
            self._consts = self._fold(
                [c - a for c, a in zip(self._free, aux.nums)])
            self._twists = {aux: self}


def growth_degree_capped(counts, period, cap=None):
    """growth_degree reading each residue class's last `cap` samples (all
    when cap is None), and the whole class when no degree below cap - 1
    fits them: the least d whose last d + 2 samples have a vanishing
    (d+1)-st difference and a positive last d-th difference, after the
    dead (last two 0) and falling (a decrease in the last three) rules."""
    best = NEG_INF
    for end in range(max(len(counts) - period, 0), len(counts)):
        places = range(end, -1, -period)  # the class, from the top down
        samples = [counts[i] for i in places[:cap]][::-1]
        if samples[-2:] == [0, 0]:
            continue
        tail = samples[-3:]
        if any(a > b for a, b in zip(tail, tail[1:])):
            return None
        degree = _fitting_degree(samples)
        if degree is None and len(samples) < len(places):
            degree = _fitting_degree([counts[i] for i in places][::-1])
        if degree is None:
            return None
        best = max(best, degree)
    return best


def _fitting_degree(samples):
    for d in range(len(samples) - 1):
        nxt = [b - a for a, b in zip(samples, samples[1:])]
        if nxt[-1] == 0 and samples[-1] > 0:
            return d
        samples = nxt
    return None
