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
that the library's Gram-matrix spans replaced.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from kodaira.lattice import (
    IntLattice,
    Polytope,
    dot,
    hnf,
    saturate_rows,
    solve_linear_system,
    vsub,
    xgcd,
)
from kodaira.toric import CrossCheckError


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
    h, u = hnf(rows)
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
    return Polytope(poly.ambient_dim, [(v, c * k) for v, c in poly.constraints])


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


def hull_vertex_set(points):
    """Minimal vertex set of conv(points): p is a vertex iff it is not in the
    hull of the remaining points."""
    pts = sorted(set(points))
    return {p for p in pts if not in_hull(p, [q for q in pts if q != p])}


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


def ample_by_vertices(variety, divisor):
    """Ampleness read off the Fraction divisor polytope: D is ample iff it is
    integral and the vertices of P_D are exactly the points m_sigma cut out by
    the maximal cones (<m, v_rho> = -b_rho on the cone's rays), pairwise
    distinct, so that the normal fan of P_D is the fan itself."""
    from kodaira.toric import divisor_polytope

    if not divisor.is_integral():
        return False
    b = divisor.coefficients
    cone_points = [
        solve_linear_system([variety.rays[i] for i in sorted(cone)],
                            [-b[i] for i in sorted(cone)])
        for cone in variety.max_cones]
    poly = divisor_polytope(variety, divisor, 1)
    verts = set() if poly.is_empty() else set(poly.vertices())
    return (len(set(cone_points)) == len(cone_points)
            and set(cone_points) == verts)


def hilbert_reg_per_level(reg, k):
    """Card(G ∩ C ∩ {level k}) built from scratch for the one level: a point
    of G at level k, then a fresh Polytope of the level-k slice in
    boundary-lattice coordinates around it, tested for emptiness and
    counted.  (x, k) lies in C iff x lies in k * Delta, read off the
    constraints of the Okounkov body."""
    if k == 0:
        return 1
    base = _group_point_at_level(reg.group_basis, k)
    if base is None:
        return 0
    cons = [(w[:-1], k * (c - w[-1])) for w, c in reg.okounkov_body.constraints]
    b = reg.boundary_lattice
    if not b:
        pt = base[:-1]
        return 1 if all(dot(pt, v) >= c for v, c in cons) else 0
    # points of G at level k form base + (boundary lattice)
    new_cons = []
    for v, c in cons:
        w = tuple(dot(row[:-1], v) for row in b)
        new_cons.append((w, c - dot(base[:-1], v)))
    poly = Polytope(len(b), new_cons)
    if poly.is_empty():
        return 0
    return poly.count_lattice_points()


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


def closure_check_per_point(levels, degree_bound, budget):
    """Reference for `GradedSemigroup._spot_check_closure`: for k <= l with
    k + l <= degree_bound, in pair order, every tuple sum a + b of A_k and
    A_l must lie in A_{k+l}; once |A_k| |A_l| exceeds what is left of the
    budget, every len // 14-th point of both sorted sets is checked
    instead.  Raises the library's ValueError at the first failing pair."""
    pairs = sorted((k, l) for k in levels for l in levels
                   if k <= l and k + l <= degree_bound)
    for k, l in pairs:
        ak, al = levels[k], levels[l]
        target = levels.get(k + l, set())
        if len(ak) * len(al) > budget:
            ak = sorted(ak)[:: max(1, len(ak) // 14)]
            al = sorted(al)[:: max(1, len(al) // 14)]
        budget -= len(ak) * len(al)
        for a in ak:
            for b in al:
                if tuple(x + y for x, y in zip(a, b)) not in target:
                    raise ValueError(
                        f"declared closure fails: A_{k}+A_{l} escapes A_{k + l}")
        if budget <= 0:
            break


def diff_lattice_per_point(point_sets, n, stop_at_full_rank=True):
    """Reference for `lattice.span_rank`: the IntLattice of the differences
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


def kappa1_per_point(sys):
    """Reference for `toric.kappa1`: every point of each nonempty degree
    goes into one IntLattice, degree by degree, until it has full rank."""
    n = sys.variety.lattice_rank
    support = sys.support()
    if not support:
        return float("-inf")
    lat = IntLattice(n)
    for k in support:
        pts = sys.exponents(k)
        for p in pts[1:]:
            lat.add(vsub(p, pts[0]))
        if lat.rank == n:
            break
    return lat.rank


def iitaka_fibers_per_point(sys, k):
    """Reference for the fiber check of `fibration.iitaka_analysis` at
    degree k: (image dimension, saturated basis of the contracted lattice),
    where every point's difference from its degree's first point must lie
    in that lattice (IntLattice.contains), or CrossCheckError names the
    first degree that spreads across fibers."""
    n = sys.variety.lattice_rank
    bk = diff_lattice_per_point([sys.exponents(k)], n)
    sat = saturate_rows(bk.basis()) if bk.rows else []
    sat_lat = IntLattice(n)
    for row in sat:
        sat_lat.add(row)
    for l in sys.support():
        pts = sys.exponents(l)
        for p in pts[1:]:
            if not sat_lat.contains(vsub(p, pts[0])):
                raise CrossCheckError(
                    f"degree {l} spreads across fibers: growth is not contracted")
    return bk.rank, tuple(sat)
