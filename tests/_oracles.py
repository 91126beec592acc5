"""Independent brute-force oracles shared by the test modules.

Every oracle here deliberately uses a different algorithm than the library
path it checks (enumeration, interpolation, Caratheodory decomposition), so
expected values are computed rather than copied.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from kodaira.lattice import dot, solve_linear_system, vsub


def in_hull(point, points):
    """Caratheodory membership test: point lies in conv(points) iff it lies in
    the hull of some subset of size dim+1 (checked by solving barycentric
    coordinates exactly)."""
    pts = list(points)
    if not pts:
        return False
    n = len(pts[0])
    for r in range(1, min(len(pts), n + 1) + 1):
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


def facet_scan(points):
    """Facets of conv(points), a full-dimensional set in R^2 or R^3, by
    enumerating every line or plane through two or three of the points, a
    quartic scan independent of the library's incremental hull: those with
    all points on one side, as (primitive inward normal, Fraction bound)."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    n = len(pts[0])
    facets = set()
    for sub in combinations(pts, n):
        a = sub[0]
        u = [vsub(p, a) for p in sub[1:]]
        if n == 2:
            nrm = (-u[0][1], u[0][0])
        else:
            nrm = (u[0][1] * u[1][2] - u[0][2] * u[1][1],
                   u[0][2] * u[1][0] - u[0][0] * u[1][2],
                   u[0][0] * u[1][1] - u[0][1] * u[1][0])
        if all(x == 0 for x in nrm):
            continue
        nrm = _primitive_normal(nrm)
        sides = {dot(vsub(p, a), nrm) > 0 for p in pts if dot(vsub(p, a), nrm) != 0}
        if len(sides) == 1:
            inward = nrm if sides == {True} else tuple(-x for x in nrm)
            facets.add((inward, dot(a, inward)))
    return facets


def pyramid_volume(points):
    """Euclidean volume of conv(points), a full-dimensional set in R^1..R^3:
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
