"""Deterministic property sweeps over enumerated instance families.

Wider than the curated corpus, narrower than the offline fuzz runs; these
pin the exact/empirical agreement and the chain inequalities on families
nobody hand-picked.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

from kodaira.fibration import hirzebruch_fibration, product_fibration
from kodaira.lattice import dot
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import (
    growth_law_check,
    hilbert,
    hilbert_reg,
    regularize,
)
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa_report,
    kappa_sigma,
    kappa_sigma_hor,
)

from _oracles import (
    from_generators,
    hnf_basis_euclid,
    hull_vertex_set,
    in_row_lattice,
    int_kernel_euclid,
    rational_hull,
    rational_pairs,
    semigroup_level_points,
)

P1 = ToricVariety.projective_space(1)


def test_chain_sweep_product_and_hirzebruch():
    fibs = [product_fibration(P1, P1), hirzebruch_fibration(2)]
    metrics = [None, SingularMetricData([(0, 1)]),
               SingularMetricData([(3, Fraction(3, 2))])]
    for fib in fibs:
        # one metric per coefficient combo, cycling deterministically; the
        # full cross product ran clean offline
        for idx, coeffs in enumerate(iproduct((-1, 0, 1), repeat=4)):
            h = metrics[idx % len(metrics)]
            m = ToricDivisorData(coeffs)
            sys = SectionSystem(fib.total, m, metric=h, degree_bound=12)
            k = kappa_report(sys).kappa
            ks = kappa_sigma(sys)
            kh = kappa_sigma_hor(sys, fib)
            assert k <= kh <= ks, (fib.total.name, coeffs, h)


def test_hull_sweep_against_caratheodory():
    rng = random.Random(11)
    for trial in range(40):
        dim = 2 if trial % 2 == 0 else 3
        npts = rng.randint(2, 8)
        pts = [tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                     for _ in range(dim)) for _ in range(npts)]
        hull = rational_hull(pts)
        assert set(hull.vertices()) == hull_vertex_set(pts), pts
        assert all(dot(p, v) >= c for p in pts for v, c in rational_pairs(hull))


def test_semigroup_sweep_against_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((1, 1, 2))
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(1, 3 + n))]
        sg = from_generators(gens)
        reg = regularize(sg)
        for k in range(8):
            assert hilbert(sg, k) == len(semigroup_level_points(gens, k)), (gens, k)
            assert hilbert(sg, k) <= hilbert_reg(reg, k), (gens, k)
        rep = growth_law_check(reg, k_max=150)
        assert rep.relative_gap <= Fraction(15, 100), (gens, rep)


def test_polytope_sweep_against_grid_oracle():
    import math

    from kodaira.lattice import ScanPlan
    from _oracles import (
        fm_is_empty,
        grid_lattice_points,
        point_moments,
        rational_polytope,
    )

    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(n + 1, n + 4)):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                cons.append((v, Fraction(rng.randint(-6, 6), rng.choice((1, 2)))))
        poly = rational_polytope(n, cons)
        # integer points see each bound through its ceiling
        plan = ScanPlan(n, poly.normals)
        bounds = [-(-b // poly.den) for b in poly.bounds]
        if poly.is_empty():
            box = [(-40, 40)] * n
            assert plan.scan(box, bounds) == 0
            assert plan.moments(box, bounds) == point_moments([], n)
            # rationally empty, so with no lattice point anywhere
            assert fm_is_empty(poly)
            continue
        # an unbounded polyhedron is compared on the box around its
        # vertices, or on a fixed box when it has none (it holds a line)
        verts = poly.vertices() or [(0,) * n]
        box = [(math.floor(min(v[i] for v in verts)) - 2,
                math.ceil(max(v[i] for v in verts)) + 2)
               for i in range(n)]
        pts = grid_lattice_points(cons, box)
        assert plan.scan(box, bounds) == len(pts)
        assert plan.moments(box, bounds) == point_moments(pts, n)


def test_hnf_sweep_canonical_and_unimodular():
    from kodaira.lattice import hnf_basis, int_kernel

    rng = random.Random(3)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)]
        hb = hnf_basis(mat)
        assert hb == hnf_basis_euclid(mat)
        # the kernel rows of two unimodular transforms span one lattice
        kernel = int_kernel(mat)
        assert len(kernel) == m - len(hb)
        assert hnf_basis(kernel) == hnf_basis(int_kernel_euclid(mat))
        assert all(in_row_lattice(r, hb) for r in mat)
        pivots = [next(j for j, x in enumerate(r) if x) for r in hb]
        assert pivots == sorted(set(pivots))
        for i, r in enumerate(hb):
            assert r[pivots[i]] > 0
            for jrow in range(i):
                assert 0 <= hb[jrow][pivots[i]] < r[pivots[i]]
