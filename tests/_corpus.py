"""Deterministic instance corpora used by the acceptance and hull tests.

Everything here is enumerated, never sampled: the acceptance checks are
exact statements about every generated instance.  `workload_generator`
loads the benchmark's input generator, `perfbench/gen.py`, which does not
import the package, so that tests read the benchmark inputs without
running the benchmark.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from kodaira.curve import CurveDivisorClass, CurveModel
from kodaira.fibration import (
    CurveProductInstance,
    ToricFibrationInstance,
    hirzebruch_fibration,
    product_fibration,
)
from kodaira.multiplier import SingularMetricData
from kodaira.toric import SectionSystem, ToricDivisorData, ToricVariety

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P3 = ToricVariety.projective_space(3)
P1xP1 = ToricVariety.product(P1, P1)
P1xP2 = ToricVariety.product(P1, P2)
P1xP1xP1 = ToricVariety.product(P1xP1, P1)


def workload_generator():
    """The module `perfbench/gen.py`: `instances(workload, seed)` lists the
    benchmark inputs of a workload as (name, CLI command, JSON text)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toric_kappa_corpus(degree_bound=24):
    """Named (variety, divisor, metric) instances in dimensions 1 to 3.

    Mixes empty, zero, intermediate and maximal growth, integral and
    fractional coefficients, and metric weights on either side of the
    integrability threshold.
    """
    out = []

    def add(name, variety, coeffs, metric_entries=()):
        metric = SingularMetricData(metric_entries) if metric_entries else None
        out.append((name, variety, ToricDivisorData(coeffs), metric))

    half = Fraction(1, 2)
    threehalf = Fraction(3, 2)

    # dimension 1
    for d, coeffs in (("deg2", (0, 2)), ("deg1", (0, 1)), ("deg0", (0, 0)),
                      ("degneg", (0, -1)), ("half", (half, half)),
                      ("skew", (2, -1))):
        add(f"p1_{d}", P1, coeffs)
    add("p1_deg2_mu2", P1, (0, 2), [(0, 2)])
    add("p1_deg2_mu3", P1, (0, 2), [(0, 3)])
    add("p1_deg2_mu4", P1, (0, 2), [(0, 4)])
    add("p1_deg0_mu1", P1, (0, 0), [(0, 1)])
    add("p1_deg2_muhalf", P1, (0, 2), [(0, half)])
    add("p1_deg2_mu32", P1, (0, 2), [(0, threehalf)])
    add("p1_deg4_mu2_both", P1, (2, 2), [(0, 2), (1, 2)])
    add("p1_half_mu1", P1, (half, half), [(0, 1)])

    # dimension 2
    for d, coeffs in (("ample", (1, 1, 1)), ("unit", (0, 0, 1)),
                      ("zero", (0, 0, 0)), ("canonical", (-1, -1, -1)),
                      ("skew", (1, 0, -1))):
        add(f"p2_{d}", P2, coeffs)
    add("p2_unit_mu1", P2, (0, 0, 1), [(2, 1)])
    add("p2_unit_mu32", P2, (0, 0, 1), [(0, threehalf)])
    add("p2_ample_mu2", P2, (1, 1, 1), [(1, 2)])
    add("p2_ample_mu2_mu1", P2, (1, 1, 1), [(1, 2), (2, 1)])
    add("p2_zero_mu1", P2, (0, 0, 0), [(0, 1)])

    for d, coeffs in (("square", (1, 1, 1, 1)), ("vertical", (0, 0, 0, 2)),
                      ("line", (0, 1, 0, 0)), ("zero", (0, 0, 0, 0)),
                      ("mixed", (1, 1, 0, -1))):
        add(f"p1xp1_{d}", P1xP1, coeffs)
    add("p1xp1_square_mu2", P1xP1, (1, 1, 1, 1), [(0, 2)])
    add("p1xp1_square_mu32", P1xP1, (1, 1, 1, 1), [(0, threehalf), (2, threehalf)])
    add("p1xp1_vertical_mu1", P1xP1, (0, 0, 0, 2), [(0, 1)])
    add("p1xp1_vertical_mu2", P1xP1, (0, 0, 0, 2), [(3, 2)])
    add("p1xp1_zero_mu1", P1xP1, (0, 0, 0, 0), [(0, 1), (2, 1)])
    add("p1xp1_half", P1xP1, (half, half, 0, 1))

    for a in (1, 2, 3):
        fa = ToricVariety.hirzebruch(a)
        add(f"f{a}_ample", fa, (1, 1, a, 1))
        add(f"f{a}_fiber", fa, (1, 0, 0, 0))
        add(f"f{a}_zero", fa, (0, 0, 0, 0))
        add(f"f{a}_ample_mu2", fa, (1, 1, a, 1), [(1, 2)])
        add(f"f{a}_fiber_mu1", fa, (1, 0, 0, 0), [(1, 1)])

    # dimension 3 (kept lean: small coefficients)
    for d, coeffs in (("unit", (0, 0, 0, 1)), ("zero", (0, 0, 0, 0)),
                      ("canonical", (-1, -1, -1, -1))):
        add(f"p3_{d}", P3, coeffs)
    add("p3_unit_mu1", P3, (0, 0, 0, 1), [(3, 1)])
    add("p3_unit_mu32", P3, (0, 0, 0, 1), [(0, threehalf)])
    add("p1xp2_mixed", P1xP2, (0, 1, 0, 0, 1))
    add("p1xp2_line", P1xP2, (0, 1, 0, 0, 0))
    add("p1xp2_mixed_mu2", P1xP2, (0, 1, 0, 0, 1), [(1, 2)])
    add("p1xp1xp1_diag", P1xP1xP1, (0, 1, 0, 1, 0, 1))
    add("p1xp1xp1_two", P1xP1xP1, (0, 1, 0, 1, 0, 0))
    add("p1xp1xp1_mu1", P1xP1xP1, (0, 1, 0, 1, 0, 1), [(0, 1)])

    return [(name, variety, divisor, metric, degree_bound)
            for name, variety, divisor, metric in out]


def corpus_section_systems(degree_bound=24):
    return [(name, SectionSystem(v, d, metric=h, degree_bound=degree_bound))
            for name, v, d, h, degree_bound in toric_kappa_corpus(degree_bound)]


def boundary_subset_instances(degree_bound=24):
    """(name, instance) for every reduced (D_X, D_Y) pair with f*D_Y inside
    D_X, on the product P1 x P1 -> P1 and on the Hirzebruch surfaces
    F_a -> P1 for a <= 3."""
    fibs = [("p1xp1", product_fibration(P1, P1))]
    for a in (1, 2, 3):
        fibs.append((f"f{a}", hirzebruch_fibration(a)))
    out = []
    for fname, fib in fibs:
        nrays = len(fib.total.rays)
        base_rays = range(len(fib.base.rays))
        for dy_size in range(len(fib.base.rays) + 1):
            for dy in combinations(base_rays, dy_size):
                forced = {fib.pullback_rays[b] for b in dy}
                free = [i for i in range(nrays) if i not in forced]
                for r in range(len(free) + 1):
                    for extra in combinations(free, r):
                        dx = frozenset(forced) | frozenset(extra)
                        name = (f"{fname}_dy{''.join(map(str, dy))}_"
                                f"dx{''.join(map(str, sorted(dx)))}")
                        out.append((name, ToricFibrationInstance(
                            fibration=fib, dx_rays=dx, dy_rays=frozenset(dy),
                            degree_bound=degree_bound)))
    return out


def metric_fibration_instances(degree_bound=24):
    """(name, instance) for toric fibrations carrying a metric (log divisors
    empty)."""
    out = []
    pf = product_fibration(P1, P1)
    half = Fraction(1, 2)
    cases = [
        ("prod_semiample", (0, 1, 0, 1), ()),
        ("prod_vertical_mu1", (0, 0, 0, 2), [(0, 1)]),
        ("prod_basefat_mu1", (0, 0, 0, 2), [(2, 1)]),
        ("prod_drop", (0, 2, 0, 0), [(2, 1)]),
        ("prod_mu32", (0, 1, 0, 1), [(0, Fraction(3, 2))]),
        ("prod_muhalf", (0, 1, 0, 1), [(0, half), (2, half)]),
        ("prod_empty", (0, -1, 0, 1), ()),
    ]
    for name, coeffs, entries in cases:
        out.append((f"m_{name}", ToricFibrationInstance(
            fibration=pf, divisor=ToricDivisorData(coeffs),
            metric=SingularMetricData(entries) if entries else None,
            degree_bound=degree_bound)))
    for a in (1, 2):
        fa = hirzebruch_fibration(a)
        out.append((f"m_f{a}_mu1", ToricFibrationInstance(
            fibration=fa, divisor=ToricDivisorData((1, 0, 0, 1)),
            metric=SingularMetricData([(1, 1)]), degree_bound=degree_bound)))
        out.append((f"m_f{a}_plain", ToricFibrationInstance(
            fibration=fa, divisor=ToricDivisorData((0, 1, 0, 1)),
            metric=None, degree_bound=degree_bound)))
    return out


def curve_product_instances(degree_bound=24):
    """(name, instance) for curve times toric instances with g in {2, 3} and
    fiber dimension <= 2."""
    out = []

    def add(name, genus, extra_base_degree, fiber, fdiv, fmetric=(),
            base_points=()):
        curve = CurveModel(genus)
        if extra_base_degree == 0 and not base_points:
            base_class = CurveDivisorClass.canonical_multiple(curve, 1)
        else:
            base_class = CurveDivisorClass.general(
                2 * genus - 2 + extra_base_degree)
        out.append((f"c_{name}", CurveProductInstance(
            curve=curve, base_class=base_class,
            fiber_variety=fiber, fiber_divisor=ToricDivisorData(fdiv),
            fiber_metric=SingularMetricData(fmetric),
            base_metric=SingularMetricData(base_points),
            degree_bound=degree_bound)))

    add("g2_p1_mu2", 2, 0, P1, (0, 2), [(0, 2)])
    add("g3_p1_mu2", 3, 0, P1, (0, 2), [(0, 2)])
    add("g2_p1_plain", 2, 0, P1, (0, 2))
    add("g2_p1_mu32", 2, 0, P1, (0, 2), [(0, Fraction(3, 2))])
    add("g3_p1_deg1", 3, 0, P1, (0, 1))
    add("g2_p1_zero", 2, 0, P1, (0, 0))
    add("g2_p1_empty", 2, 0, P1, (0, -1))
    add("g2_p1_mu1_sep", 2, 0, P1, (0, 0), [(0, 1)])
    add("g2_p1xp1_nef", 2, 0, P1xP1, (0, 1, 0, 1))
    add("g3_p1xp1_nef", 3, 0, P1xP1, (0, 1, 0, 1))
    add("g2_p1xp1_vertical", 2, 0, P1xP1, (0, 0, 0, 2))
    add("g2_p1xp1_mu2", 2, 0, P1xP1, (0, 2, 0, 2), [(0, 2)])
    add("g2_p2_unit", 2, 0, P2, (0, 0, 1))
    add("g3_p2_mu32", 3, 0, P2, (0, 0, 1), [(0, Fraction(3, 2))])
    add("g2_p1_basemarked", 2, 6, P1, (0, 2), (), [("p", Fraction(3, 2))])
    add("g2_p1_basemarked_mu2", 2, 8, P1, (0, 2), [(0, 2)],
        [("p", 2), ("q", Fraction(1, 2))])
    return out
