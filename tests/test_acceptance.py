"""Acceptance suite: ten exact criteria over the generated corpora.

Each criterion prints one PASS/FAIL line (run with -s to stream them); every
tolerance and runtime target is pinned here, nothing is deferred.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from kodaira.curve import CurveDivisorClass
from kodaira.fibration import (
    iitaka_analysis,
    product_fibration,
    verify_addti,
    verify_chain,
    verify_dio_equality,
    verify_subadditivity,
    verify_upper_bound,
)
from kodaira.lattice import NEG_INF
from kodaira.multiplier import default_mu_grid, multiplier_coeff, subadditivity_scan
from kodaira.semigroup import GradedSemigroup, growth_law_check, regularize
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa1,
    kappa2,
    kappa3,
    kappa_report,
    kappa_sigma,
)
from kodaira.multiplier import SingularMetricData

from _corpus import (
    boundary_subset_instances,
    corpus_section_systems,
    curve_product_instances,
    metric_fibration_instances,
    toric_kappa_corpus,
)
from _oracles import from_generators, to_semigroup


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


P1 = ToricVariety.projective_space(1)


def growth_semigroups():
    """At least twenty generated or degreewise semigroups of dimensions 1-2."""
    gens_1d = [
        [(0, 1), (1, 1)],
        [(0, 1), (2, 1)],
        [(0, 1), (3, 1)],
        [(0, 1), (4, 1)],
        [(1, 1), (-1, 1)],
        [(2, 1), (-1, 1)],
        [(0, 2), (1, 2)],
        [(0, 2), (3, 2)],
        [(0, 3), (1, 3)],
        [(0, 3), (2, 3)],
        [(0, 1), (1, 1), (3, 1)],
        [(-2, 1), (2, 1)],
    ]
    gens_2d = [
        [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
        [(0, 0, 1), (2, 0, 1), (0, 1, 1)],
        [(0, 0, 1), (2, 0, 1), (0, 2, 1)],
        [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
        [(0, 0, 1), (3, 0, 1), (0, 1, 1)],
        [(0, 0, 2), (1, 0, 2), (0, 1, 2)],
        [(0, 0, 1), (1, 0, 1), (-1, 1, 1)],
    ]
    out = [from_generators(g) for g in gens_1d + gens_2d]
    out.append(GradedSemigroup(
        2, levels={k: {(x, y) for x in range(k + 1) for y in range(k + 1 - x)}
                   for k in range(1, 9)}))
    out.append(GradedSemigroup(
        2, levels={k: {(x, y) for x in range(k + 1) for y in range(k + 1)}
                   for k in range(1, 7)}))
    out.append(GradedSemigroup(
        1, levels={k: {(x,) for x in range(0, 2 * k + 1)} for k in range(1, 13)}))
    return out


def test_acceptance_1_three_definitions_equal():
    with criterion(1, "kappa1 = kappa2 = kappa3 on >= 50 instances, < 60 s"):
        start = time.monotonic()
        systems = corpus_section_systems(degree_bound=24)
        assert len(systems) >= 50
        dims = set()
        for name, sys in systems:
            dims.add(sys.variety.lattice_rank)
            v1, v2, v3 = kappa1(sys), kappa2(sys), kappa3(sys)
            assert v1 == v2 == v3, (name, v1, v2, v3)
        assert dims == {1, 2, 3}
        assert any(kappa1(sys) == NEG_INF for _, sys in systems)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_acceptance_2_growth_law():
    with criterion(2, "growth law gap <= 0.10 at k=200 on >= 20 semigroups"):
        sgs = growth_semigroups()
        assert len(sgs) >= 20
        for sg in sgs:
            rep = growth_law_check(regularize(sg), k_max=200)
            assert rep.q in (1, 2)
            assert rep.relative_gap <= Fraction(1, 10), rep

        # the worked examples match their closed forms exactly
        rep = growth_law_check(regularize(from_generators(
            [(0, 1), (1, 1)])), k_max=200)
        assert (rep.q, rep.a_q_predicted, rep.a_q_empirical) == \
            (1, Fraction(1), Fraction(201, 200))
        rep = growth_law_check(regularize(from_generators(
            [(0, 2), (1, 2)])), k_max=200)
        assert (rep.q, rep.m, rep.a_q_predicted, rep.a_q_empirical) == \
            (1, 2, Fraction(1), Fraction(201, 200))
        rep = growth_law_check(regularize(GradedSemigroup(
            2, levels={k: {(x, y) for x in range(k + 1) for y in range(k + 1 - x)}
                       for k in range(1, 9)})), k_max=200)
        assert (rep.q, rep.a_q_predicted) == (2, Fraction(1, 2))
        assert rep.a_q_empirical == Fraction(201 * 202, 2 * 200 ** 2)


def test_acceptance_3_okounkov_kappa2_consistency():
    with criterion(3, "okounkov body dimension equals kappa2 wherever N != {}"):
        checked = 0
        for name, sys in corpus_section_systems(degree_bound=24):
            if not sys.support():
                continue
            reg = regularize(to_semigroup(sys))
            assert reg.okounkov_dim == kappa2(sys), name
            checked += 1
        assert checked >= 30


def test_acceptance_4_multiplier_laws():
    with criterion(4, "coefficient formula + subadditivity scan, < 10 s"):
        start = time.monotonic()
        mu = Fraction(3, 2)
        assert [multiplier_coeff(mu, k) for k in (1, 2, 4)] == [1, 2, 3]
        rep = subadditivity_scan(default_mu_grid(max_value=5, max_den=8),
                                 k_max=100)
        assert rep.ok, rep.violations[:3]
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_acceptance_5_separation_and_sigma_agreement():
    with criterion(5, "kappa/kappa_sigma separation; exact = empirical on corpus"):
        m = ToricDivisorData((0, 0))
        h = SingularMetricData([(0, 1)])
        sys = SectionSystem(P1, m, metric=h, degree_bound=24)
        assert kappa1(sys) == kappa2(sys) == kappa3(sys) == NEG_INF
        assert kappa_sigma(sys) == 0
        # kappa_sigma raises CrossCheckError on any exact/empirical mismatch,
        # so a clean sweep is the 100% agreement statement
        for name, variety, divisor, metric, bound in toric_kappa_corpus(24):
            kappa_sigma(SectionSystem(variety, divisor, metric,
                                      degree_bound=bound))


def test_acceptance_6_subadditivity_everywhere():
    with criterion(6, "spc/spck on all boundary subsets; 112/112k; chain, < 120 s"):
        start = time.monotonic()
        boundary = boundary_subset_instances(degree_bound=24)
        assert len(boundary) == 144  # 36 per fibration, 4 fibrations
        for name, inst in boundary:
            assert verify_subadditivity(inst, "spc").holds, name
            assert verify_subadditivity(inst, "spck").holds, name
            assert verify_chain(inst).holds, name
        curve_insts = curve_product_instances(degree_bound=24)
        assert len(curve_insts) >= 10
        for name, inst in curve_insts:
            assert verify_subadditivity(inst, "112").holds, name
            assert verify_subadditivity(inst, "112k").holds, name
            assert verify_chain(inst).holds, name
        for name, inst in metric_fibration_instances(degree_bound=24):
            assert verify_subadditivity(inst, "112").holds, name
            assert verify_subadditivity(inst, "112k").holds, name
            assert verify_chain(inst).holds, name
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_acceptance_7_addition_formula():
    with criterion(7, "dio equality on >= 10 curve x toric instances"):
        insts = [(name, i) for name, i in curve_product_instances(degree_bound=24)
                 if i.curve.genus >= 2]
        assert len(insts) >= 10
        assert {i.curve.genus for _, i in insts} == {2, 3}
        assert all(i.fiber_variety.lattice_rank <= 2 for _, i in insts)
        for name, inst in insts:
            v = verify_dio_equality(inst)
            assert v.holds, (name, v.lhs, v.rhs_terms)


def test_acceptance_8_iitaka_fibration():
    with criterion(8, "iitaka analysis: image_dim = kappa, fiber growth 0"):
        checked = 0
        for name, sys in corpus_section_systems(degree_bound=24):
            if not sys.support():
                continue
            k = kappa1(sys)
            if not (0 <= k < sys.variety.lattice_rank):
                continue
            res = iitaka_analysis(sys, lambda: kappa_report(sys).kappa)
            assert res.image_dim == k, name
            assert res.fiber_kappa == 0, name
            checked += 1
        assert checked >= 10


def test_acceptance_9_stride_and_addti():
    with criterion(9, "stride invariance a in {2,3,5}; addti on products"):
        for name, variety, divisor, metric, bound in toric_kappa_corpus(24):
            if variety.lattice_rank > 2:
                continue
            sys = SectionSystem(variety, divisor, metric, degree_bound=bound)
            base = kappa_sigma(sys)
            for a in (2, 3, 5):
                val = kappa_sigma(sys, stride=a)
                assert val == base, (name, a, val, base)

        fib = product_fibration(P1, P1)
        from kodaira.fibration import ToricFibrationInstance
        inst = ToricFibrationInstance(
            fibration=fib, divisor=ToricDivisorData((0, 1, 0, 1)),
            degree_bound=8)
        v = verify_addti(inst, ToricDivisorData((0, 1)))
        assert v.lhs == 6 and v.holds
        assert v.rhs_terms == (("h0(base twist)", 2), ("rank", 2))
        for name, inst in curve_product_instances(degree_bound=16):
            twist = CurveDivisorClass.general(2 * inst.curve.genus + 1)
            assert verify_addti(inst, twist).holds, name


def test_acceptance_10_upper_bound():
    with criterion(10, "kappa(X) <= kappa(F) + dim Y on every instance"):
        everything = (boundary_subset_instances(degree_bound=16)
                      + metric_fibration_instances(degree_bound=16)
                      + curve_product_instances(degree_bound=16))
        for name, inst in everything:
            assert verify_upper_bound(inst).holds, name
