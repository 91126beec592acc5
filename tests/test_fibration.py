from fractions import Fraction

import pytest

from kodaira.curve import CurveDivisorClass, CurveModel
from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa_sigma,
    kappa_sigma_hor,
)
from kodaira.fibration import (
    CurveProductInstance,
    ToricFibrationInstance,
    general_fiber_data,
    hirzebruch_fibration,
    iitaka_analysis,
    instance_kappa_values,
    product_fibration,
    verify_addti,
    verify_chain,
    verify_dio_equality,
    verify_stride,
    verify_subadditivity,
    verify_upper_bound,
)

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P1xP1 = ToricVariety.product(P1, P1)


# ---------------------------------------------------------------------------
# fiber restriction
# ---------------------------------------------------------------------------

def test_product_fiber_restriction():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 2, 1, 1)),
        metric=SingularMetricData([(0, 2), (2, 1)]), instance_id="t")
    fiber, div, metric = general_fiber_data(inst)
    assert fiber is P1
    assert div.coefficients == (0, 2)
    assert metric.entries == ((0, Fraction(2)),)


def test_hirzebruch_fiber_restriction():
    fib = hirzebruch_fibration(1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((3, 1, 2, 0)), instance_id="t")
    fiber, div, metric = general_fiber_data(inst)
    # vertical rays (0,1) and (0,-1) carry coefficients 1 and 0
    assert div.coefficients == (1, 0)
    assert not metric


def test_curve_product_fiber():
    inst = CurveProductInstance(
        curve=CurveModel(2),
        base_class=CurveDivisorClass.canonical_multiple(CurveModel(2), 1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 2)),
        fiber_metric=SingularMetricData([(0, 2)]), instance_id="c")
    fiber, div, metric = general_fiber_data(inst)
    assert fiber is P1 and div.coefficients == (0, 2)
    assert metric.weight(0) == 2


def test_pullback_condition_enforced():
    fib = product_fibration(P1, P1)
    with pytest.raises(ValueError, match="pullback"):
        ToricFibrationInstance(fibration=fib, dx_rays=frozenset({0}),
                               dy_rays=frozenset({0}), instance_id="bad")


# ---------------------------------------------------------------------------
# subadditivity checks
# ---------------------------------------------------------------------------

def test_spc_full_boundary():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset({0, 1, 2, 3}),
        dy_rays=frozenset({0, 1}), degree_bound=12, instance_id="full")
    v = verify_subadditivity(inst, "spc")
    assert v.holds and v.lhs == 0 and v.rhs_value == 0


def test_spc_and_spck_on_sample():
    fib = hirzebruch_fibration(2)
    inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset({0, 1, 2}), dy_rays=frozenset({0, 1}),
        degree_bound=12, instance_id="f2_sample")
    assert verify_subadditivity(inst, "spc").holds
    assert verify_subadditivity(inst, "spck").holds


def test_112_on_metric_product():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 2, 0, 2)),
        metric=SingularMetricData([(0, 2)]), degree_bound=12,
        instance_id="m112")
    v = verify_subadditivity(inst, "112")
    assert v.holds and v.vacuous  # toric base: kappa(K_Y) is -inf


def test_112_on_curve_product_equality():
    c = CurveModel(2)
    inst = CurveProductInstance(
        curve=c, base_class=CurveDivisorClass.canonical_multiple(c, 1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 2)),
        fiber_metric=SingularMetricData([(0, 2)]),
        degree_bound=16, instance_id="c112")
    v = verify_subadditivity(inst, "112")
    assert v.holds and not v.vacuous
    assert v.lhs == 2 and v.rhs_value == 1 + 1


def test_wrong_flavor_rejected():
    fib = product_fibration(P1, P1)
    log_inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset(), dy_rays=frozenset(),
        degree_bound=10, instance_id="log")
    with pytest.raises(ValueError):
        verify_subadditivity(log_inst, "112")
    metric_inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 1, 0, 1)),
        degree_bound=10, instance_id="met")
    with pytest.raises(ValueError):
        verify_subadditivity(metric_inst, "spc")


# ---------------------------------------------------------------------------
# horizontal perturbations
# ---------------------------------------------------------------------------

def test_hor_drop_instance():
    # degree on the base, weight 1 on a fiber-direction ray: pullback
    # perturbations cannot relax it, so the horizontal value drops to -inf
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, 0, 0, 2))
    h = SingularMetricData([(0, 1)])
    assert kappa_sigma(fib.total, m, h, degree_bound=14) == 1
    assert kappa_sigma_hor(fib.total, m, h, fib, degree_bound=14) == NEG_INF


def test_hor_equals_sigma_when_metric_pulled_back():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, 2, 0, 0))
    h = SingularMetricData([(2, 1)])  # metric on a pulled-back ray
    assert kappa_sigma(fib.total, m, h, degree_bound=14) == 1
    assert kappa_sigma_hor(fib.total, m, h, fib, degree_bound=14) == 1


def test_hor_no_metric_nef():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, 1, 0, 1))
    assert kappa_sigma_hor(fib.total, m, None, fib, degree_bound=14) == \
        kappa_sigma(fib.total, m, None, degree_bound=14) == 2


def test_chain_on_instances():
    fib = product_fibration(P1, P1)
    cases = [
        ToricFibrationInstance(fibration=fib,
                               divisor=ToricDivisorData((0, 0, 0, 2)),
                               metric=SingularMetricData([(0, 1)]),
                               degree_bound=12, instance_id="drop"),
        ToricFibrationInstance(fibration=fib,
                               divisor=ToricDivisorData((0, 1, 0, 1)),
                               degree_bound=12, instance_id="nef"),
    ]
    for inst in cases:
        v = verify_chain(inst)
        assert v.holds
        k, ks, kh = instance_kappa_values(inst)
        assert k <= kh <= ks


# ---------------------------------------------------------------------------
# dio equality and the upper bound
# ---------------------------------------------------------------------------

def dio_instance(genus=2, fdiv=(0, 2), fmetric=((0, 2),), bound=16):
    c = CurveModel(genus)
    return CurveProductInstance(
        curve=c, base_class=CurveDivisorClass.canonical_multiple(c, 1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData(fdiv),
        fiber_metric=SingularMetricData(fmetric),
        degree_bound=bound, instance_id=f"dio_g{genus}")


def test_dio_worked_example():
    v = verify_dio_equality(dio_instance())
    assert v.holds
    assert v.lhs == 2 and v.rhs_value == 2


def test_dio_empty_fiber():
    v = verify_dio_equality(dio_instance(fdiv=(0, -1), fmetric=()))
    assert v.holds
    assert v.lhs == NEG_INF and v.rhs_value == NEG_INF


def test_dio_needs_general_type():
    inst = dio_instance()
    inst.curve = CurveModel(1)
    with pytest.raises(ValueError, match="general-type"):
        verify_dio_equality(inst)


def test_dio_surface_fiber():
    c = CurveModel(3)
    inst = CurveProductInstance(
        curve=c, base_class=CurveDivisorClass.canonical_multiple(c, 1),
        fiber_variety=P1xP1, fiber_divisor=ToricDivisorData((0, 1, 0, 1)),
        degree_bound=16, instance_id="dio_surface")
    v = verify_dio_equality(inst)
    assert v.holds and v.lhs == 3


def test_upper_bound_everywhere():
    insts = [
        dio_instance(),
        dio_instance(fdiv=(0, 0), fmetric=((0, 1),)),
        ToricFibrationInstance(
            fibration=product_fibration(P1, P1),
            divisor=ToricDivisorData((0, 2, 0, 2)), degree_bound=12,
            instance_id="ub"),
    ]
    for inst in insts:
        assert verify_upper_bound(inst).holds


# ---------------------------------------------------------------------------
# addti and stride
# ---------------------------------------------------------------------------

def test_addti_product_counts():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 1, 0, 1)),
        degree_bound=8, instance_id="addti")
    v = verify_addti(inst, ToricDivisorData((0, 1)), k=1)
    # lhs counts O(1,2)-style sections: 6; rhs = 2 * 2
    assert v.lhs == 6
    assert v.rhs_terms == (("h0(base twist)", 2), ("rank", 2))
    assert v.holds


def test_addti_kunneth_equality_curve():
    inst = dio_instance()
    v = verify_addti(inst, CurveDivisorClass.general(5), k=2)
    assert v.holds
    # split data: exact Kunneth factorization
    assert v.lhs == inst.base_count(2, extra_degree=5) * inst.fiber_system().count(2)


def test_addti_vacuous():
    inst = dio_instance(fdiv=(0, -1), fmetric=())
    v = verify_addti(inst, CurveDivisorClass.general(5), k=1)
    assert v.holds and v.vacuous  # sectionless fiber: rank 0


def test_stride_invariance_op():
    v = verify_stride(P1, ToricDivisorData((0, 0)),
                      SingularMetricData([(0, 1)]), strides=(1, 2, 3, 5),
                      degree_bound=16, instance_id="sep")
    assert v.holds and v.lhs == 0
    v2 = verify_stride(P1, ToricDivisorData((0, -1)), None, strides=(3,),
                       degree_bound=12, instance_id="empty")
    assert v2.holds and v2.lhs == NEG_INF


# ---------------------------------------------------------------------------
# iitaka analysis
# ---------------------------------------------------------------------------

def test_iitaka_projection():
    sys = SectionSystem(P1xP1, ToricDivisorData((0, 0, 0, 2)), degree_bound=16)
    res = iitaka_analysis(sys)
    assert res.image_dim == 1
    assert res.fiber_lattice_rank == 1
    assert res.fiber_kappa == 0
    assert res.degrees_checked == tuple(range(1, 17))


def test_iitaka_big_case():
    sys = SectionSystem(P1xP1, ToricDivisorData((1, 1, 1, 1)), degree_bound=12)
    res = iitaka_analysis(sys)
    assert res.image_dim == 2
    assert res.fiber_lattice_rank == 0


def test_iitaka_zero_case():
    sys = SectionSystem(P1, ToricDivisorData((0, 0)), degree_bound=12)
    res = iitaka_analysis(sys)
    assert res.image_dim == 0
    assert res.fiber_lattice_rank == 1  # fiber is the whole space


def test_iitaka_needs_room():
    sys = SectionSystem(P1, ToricDivisorData((0, 1)), degree_bound=10)
    with pytest.raises(Exception):
        iitaka_analysis(sys, k=9)  # 2k beyond the bound


def test_kappa_summary_record():
    from kodaira.fibration import kappa_summary
    inst = dio_instance()
    rep = kappa_summary(inst)
    assert rep.kappa == rep.kappa1 == rep.kappa2 == rep.kappa3 == 2
    assert rep.kappa_sigma == 2 and rep.kappa_sigma_hor == 2
    assert rep.fiber_kappa == 1 and rep.base_kappa == 1
    assert rep.degree_bound == 16
    fib = product_fibration(P1, P1)
    t = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 0, 0, 2)),
        metric=SingularMetricData([(0, 1)]), degree_bound=12,
        instance_id="summary")
    rep = kappa_summary(t)
    assert rep.kappa == NEG_INF and rep.kappa_sigma == 1
    assert rep.kappa_sigma_hor == NEG_INF
    assert rep.witness_degree is None


def test_verify_iitaka_verdict():
    from kodaira.fibration import verify_iitaka
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 0, 0, 2)),
        degree_bound=16, instance_id="iitaka")
    v = verify_iitaka(inst)
    assert v.check_id == "iitaka_fibration" and v.holds
    assert v.lhs == 1
    empty = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, -1, 0, 0)),
        degree_bound=12, instance_id="iitaka_empty")
    v = verify_iitaka(empty)
    assert v.holds and v.vacuous


def test_hor_empty_everything():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, -1, 0, 0))
    assert kappa_sigma_hor(fib.total, m, None, fib, degree_bound=12) == NEG_INF


def test_fibration_run_evaluates_each_perturbed_growth_once(monkeypatch, capsys):
    # the four default checks and the summary share one evaluation record:
    # one perturbed-growth run each for the total space (full and
    # horizontal), the fiber and the base
    import kodaira.toric
    from pathlib import Path

    from kodaira.cli import main

    routes = []
    inner = kodaira.toric._perturbed_growth

    def counted(*args):
        routes.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(kodaira.toric, "_perturbed_growth", counted)
    path = Path(__file__).parent.parent / "corpus" / "fibration_hirzebruch_log.json"
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert sorted(routes) == ["horizontal", "numerical", "numerical", "numerical"]


def test_curve_product_run_builds_one_plain_fiber_system(monkeypatch, capsys):
    # product counts and period, both kappa routes, the fiber pair, dio and
    # addti all read the one aux-free fiber system of the instance
    import kodaira.toric
    from pathlib import Path

    from kodaira.cli import main

    plain = []
    inner = kodaira.toric.SectionSystem.__init__

    def counted(self, variety, divisor, metric=None, aux=None, **kwargs):
        if aux is None:
            plain.append(variety.name)
        inner(self, variety, divisor, metric=metric, aux=aux, **kwargs)

    monkeypatch.setattr(kodaira.toric.SectionSystem, "__init__", counted)
    path = Path(__file__).parent.parent / "corpus" / "fibration_dio_g2.json"
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert plain == ["P1"]


def test_evaluated_instances_are_freed_without_gc():
    # nothing an instance keeps refers back to it, so dropping the last
    # reference frees it at once, with the cycle collector off
    import gc
    import weakref

    from kodaira.fibration import kappa_summary

    def toric_instance():
        return ToricFibrationInstance(
            fibration=product_fibration(P1, P1),
            divisor=ToricDivisorData((0, 0, 0, 2)),
            metric=SingularMetricData([(0, 1)]), degree_bound=12,
            instance_id="freed")

    gc.disable()
    try:
        for make in (toric_instance, dio_instance):
            inst = make()
            kappa_summary(inst)
            verify_upper_bound(inst)
            ref = weakref.ref(inst)
            del inst
            assert ref() is None, make.__name__
    finally:
        gc.enable()
