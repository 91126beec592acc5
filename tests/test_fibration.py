from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira.curve import CurveDivisorClass, CurveModel
from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData, multiplier_coeff
from kodaira.semigroup import DegreeBoundError
from kodaira.toric import (
    CrossCheckError,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa1,
    kappa_report,
    kappa_sigma,
    kappa_sigma_hor,
)
from kodaira.fibration import (
    CurveProductInstance,
    ToricFibrationInstance,
    hirzebruch_fibration,
    iitaka_analysis,
    product_fibration,
    verify_addti,
    verify_chain,
    verify_dio_equality,
    verify_stride,
    verify_subadditivity,
    verify_upper_bound,
)

from _corpus import curve_product_instances
from _oracles import (
    affine_dimension,
    diff_lattice_per_point,
    gram_of_points,
    iitaka_fibers_per_point,
    kappa1_per_point,
    kappa_curve,
    kappa_sigma_curve,
    ray_fractions,
    section_points,
)

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P1xP1 = ToricVariety.product(P1, P1)
P1xP1xP1 = ToricVariety.product(P1xP1, P1)


# ---------------------------------------------------------------------------
# fiber restriction
# ---------------------------------------------------------------------------

def test_product_fiber_restriction():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 2, 1, 1)),
        metric=SingularMetricData([(0, 2), (2, 1)]))
    fiber, div, metric = inst.fiber_data()
    assert fiber is P1
    assert ray_fractions(div) == (0, 2)
    assert metric.entries == ((0, Fraction(2)),)


def test_hirzebruch_fiber_restriction():
    fib = hirzebruch_fibration(1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((3, 1, 2, 0)))
    fiber, div, metric = inst.fiber_data()
    # vertical rays (0,1) and (0,-1) carry coefficients 1 and 0
    assert ray_fractions(div) == (1, 0)
    assert not metric


def test_curve_product_fiber():
    inst = CurveProductInstance(
        curve=CurveModel(2),
        base_class=CurveDivisorClass.canonical_multiple(CurveModel(2), 1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 2)),
        fiber_metric=SingularMetricData([(0, 2)]))
    fiber, div, metric = inst.fiber_data()
    assert fiber is P1 and ray_fractions(div) == (0, 2)
    assert metric.entries == ((0, 2),)


def test_pullback_condition_enforced():
    fib = product_fibration(P1, P1)
    with pytest.raises(ValueError, match="pullback"):
        ToricFibrationInstance(fibration=fib, dx_rays=frozenset({0}),
                               dy_rays=frozenset({0}))


@pytest.mark.parametrize("dx, dy, bad, fan", [
    ({2, 3}, {-1}, [-1], "P1"),  # would wrap to the last base ray
    ({9}, set(), [9], "P1xP1"),  # would be dropped from D_X
    (set(), {5}, [5], "P1"),     # would index past the pullback rays
], ids=["negative_base_ray", "total_ray_past_the_end", "base_ray_past_the_end"])
def test_log_ray_indices_must_name_rays(dx, dy, bad, fan):
    fib = product_fibration(P1, P1)
    with pytest.raises(ValueError, match=rf"^log ray indices \{bad}\ name no "
                       rf"ray of {fan}$"):
        ToricFibrationInstance(fibration=fib, dx_rays=frozenset(dx),
                               dy_rays=frozenset(dy))


# ---------------------------------------------------------------------------
# subadditivity checks
# ---------------------------------------------------------------------------

def test_spc_full_boundary():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset({0, 1, 2, 3}),
        dy_rays=frozenset({0, 1}), degree_bound=12)
    v = verify_subadditivity(inst, "spc")
    assert v.holds and v.lhs == 0
    assert v.rhs_terms == (("kappa_sigma(fiber)", 0), ("kappa(base)", 0))


def test_spc_and_spck_on_sample():
    fib = hirzebruch_fibration(2)
    inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset({0, 1, 2}), dy_rays=frozenset({0, 1}),
        degree_bound=12)
    assert verify_subadditivity(inst, "spc").holds
    assert verify_subadditivity(inst, "spck").holds


def test_112_on_metric_product():
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 2, 0, 2)),
        metric=SingularMetricData([(0, 2)]), degree_bound=12)
    v = verify_subadditivity(inst, "112")
    assert v.holds and v.vacuous  # toric base: kappa(K_Y) is -inf


def test_112_on_curve_product_equality():
    c = CurveModel(2)
    inst = CurveProductInstance(
        curve=c, base_class=CurveDivisorClass.canonical_multiple(c, 1),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 2)),
        fiber_metric=SingularMetricData([(0, 2)]),
        degree_bound=16)
    v = verify_subadditivity(inst, "112")
    assert v.holds and not v.vacuous
    assert v.lhs == 2
    assert v.rhs_terms == (("kappa_sigma(fiber)", 1), ("kappa(base)", 1))


def test_wrong_flavor_rejected():
    fib = product_fibration(P1, P1)
    log_inst = ToricFibrationInstance(
        fibration=fib, dx_rays=frozenset(), dy_rays=frozenset(),
        degree_bound=10)
    with pytest.raises(ValueError):
        verify_subadditivity(log_inst, "112")
    metric_inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 1, 0, 1)),
        degree_bound=10)
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
    sys = SectionSystem(fib.total, m, h, degree_bound=14)
    assert kappa_sigma(sys) == 1
    assert kappa_sigma_hor(sys, fib) == NEG_INF


def test_hor_equals_sigma_when_metric_pulled_back():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, 2, 0, 0))
    h = SingularMetricData([(2, 1)])  # metric on a pulled-back ray
    sys = SectionSystem(fib.total, m, h, degree_bound=14)
    assert kappa_sigma(sys) == 1
    assert kappa_sigma_hor(sys, fib) == 1


def test_hor_no_metric_nef():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, 1, 0, 1))
    sys = SectionSystem(fib.total, m, None, degree_bound=14)
    assert kappa_sigma_hor(sys, fib) == kappa_sigma(sys) == 2


def test_chain_on_instances():
    fib = product_fibration(P1, P1)
    cases = [
        ToricFibrationInstance(fibration=fib,
                               divisor=ToricDivisorData((0, 0, 0, 2)),
                               metric=SingularMetricData([(0, 1)]),
                               degree_bound=12),
        ToricFibrationInstance(fibration=fib,
                               divisor=ToricDivisorData((0, 1, 0, 1)),
                               degree_bound=12),
    ]
    for inst in cases:
        v = verify_chain(inst)
        assert v.holds
        k, ks, kh = inst.report.kappa, inst.kappa_sigma, inst.kappa_sigma_hor
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
        degree_bound=bound)


def test_dio_worked_example():
    v = verify_dio_equality(dio_instance())
    assert v.holds
    assert v.lhs == 2
    assert v.rhs_terms == (("kappa(fiber)", 1), ("dim(base)", 1))


def test_dio_empty_fiber():
    v = verify_dio_equality(dio_instance(fdiv=(0, -1), fmetric=()))
    assert v.holds
    assert v.lhs == NEG_INF
    assert v.rhs_terms == (("kappa(fiber)", NEG_INF), ("dim(base)", 1))


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
        degree_bound=16)
    v = verify_dio_equality(inst)
    assert v.holds and v.lhs == 3


def test_upper_bound_everywhere():
    insts = [
        dio_instance(),
        dio_instance(fdiv=(0, 0), fmetric=((0, 1),)),
        ToricFibrationInstance(
            fibration=product_fibration(P1, P1),
            divisor=ToricDivisorData((0, 2, 0, 2)), degree_bound=12),
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
        degree_bound=8)
    v = verify_addti(inst, ToricDivisorData((0, 1)))
    # lhs counts O(1,2)-style sections: 6; rhs = 2 * 2
    assert v.lhs == 6
    assert v.rhs_terms == (("h0(base twist)", 2), ("rank", 2))
    assert v.holds


def test_addti_kunneth_equality_curve():
    inst = dio_instance()
    v = verify_addti(inst, CurveDivisorClass.general(5))
    assert v.holds
    # split data: exact Kunneth factorization
    assert v.lhs == inst.base_count(1, extra_degree=5) * inst.fiber_system.count(1)


def test_addti_vacuous():
    inst = dio_instance(fdiv=(0, -1), fmetric=())
    v = verify_addti(inst, CurveDivisorClass.general(5))
    assert v.holds and v.vacuous  # sectionless fiber: rank 0


def test_stride_invariance_op():
    # the separation point (kappa -inf, kappa_sigma 0) times P1
    fib = product_fibration(P1, P1)
    v = verify_stride(ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 0, 0, 0)),
        metric=SingularMetricData([(0, 1)]), degree_bound=16))
    assert v.holds and v.lhs == 0
    assert v.rhs_terms == (("stride_2", 0), ("stride_3", 0), ("stride_5", 0))
    v2 = verify_stride(ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, -1, 0, 0)),
        degree_bound=12))
    assert v2.holds and v2.lhs == NEG_INF


# ---------------------------------------------------------------------------
# iitaka analysis
# ---------------------------------------------------------------------------

def iitaka(sys):
    """iitaka_analysis checked against the system's own growth report."""
    return iitaka_analysis(sys, lambda: kappa_report(sys).kappa)


def test_iitaka_projection():
    # every degree 1..16 contracts to a fiber point of the projection
    sys = SectionSystem(P1xP1, ToricDivisorData((0, 0, 0, 2)), degree_bound=16)
    assert iitaka(sys) == 1


def test_iitaka_big_case():
    sys = SectionSystem(P1xP1, ToricDivisorData((1, 1, 1, 1)), degree_bound=12)
    assert iitaka(sys) == 2


def test_iitaka_zero_case():
    # the image is a point and the fiber the whole space
    sys = SectionSystem(P1, ToricDivisorData((0, 0)), degree_bound=12)
    assert iitaka(sys) == 0


def test_iitaka_needs_room():
    # the one nonempty degree, 1, has no room for 2k within the bound
    sys = SectionSystem(P1, ToricDivisorData((0, 1)), degree_bound=1)
    with pytest.raises(DegreeBoundError, match="increase degree bound"):
        iitaka(sys)


def test_iitaka_image_dimension_is_checked_against_growth():
    sys = SectionSystem(P1xP1, ToricDivisorData((0, 0, 0, 2)), degree_bound=16)
    assert iitaka_analysis(sys, lambda: 1) == 1
    with pytest.raises(CrossCheckError,
                       match="image dimension 1 disagrees with growth 2"):
        iitaka_analysis(sys, lambda: 2)


def spread_degree(sys, degree, extra):
    """(points, gram) in which the given degree also holds the points
    extra, put right after its first point: the per-point references take
    the points, and sys is patched with the Gram matrices the library
    reads."""
    gram = sys.gram
    pts = section_points(sys, degree)
    pts = pts[:1] + tuple(extra) + pts[1:]
    spread = gram_of_points(pts, sys.variety.lattice_rank)
    return (lambda l: pts if l == degree else section_points(sys, l),
            lambda l: spread if l == degree else gram(l))


@pytest.mark.parametrize("variety, coeffs", [
    (P1xP1, (0, 0, 0, 2)),
    (P1xP1xP1, (0, 0, 0, 0, 0, 2)),
    (P1xP1xP1, (0, 0, 0, 0, 0, 0)),
])
def test_iitaka_degree_across_fibers_raises(variety, coeffs):
    # one point off the fiber of degree 3, in each small direction that
    # leaves the contracted lattice, between points on the fiber
    sys = SectionSystem(variety, ToricDivisorData(coeffs), degree_bound=8)
    n = variety.lattice_rank
    image_dim, relations = iitaka_fibers_per_point(sys, 4)
    assert image_dim == len(relations) < n
    base = section_points(sys, 3)[0]
    message = "degree 3 spreads across fibers: growth is not contracted"
    for e in product([-1, 0, 1], repeat=n):
        off = tuple(map(add, base, e))
        if affine_dimension([(0,) * n, *relations, e]) == len(relations):
            continue  # e lies in the contracted lattice
        with pytest.MonkeyPatch.context() as mp:
            points, gram = spread_degree(sys, 3, [off])
            mp.setattr(sys, "gram", gram)
            with pytest.raises(CrossCheckError, match=message):
                iitaka_fibers_per_point(sys, 4, points)
            with pytest.raises(CrossCheckError, match=message):
                iitaka(sys)


VARIETIES = [P1, P2, P1xP1, ToricVariety.hirzebruch(1),
             ToricVariety.hirzebruch(2), P1xP1xP1]


@st.composite
def section_systems(draw):
    """(sys, points): a small section system and the exponent set reader
    of the references, `section_points` on sys or, with sys's Gram matrices
    patched to match, one in which a degree gains a few points near its
    first one (on its fiber or off it)."""
    var = draw(st.sampled_from(VARIETIES))
    n = var.lattice_rank
    coeffs = draw(st.tuples(*[st.sampled_from([0, 0, 0, 1, 2, -1])] * len(var.rays)))
    weights = draw(st.lists(st.tuples(st.integers(0, len(var.rays) - 1),
                                      st.fractions(0, 3, max_denominator=3)),
                            max_size=2, unique_by=lambda e: e[0]))
    sys = SectionSystem(var, ToricDivisorData(coeffs),
                        metric=SingularMetricData(weights),
                        degree_bound=draw(st.integers(4, 10 if n < 3 else 6)))
    support = sys.support()
    points = partial(section_points, sys)
    if support and draw(st.booleans()):
        degree = draw(st.sampled_from(support))
        base = section_points(sys, degree)[0]
        offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                                min_size=1, max_size=3))
        extra = [tuple(map(add, base, u)) for u in offsets]
        points, sys.gram = spread_degree(sys, degree, extra)
    return sys, points


def outcome(call):
    try:
        return "ok", call()
    except (CrossCheckError, DegreeBoundError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(section_systems())
def test_spans_match_per_point_references(case):
    sys, points = case
    n = sys.variety.lattice_rank
    assert kappa1(sys) == kappa1_per_point(sys, points)
    support = sys.support()
    k = max((d for d in support if 2 * d <= sys.degree_bound), default=None)
    if k is None:
        return
    rank_k = diff_lattice_per_point([points(k)], n).rank
    rank_2k = diff_lattice_per_point([points(2 * k)], n).rank
    kind, got = outcome(lambda: iitaka(sys))
    if rank_k != rank_2k:
        assert (kind, got) == ("DegreeBoundError", "increase degree bound")
        return
    want_kind, want = outcome(lambda: iitaka_fibers_per_point(sys, k, points))
    if want_kind != "ok":
        assert (kind, got) == (want_kind, want)
    elif kind == "ok":
        assert got == want[0]
    else:  # the fiber check passed; only the later kappa cross-check failed
        assert "spreads across fibers" not in got


def test_product_growth_routes_are_cross_checked():
    # a wrong fiber order makes the sum route disagree with the slope of
    # the product counts
    inst = dio_instance()
    inst.fiber_report = replace(inst.fiber_report, kappa1=0)
    with pytest.raises(CrossCheckError, match="product growth mismatch: "
                       "sum route 1, slope route 2"):
        inst.report


def test_undetermined_product_growth_is_a_degree_bound_error():
    # genus 2 x P1, fiber divisor H, base K_Y + 2 points: each factor is
    # decided at bound 3, the quadratic product counts need a fourth sample;
    # a larger bound mends it, so it is no disagreement of the routes
    g2 = CurveModel(2)
    inst = partial(CurveProductInstance, curve=g2,
                   base_class=CurveDivisorClass.general(4), fiber_variety=P1,
                   fiber_divisor=ToricDivisorData((1, 1)))
    with pytest.raises(DegreeBoundError, match="^product growth not estimable$"):
        inst(degree_bound=3).report
    assert inst(degree_bound=4).report.kappa == 2


def g2_times_p2(bound):
    """Genus 2 times (P^2, H) over K_Y, at the given degree bound."""
    g2 = CurveModel(2)
    return CurveProductInstance(
        curve=g2, base_class=CurveDivisorClass.canonical_multiple(g2, 1),
        fiber_variety=P2, fiber_divisor=ToricDivisorData((1, 0, 0)),
        degree_bound=bound)


def p2_hyperplane(bound=16):
    return SectionSystem(P2, ToricDivisorData((1, 0, 0)), degree_bound=bound)


@pytest.mark.parametrize("call, error, message", [
    (lambda: p2_hyperplane(0), ValueError, "degree_bound must be positive, got 0"),
    (lambda: p2_hyperplane(-3), ValueError, "degree_bound must be positive, got -3"),
    (lambda: kappa_sigma(p2_hyperplane(), stride=-1), ValueError,
     "stride must be positive, got -1"),
    (lambda: kappa_sigma(p2_hyperplane(), stride=0), ValueError,
     "stride must be positive, got 0"),
    (lambda: kappa_sigma(p2_hyperplane(), stride=1.5), ValueError,
     "stride must be an integer, got 1.5"),
    (lambda: g2_times_p2(0).report, ValueError,
     "degree_bound must be positive, got 0"),
    (lambda: g2_times_p2(0).base, DegreeBoundError, "degree bound too small"),
], ids=["bound_0", "bound_negative", "stride_negative", "stride_0",
        "stride_fraction", "curve_product_report", "curve_product_base"])
def test_degree_bound_or_stride_below_1_is_an_error(call, error, message):
    # no degree is counted, so no growth order can be read: the counts of
    # no degree are no evidence of a dead system
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("genus", range(5))
@pytest.mark.parametrize("bound", range(1, 13))
def test_curve_base_pair_matches_the_curve_references(genus, bound):
    # the base pair read off base_growth equals the plain and perturbed
    # growth of K_Y's multiples, errors included
    curve = CurveModel(genus)
    ky = CurveDivisorClass.canonical_multiple(curve, 1)
    # the instance's own base class and metric must not leak into the pair
    inst = CurveProductInstance(
        curve=curve, base_class=CurveDivisorClass.general(2 * genus + 3),
        fiber_variety=P1, fiber_divisor=ToricDivisorData((0, 1)),
        base_metric=SingularMetricData([("p", Fraction(3, 2))]),
        degree_bound=bound)

    def outcome(call):
        try:
            return "ok", call()
        except DegreeBoundError as exc:
            return "DegreeBoundError", str(exc)

    want = outcome(lambda: (kappa_curve(curve, ky, bound),
                            kappa_sigma_curve(curve, ky, bound)))
    assert outcome(lambda: inst.base) == want
    if bound == 1:  # one count fixes no growth degree
        assert want == ("DegreeBoundError", "degree bound too small")


def test_kappa_summary_record():
    inst = dio_instance()
    rep = inst.report
    assert rep.kappa == rep.kappa1 == rep.kappa2 == rep.kappa3 == 2
    assert inst.kappa_sigma == 2 and inst.kappa_sigma_hor == 2
    assert inst.fiber[0] == 1 and inst.base[0] == 1
    fib = product_fibration(P1, P1)
    t = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 0, 0, 2)),
        metric=SingularMetricData([(0, 1)]), degree_bound=12)
    rep = t.report
    assert rep.kappa == NEG_INF and t.kappa_sigma == 1
    assert t.kappa_sigma_hor == NEG_INF
    assert rep.witness_degree is None


def test_verify_iitaka_verdict():
    from kodaira.fibration import verify_iitaka
    fib = product_fibration(P1, P1)
    inst = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, 0, 0, 2)),
        degree_bound=16)
    v = verify_iitaka(inst)
    assert v.check_id == "iitaka_fibration" and v.holds
    assert v.lhs == 1
    empty = ToricFibrationInstance(
        fibration=fib, divisor=ToricDivisorData((0, -1, 0, 0)),
        degree_bound=12)
    v = verify_iitaka(empty)
    assert v.holds and v.vacuous


def test_hor_empty_everything():
    fib = product_fibration(P1, P1)
    m = ToricDivisorData((0, -1, 0, 0))
    assert kappa_sigma_hor(SectionSystem(fib.total, m, None, degree_bound=12),
                           fib) == NEG_INF


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


@pytest.mark.parametrize("checks, name", [
    pytest.param(checks, name, id=f"{label}-{name}")
    for label, checks, names in [
        ("summary", [], ("fibration_hirzebruch_log.json",
                         "fibration_metric_drop.json")),
        ("default_checks", None, ("fibration_hirzebruch_log.json",
                                  "fibration_metric_drop.json")),
        # simple reads kappa_sigma before the subadditivity check's reads
        ("simple_spc", ["simple", "spc"], ("fibration_hirzebruch_log.json",)),
        ("simple_112", ["simple", "112"], ("fibration_metric_drop.json",)),
        ("addti", ["addti"], ("fibration_hirzebruch_log.json",
                              "fibration_metric_drop.json"))]
    for name in names])
def test_fibration_run_computes_invariants_in_summary_order(
        monkeypatch, capsys, tmp_path, name, checks):
    # the order of the first reads fixes the order of the computations, and
    # so which error a run reports when more than one part would raise; with
    # no checks the summary alone reads every invariant
    import json
    from functools import cached_property
    from pathlib import Path

    from kodaira.cli import main

    order = ["report", "kappa_sigma", "kappa_sigma_hor", "fiber", "base"]
    computed = []
    for attr in order:
        def recorded(self, func=getattr(ToricFibrationInstance, attr).func,
                     attr=attr):
            computed.append(attr)
            return func(self)

        prop = cached_property(recorded)
        prop.__set_name__(ToricFibrationInstance, attr)
        monkeypatch.setattr(ToricFibrationInstance, attr, prop)
    doc = json.loads((Path(__file__).parent.parent / "corpus" / name).read_text())
    if checks is None:
        doc["body"].pop("checks", None)
    else:
        doc["body"]["checks"] = checks
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"summary"' in capsys.readouterr().out
    assert computed == order


def test_curve_product_run_builds_one_plain_fiber_system(monkeypatch, capsys):
    # product counts and period, both kappa routes, the fiber pair, dio and
    # addti all read the one aux-free fiber system of the instance
    import kodaira.toric
    from pathlib import Path

    from kodaira.cli import main

    plain = []
    inner = kodaira.toric.SectionSystem.__init__

    def counted(self, variety, *args, **kwargs):
        plain.append(variety.name)
        inner(self, variety, *args, **kwargs)

    monkeypatch.setattr(kodaira.toric.SectionSystem, "__init__", counted)
    path = Path(__file__).parent.parent / "corpus" / "fibration_dio_g2.json"
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert plain == ["P1"]


def test_toric_addti_run_builds_one_plain_fiber_system(monkeypatch, capsys,
                                                     tmp_path):
    # the fiber pair and the addti rank read the one aux-free fiber system
    # of a toric instance; the fiber P2 is told apart from the base P1
    import json
    import kodaira.toric

    from kodaira.cli import main

    plain = []
    inner = kodaira.toric.SectionSystem.__init__

    def counted(self, variety, *args, **kwargs):
        plain.append(variety.name)
        inner(self, variety, *args, **kwargs)

    monkeypatch.setattr(kodaira.toric.SectionSystem, "__init__", counted)
    path = tmp_path / "p2_over_p1.json"
    path.write_text(json.dumps({
        "schema_version": "1", "kind": "fibration", "options": {"max_degree": 8},
        "body": {"variant": "toric_product",
                 "fiber": {"preset": "projective_space", "n": 2},
                 "base": {"preset": "projective_space", "n": 1},
                 "dx_rays": [0, 1, 2, 3, 4], "dy_rays": [0, 1],
                 "checks": ["spc", "addti", "upper"]}}))
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert plain.count("P2") == 1


def _record_system_folds(monkeypatch):
    """(full builds, folds) of the SectionSystems a run makes: each build
    appends its variety's name, and each fold of constant bounds, once per
    build and once per twist that is not a memo hit, appends (variety name,
    aux numerators or None)."""
    import kodaira.toric

    system = kodaira.toric.SectionSystem
    builds, folds = [], []
    init, own = system.__init__, system._own

    def counted_init(self, variety, *args, **kwargs):
        builds.append(variety.name)
        init(self, variety, *args, **kwargs)

    def counted_own(self, aux):
        folds.append((self.variety.name, aux and aux.nums))
        own(self, aux)

    monkeypatch.setattr(system, "__init__", counted_init)
    monkeypatch.setattr(system, "_own", counted_own)
    return builds, folds


def test_log_fibration_run_builds_three_systems_and_twists_them(monkeypatch,
                                                                capsys):
    # total space, fiber and base are built once each; each of the four
    # perturbed growths (kappa_sigma of the three, kappa_sigma_hor of the
    # total space) twists its system by three multiples of its perturbation
    from pathlib import Path

    from kodaira.cli import main

    builds, folds = _record_system_folds(monkeypatch)
    path = Path(__file__).parent.parent / "corpus" / "fibration_hirzebruch_log.json"
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert sorted(builds) == ["F2", "P1", "P1"]
    assert len(folds) - len(builds) == 12


@pytest.mark.parametrize("command, name, strides, builds, folds", [
    # one P1 system and its three perturbed twists
    ("kappa", "kappa_p1_deg2_mu2.json", '"kappa_sigma_strides"', 1, 4),
    # total space, fiber and base, and three twists for each of the four
    # perturbed growths (kappa_sigma of the three, kappa_sigma_hor)
    ("fibration", "fibration_metric_drop.json", '"stride_5"', 3, 15),
], ids=["kappa", "fibration"])
def test_strides_read_the_stride_one_twists(monkeypatch, capsys, command,
                                            name, strides, builds, folds):
    # kappa_sigma on strides 2, 3 and 5 (the kappa file's strides, the
    # fibration file's stride check) counts on the twists of the stride-1
    # kappa_sigma, so it folds nothing more
    from pathlib import Path

    from kodaira.cli import main

    built, folded = _record_system_folds(monkeypatch)
    path = Path(__file__).parent.parent / "corpus" / name
    assert main([command, str(path), "--format", "json"]) == 0
    assert strides in capsys.readouterr().out
    assert (len(built), len(folded)) == (builds, folds)


def test_curve_product_shares_its_perturbed_fiber_systems(monkeypatch, capsys):
    # the fiber's kappa_sigma and the product's perturbed counts read the
    # same twists of the P1 fiber system, so each is folded once
    from collections import Counter
    from pathlib import Path

    from kodaira.cli import main

    builds, folds = _record_system_folds(monkeypatch)
    path = Path(__file__).parent.parent / "corpus" / "fibration_dio_g2.json"
    assert main(["fibration", str(path), "--format", "json"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert builds == ["P1"]
    twists = Counter(folds)
    for m in (1, 2, 3):
        assert twists["P1", (m, m)] == 1


def test_evaluated_instances_are_freed_without_gc():
    # nothing an instance keeps refers back to it, so dropping the last
    # reference frees it at once, with the cycle collector off
    import gc
    import weakref

    def toric_instance():
        return ToricFibrationInstance(
            fibration=product_fibration(P1, P1),
            divisor=ToricDivisorData((0, 0, 0, 2)),
            metric=SingularMetricData([(0, 1)]), degree_bound=12)

    gc.disable()
    try:
        for make in (toric_instance, dio_instance):
            inst = make()
            (inst.report, inst.kappa_sigma, inst.kappa_sigma_hor, inst.fiber,
             inst.base)
            verify_upper_bound(inst)
            ref = weakref.ref(inst)
            del inst
            assert ref() is None, make.__name__
    finally:
        gc.enable()


@pytest.mark.parametrize("inst", [
    pytest.param(inst, id=name)
    for name, inst in curve_product_instances(degree_bound=12)])
def test_base_class_at_matches_multiplier_coeff_sum(inst):
    """The integer (p, q) weights give the same class as summing
    `multiplier_coeff` over the marked points, also where a weight below 1
    would drive floor(k mu) - k + 1 negative."""
    for k in range(1, 13):
        mult = inst.base_class.times(k)
        drop = sum(multiplier_coeff(mu, k) for _, mu in inst.base_metric.entries)
        for extra in (0, 3):
            want = (mult if drop == 0 and extra == 0 else
                    CurveDivisorClass.general(mult.degree - drop + extra))
            assert inst.base_class_at(k, extra) == want, (k, extra)
