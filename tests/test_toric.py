import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira.fibration import hirzebruch_fibration
from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import DegreeBoundError, regularize
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    is_ample,
    kappa1,
    kappa2,
    kappa3,
    kappa_report,
    kappa_sigma,
    limit_polytope,
)

from _oracles import (
    FreshSectionSystem,
    ample_by_vertices,
    section_points,
    to_semigroup,
)

P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P1xP1 = ToricVariety.product(P1, P1)


# ---------------------------------------------------------------------------
# varieties
# ---------------------------------------------------------------------------

def test_preset_shapes():
    assert P1.rays == ((1,), (-1,))
    assert P2.lattice_rank == 2 and len(P2.rays) == 3
    assert P1xP1.lattice_rank == 2 and len(P1xP1.rays) == 4
    f2 = ToricVariety.hirzebruch(2)
    assert (-1, 2) in f2.rays


def test_presets_are_shared_per_argument():
    assert ToricVariety.projective_space(2) is P2
    assert ToricVariety.hirzebruch(3) is ToricVariety.hirzebruch(3)
    assert ToricVariety.product(P1, P1) is P1xP1
    assert P1xP1.factors == (P1, P1)
    fib = hirzebruch_fibration(2)
    assert fib.base is fib.fiber is P1
    assert fib.total is ToricVariety.hirzebruch(2)


def test_direct_variety_is_fresh_and_validated(monkeypatch):
    calls = []
    inner = ToricVariety._validate

    def counted(self):
        calls.append(self)
        inner(self)

    monkeypatch.setattr(ToricVariety, "_validate", counted)
    a, b = (ToricVariety(P2.rays, P2.max_cones) for _ in range(2))
    assert a is not b and P2 not in (a, b)
    assert ToricVariety.projective_space(2) is P2
    assert calls == [a, b]


class _Two:
    def __index__(self):
        return 2


def test_preset_parameter_is_an_integer_key():
    assert ToricVariety.projective_space(_Two()) is P2
    assert ToricVariety.hirzebruch(_Two()) is ToricVariety.hirzebruch(2)


@pytest.mark.parametrize("build, value, name", [
    (ToricVariety.hirzebruch, 2.5, "hirzebruch parameter a"),
    (ToricVariety.hirzebruch, "3", "hirzebruch parameter a"),
    (ToricVariety.projective_space, 2.0, "projective space parameter n"),
])
def test_non_integral_preset_parameter_rejected(build, value, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        build(value)


def test_incomplete_fan_rejected():
    with pytest.raises(ValueError, match="complete"):
        ToricVariety([(1, 0), (0, 1)], [{0, 1}])


def test_nonsmooth_cone_rejected():
    # cone spanned by (1,0) and (1,2) has index 2
    with pytest.raises(ValueError, match="smooth"):
        ToricVariety([(1, 0), (1, 2), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])


def test_nonprimitive_ray_rejected():
    with pytest.raises(ValueError, match="primitive"):
        ToricVariety([(2, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])


# ---------------------------------------------------------------------------
# divisor polytopes: the degree pieces of a section system without metric
# ---------------------------------------------------------------------------

def test_p1_degree_two():
    d = ToricDivisorData((0, 2))
    sys = SectionSystem(P1, d)
    assert section_points(sys, 1) == ((0,), (1,), (2,))
    assert sys.count(1) == 3


def test_p2_canonical_empty():
    k = ToricDivisorData.canonical(P2)
    for mult in (1, 2, 5):
        assert SectionSystem(P2, k).count(mult) == 0


def test_p1xp1_boundary_sum():
    d = ToricDivisorData((1, 1, 1, 1))
    assert SectionSystem(P1xP1, d).count(1) == 9
    # without a metric the limit polytope is the divisor polytope P_D
    assert set(limit_polytope(P1xP1, d).vertices()) == {
        (-1, -1), (-1, 1), (1, -1), (1, 1)}


def test_fractional_divisor_needs_k0():
    # degree 1 of the system is k0 D = 2 D, the first integral multiple
    d = ToricDivisorData((Fraction(1, 2), 1))
    assert d.k0 == 2 and not d.is_integral()
    sys = SectionSystem(P1, d)
    assert section_points(sys, 1) == ((-1,), (0,), (1,), (2,))
    assert sys.count(1) == 4


# ---------------------------------------------------------------------------
# sections with metric
# ---------------------------------------------------------------------------

def test_sections_metric_shift():
    # degree-2 system with weight 2 at the ray divisor: k points at level k
    m = ToricDivisorData((0, 2))
    h = SingularMetricData([(0, 2)])
    for k in (1, 2, 5, 9):
        sys = SectionSystem(P1, m, h, degree_bound=k)
        assert section_points(sys, k) == tuple((u,) for u in range(k + 1, 2 * k + 1))
        assert sys.count(k) == k


def test_sections_separation_instance_empty():
    m = ToricDivisorData((0, 0))
    h = SingularMetricData([(0, 1)])
    for k in (1, 2, 7):
        sys = SectionSystem(P1, m, h, degree_bound=k)
        assert section_points(sys, k) == ()
        assert sys.count(k) == 0


def test_sections_empty_polytope():
    m = ToricDivisorData.canonical(P2)
    sys = SectionSystem(P2, m, degree_bound=3)
    assert section_points(sys, 3) == ()
    assert sys.count(3) == 0


def test_metric_id_off_the_rays_is_refused_by_name():
    # P1 has rays 0 and 1: a weight on any other id used to be dropped
    # without a word, so the system counted the unweighted sections
    m = ToricDivisorData((0, 2))
    for bad in (5, -1, "p"):
        h = SingularMetricData([(0, 2), (bad, 3)])
        with pytest.raises(ValueError, match=f"metric id {bad!r} is not a ray"):
            SectionSystem(P1, m, h)
        with pytest.raises(ValueError, match=f"metric id {bad!r} is not a ray"):
            kappa_sigma(SectionSystem(P1, m, h, degree_bound=8))


# ---------------------------------------------------------------------------
# twists: one aux-free part, folded per auxiliary divisor
# ---------------------------------------------------------------------------

TWIST_VARIETIES = [P1, P2, P1xP1, ToricVariety.product(P1, P2)] + [
    ToricVariety.hirzebruch(a) for a in range(4)]
WEIGHTS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(4, 3),
           Fraction(3, 2), Fraction(2), Fraction(5, 2)]


@st.composite
def twist_cases(draw):
    """(variety, divisor, metric, aux of the base build, aux, bound, stride
    read on the base first, stride): fractional divisors, weights <= 1 and
    > 1, auxiliary divisors None or integral, strides 1 to 5."""
    variety = draw(st.sampled_from(TWIST_VARIETIES))
    m = len(variety.rays)
    den = draw(st.sampled_from((1, 1, 2, 3)))
    divisor = ToricDivisorData(
        [Fraction(draw(st.integers(-den, 3 * den)), den) for _ in range(m)])
    rays = draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))
    metric = SingularMetricData(
        [(i, draw(st.sampled_from(WEIGHTS))) for i in rays]) if rays else None
    auxes = st.none() | st.lists(st.integers(-1, 3), min_size=m,
                                 max_size=m).map(ToricDivisorData)
    return (variety, divisor, metric, draw(auxes), draw(auxes),
            draw(st.integers(1, 9)), draw(st.integers(1, 5)),
            draw(st.integers(1, 5)))


def assert_same_system(twisted, fresh, stride):
    bound = fresh.degree_bound
    assert twisted.degree_bound == bound
    assert ([twisted.count(k) for k in range(1, bound + 1)]
            == [fresh.count(k) for k in range(1, bound + 1)])
    assert twisted.support() == fresh.support()
    for k in (1, bound):
        assert twisted.gram(k) == fresh.gram(k)
    assert twisted.period(stride) == fresh.period(stride)
    assert twisted.growth(stride) == fresh.growth(stride)


@settings(max_examples=120)
@given(twist_cases())
def test_twist_matches_a_fresh_system(case):
    variety, divisor, metric, base_aux, aux, bound, first, stride = case
    base = FreshSectionSystem(variety, divisor, metric, aux=base_aux,
                              degree_bound=bound)
    # counts, a period and a support of the base that its twists must not reuse
    base.growth(first)
    base.support()
    twisted = base.twist(aux)
    fresh = FreshSectionSystem(variety, divisor, metric, aux=aux,
                               degree_bound=bound)
    assert_same_system(twisted, fresh, stride)
    # a repeated twist is the same object; twisting a twist starts from the
    # aux-free constants again, so it is the base's twist
    assert base.twist(aux) is twisted
    assert twisted.twist(base_aux).twist(aux) is twisted
    other = SectionSystem(variety, divisor, metric, degree_bound=bound)
    assert_same_system(other.twist(base_aux).twist(aux), fresh, stride)
    # the base keeps its own auxiliary divisor
    assert base.twist(base_aux) is base
    assert_same_system(base, FreshSectionSystem(
        variety, divisor, metric, aux=base_aux, degree_bound=bound), stride)


def test_twist_refuses_a_fractional_auxiliary_divisor():
    sys = SectionSystem(P1, ToricDivisorData((0, 2)), degree_bound=8)
    half = ToricDivisorData((Fraction(1, 2), 0))
    for build in (lambda: FreshSectionSystem(P1, ToricDivisorData((0, 2)),
                                             aux=half),
                  lambda: sys.twist(half)):
        with pytest.raises(ValueError, match="auxiliary divisor must be integral"):
            build()
    with pytest.raises(ValueError, match="degree_bound must be an integer"):
        SectionSystem(P1, ToricDivisorData((0, 2)), degree_bound=2.0)


def test_support_is_listed_once(monkeypatch):
    sys = SectionSystem(P2, ToricDivisorData((0, 0, 1)), degree_bound=6)
    assert sys.support() == [1, 2, 3, 4, 5, 6]
    monkeypatch.setattr(SectionSystem, "count", None)  # no count is read again
    assert sys.support() == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# the three invariants
# ---------------------------------------------------------------------------

def test_kappa_p1_positive():
    sys = SectionSystem(P1, ToricDivisorData((0, 2)), degree_bound=16)
    rep = kappa_report(sys)
    assert rep.kappa1 == rep.kappa2 == rep.kappa3 == 1


def test_kappa_zero_dim():
    # single point in every degree
    sys = SectionSystem(P1, ToricDivisorData((0, 0)), degree_bound=16)
    assert kappa1(sys) == 0
    assert kappa2(sys) == 0
    assert kappa3(sys) == 0


def test_kappa3_accepts_undetermined_growth_at_rank_zero_only():
    # one populated degree fixes no growth degree: a top rank of 0 stands,
    # a top rank of 1 cannot be confirmed
    zero = SectionSystem(P1, ToricDivisorData((0, 0)), degree_bound=1)
    assert (zero.support(), zero.growth(), kappa3(zero)) == ([1], None, 0)
    line = SectionSystem(P1, ToricDivisorData((0, 1)), degree_bound=1)
    assert (line.support(), line.growth()) == ([1], None)
    with pytest.raises(DegreeBoundError, match="degree bound too small"):
        kappa3(line)


def test_kappa_all_empty():
    sys = SectionSystem(P1, ToricDivisorData((0, -1)), degree_bound=16)
    assert kappa1(sys) == NEG_INF
    assert kappa2(sys) == NEG_INF
    assert kappa3(sys) == NEG_INF


def test_kappa_simplex_growth():
    sys = SectionSystem(P2, ToricDivisorData((0, 0, 1)), degree_bound=16)
    rep = kappa_report(sys)
    assert rep.kappa3 == 2
    # counts are the Ehrhart values of the unit simplex
    assert sys.count(5) == 6 * 7 // 2


def test_kappa_product_line():
    # sections concentrate on a vertical segment: image dimension one
    sys = SectionSystem(P1xP1, ToricDivisorData((0, 0, 0, 2)), degree_bound=16)
    rep = kappa_report(sys)
    assert rep.kappa == 1


def test_kappa_metric_kills_sections():
    # weight 3 against a coefficient-2 ray leaves u1 in [0, -1]: empty forever
    m = ToricDivisorData((0, 2, 0, 2))
    h = SingularMetricData([(1, 3)])
    sys = SectionSystem(P1xP1, m, metric=h, degree_bound=16)
    assert kappa_report(sys).kappa == NEG_INF
    # halving the weight keeps both directions growing
    h2 = SingularMetricData([(1, Fraction(3, 2))])
    sys2 = SectionSystem(P1xP1, m, metric=h2, degree_bound=16)
    assert kappa_report(sys2).kappa == 2


def test_monotone_in_coefficients():
    base = (0, 1, 0, 1)
    bigger = (0, 2, 1, 1)
    s1 = SectionSystem(P1xP1, ToricDivisorData(base), degree_bound=10)
    s2 = SectionSystem(P1xP1, ToricDivisorData(bigger), degree_bound=10)
    assert kappa_report(s2).kappa >= kappa_report(s1).kappa
    h = SingularMetricData([(0, 2)])
    s3 = SectionSystem(P1xP1, ToricDivisorData(base), metric=h, degree_bound=10)
    assert kappa_report(s3).kappa <= kappa_report(s1).kappa


def test_kappa_fractional_k0():
    d = ToricDivisorData((Fraction(1, 2), Fraction(1, 2)))
    sys = SectionSystem(P1, d, degree_bound=16)
    assert sys.k0 == 2
    assert kappa_report(sys).kappa == 1


# ---------------------------------------------------------------------------
# okounkov consistency
# ---------------------------------------------------------------------------

def test_okounkov_dim_equals_kappa2():
    cases = [
        SectionSystem(P1, ToricDivisorData((0, 2)), degree_bound=10),
        SectionSystem(P2, ToricDivisorData((0, 0, 1)), degree_bound=8),
        SectionSystem(P1xP1, ToricDivisorData((0, 0, 0, 2)), degree_bound=8),
        SectionSystem(P1, ToricDivisorData((0, 2)),
                      metric=SingularMetricData([(0, 2)]), degree_bound=10),
    ]
    for sys in cases:
        reg = regularize(to_semigroup(sys))
        assert reg.okounkov_dim == kappa2(sys)


# ---------------------------------------------------------------------------
# ample checks and numerical growth
# ---------------------------------------------------------------------------

def test_standard_amples():
    for x in (P1, P2, P1xP1, ToricVariety.hirzebruch(1),
              ToricVariety.hirzebruch(2), ToricVariety.hirzebruch(3),
              ToricVariety.projective_space(3),
              ToricVariety.product(P1, P2)):
        amp = x.standard_ample
        assert is_ample(x, amp)
        assert all(Fraction(n, amp.k0) >= 1 for n in amp.nums)


def test_standard_ample_checked_once_per_variety(monkeypatch):
    import kodaira.toric

    calls = []
    inner = kodaira.toric.is_ample

    def counted(variety, divisor):
        calls.append(variety)
        return inner(variety, divisor)

    monkeypatch.setattr(kodaira.toric, "is_ample", counted)
    # built directly, so no earlier test has checked its ample yet
    f2 = ToricVariety([(1, 0), (0, 1), (-1, 2), (0, -1)],
                      [{0, 1}, {1, 2}, {2, 3}, {3, 0}], name="F2")
    d = ToricDivisorData((1, 1, 1, 1))
    for _ in range(2):
        assert kappa_sigma(SectionSystem(f2, d, degree_bound=8)) == 2
    assert calls == [f2]
    # the shared F2 checks its ample at most once per process
    shared = ToricVariety.hirzebruch(2)
    assert kappa_sigma(SectionSystem(shared, d, degree_bound=8)) == 2
    before = len(calls)
    for _ in range(2):
        assert kappa_sigma(SectionSystem(shared, d, degree_bound=8)) == 2
    assert len(calls) == before


def test_not_ample():
    assert not is_ample(P1, ToricDivisorData((0, 0)))
    assert not is_ample(P1xP1, ToricDivisorData((1, 1, 0, 0)))  # vertical only
    assert not is_ample(P2, ToricDivisorData.canonical(P2))
    # nef but not ample: the polytope is the triangle (1,1), (1,2), (2,2)
    assert not is_ample(ToricVariety.hirzebruch(1),
                        ToricDivisorData((-1, -1, 0, 2)))


def test_is_ample_matches_vertex_oracle():
    varieties = [P1, P2, ToricVariety.projective_space(3), P1xP1]
    varieties += [ToricVariety.hirzebruch(a) for a in (1, 2, 3)]
    for x in varieties:
        for coeffs in product(range(-1, 3), repeat=len(x.rays)):
            d = ToricDivisorData(coeffs)
            assert is_ample(x, d) == ample_by_vertices(x, d), (x.name, coeffs)
        half = ToricDivisorData([Fraction(3, 2)] * len(x.rays))
        assert not is_ample(x, half) and not ample_by_vertices(x, half)


def test_kappa_sigma_separation():
    # degree-0 bundle with weight 1: plain growth empty, perturbed growth 0
    m = ToricDivisorData((0, 0))
    h = SingularMetricData([(0, 1)])
    sys = SectionSystem(P1, m, metric=h, degree_bound=16)
    assert kappa_report(sys).kappa == NEG_INF
    assert kappa_sigma(sys) == 0


def test_kappa_sigma_interval():
    m = ToricDivisorData((0, 2))
    h = SingularMetricData([(0, 2)])
    assert kappa_sigma(SectionSystem(P1, m, h, degree_bound=16)) == 1


def test_kappa_sigma_empty():
    m = ToricDivisorData((0, 2))
    assert kappa_sigma(SectionSystem(
        P1, m, SingularMetricData([(0, 4)]), degree_bound=16)) == NEG_INF
    # weight 3 pins to a single point
    assert kappa_sigma(SectionSystem(
        P1, m, SingularMetricData([(0, 3)]), degree_bound=16)) == 0


def test_kappa_sigma_no_metric_is_polytope_dim():
    assert kappa_sigma(SectionSystem(
        P1xP1, ToricDivisorData((1, 1, 1, 1)), degree_bound=12)) == 2
    assert kappa_sigma(SectionSystem(
        P1xP1, ToricDivisorData((0, 0, 1, 1)), degree_bound=12)) == 1
    assert kappa_sigma(SectionSystem(
        P2, ToricDivisorData.canonical(P2), degree_bound=12)) == NEG_INF


def test_kappa_sigma_stride_invariance():
    m = ToricDivisorData((0, 0))
    h = SingularMetricData([(0, 1)])
    sys = SectionSystem(P1, m, h, degree_bound=16)
    base = kappa_sigma(sys)
    for a in (2, 3, 5):
        assert kappa_sigma(sys, stride=a) == base


def test_kappa_le_kappa_sigma():
    cases = [
        (P1, ToricDivisorData((0, 2)), SingularMetricData([(0, 2)])),
        (P1, ToricDivisorData((0, 0)), SingularMetricData([(0, 1)])),
        (P1xP1, ToricDivisorData((0, 0, 0, 2)), None),
        (P2, ToricDivisorData((0, 0, 1)), SingularMetricData([(2, 1)])),
    ]
    for x, m, h in cases:
        sys = SectionSystem(x, m, metric=h, degree_bound=14)
        assert kappa_report(sys).kappa <= kappa_sigma(sys)
