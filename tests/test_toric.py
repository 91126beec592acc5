from fractions import Fraction
from itertools import product

import pytest

from kodaira.lattice import NEG_INF
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import regularize
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    divisor_polytope,
    is_ample,
    kappa1,
    kappa2,
    kappa3,
    kappa_report,
    kappa_sigma,
    sections_of,
    standard_ample,
)

from _oracles import ample_by_vertices

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
# divisor polytopes
# ---------------------------------------------------------------------------

def test_p1_degree_two():
    d = ToricDivisorData((0, 2))
    poly = divisor_polytope(P1, d, 1)
    assert poly.lattice_points() == [(0,), (1,), (2,)]


def test_p2_canonical_empty():
    k = ToricDivisorData.canonical(P2)
    for mult in (1, 2, 5):
        assert divisor_polytope(P2, k, mult).count_lattice_points() == 0


def test_p1xp1_boundary_sum():
    d = ToricDivisorData((1, 1, 1, 1))
    poly = divisor_polytope(P1xP1, d, 1)
    assert poly.count_lattice_points() == 9
    assert set(poly.vertices()) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}


def test_fractional_divisor_needs_k0():
    d = ToricDivisorData((Fraction(1, 2), 1))
    assert d.k0 == 2
    with pytest.raises(ValueError, match="k0"):
        divisor_polytope(P1, d, 1)
    poly = divisor_polytope(P1, d, 2)
    assert poly.lattice_points() == [(-1,), (0,), (1,), (2,)]


# ---------------------------------------------------------------------------
# sections with metric
# ---------------------------------------------------------------------------

def test_sections_metric_shift():
    # degree-2 system with weight 2 at the ray divisor: k points at level k
    m = ToricDivisorData((0, 2))
    h = SingularMetricData([(0, 2)])
    for k in (1, 2, 5, 9):
        pts = sections_of(P1, m, h, k)
        assert pts == tuple((u,) for u in range(k + 1, 2 * k + 1))
        assert len(pts) == k


def test_sections_separation_instance_empty():
    m = ToricDivisorData((0, 0))
    h = SingularMetricData([(0, 1)])
    for k in (1, 2, 7):
        assert sections_of(P1, m, h, k) == ()


def test_sections_empty_polytope():
    m = ToricDivisorData.canonical(P2)
    assert sections_of(P2, m, None, 3) == ()


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
        reg = regularize(sys.to_semigroup(), build_body=False)
        assert reg.okounkov_dim == kappa2(sys)


# ---------------------------------------------------------------------------
# ample checks and numerical growth
# ---------------------------------------------------------------------------

def test_standard_amples():
    for x in (P1, P2, P1xP1, ToricVariety.hirzebruch(1),
              ToricVariety.hirzebruch(2), ToricVariety.hirzebruch(3),
              ToricVariety.projective_space(3),
              ToricVariety.product(P1, P2)):
        amp = standard_ample(x)
        assert is_ample(x, amp)
        assert all(c >= 1 for c in amp.coefficients)


def test_standard_ample_checked_once_per_variety(monkeypatch):
    import kodaira.toric

    calls = []
    inner = kodaira.toric.is_ample

    def counted(variety, divisor):
        calls.append(variety)
        return inner(variety, divisor)

    monkeypatch.setattr(kodaira.toric, "is_ample", counted)
    f2 = ToricVariety.hirzebruch(2)
    for _ in range(2):
        assert kappa_sigma(f2, ToricDivisorData((1, 1, 1, 1)),
                           degree_bound=8) == 2
    assert calls == [f2]


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
    assert kappa_sigma(P1, m, h, degree_bound=16) == 0


def test_kappa_sigma_interval():
    m = ToricDivisorData((0, 2))
    h = SingularMetricData([(0, 2)])
    assert kappa_sigma(P1, m, h, degree_bound=16) == 1


def test_kappa_sigma_empty():
    m = ToricDivisorData((0, 2))
    assert kappa_sigma(P1, m, SingularMetricData([(0, 4)]), degree_bound=16) == NEG_INF
    # weight 3 pins to a single point
    assert kappa_sigma(P1, m, SingularMetricData([(0, 3)]), degree_bound=16) == 0


def test_kappa_sigma_no_metric_is_polytope_dim():
    assert kappa_sigma(P1xP1, ToricDivisorData((1, 1, 1, 1)), degree_bound=12) == 2
    assert kappa_sigma(P1xP1, ToricDivisorData((0, 0, 1, 1)), degree_bound=12) == 1
    assert kappa_sigma(P2, ToricDivisorData.canonical(P2), degree_bound=12) == NEG_INF


def test_kappa_sigma_stride_invariance():
    m = ToricDivisorData((0, 0))
    h = SingularMetricData([(0, 1)])
    base = kappa_sigma(P1, m, h, degree_bound=16)
    for a in (2, 3, 5):
        assert kappa_sigma(P1, m, h, degree_bound=16, stride=a) == base


def test_kappa_le_kappa_sigma():
    cases = [
        (P1, ToricDivisorData((0, 2)), SingularMetricData([(0, 2)])),
        (P1, ToricDivisorData((0, 0)), SingularMetricData([(0, 1)])),
        (P1xP1, ToricDivisorData((0, 0, 0, 2)), None),
        (P2, ToricDivisorData((0, 0, 1)), SingularMetricData([(2, 1)])),
    ]
    for x, m, h in cases:
        sys = SectionSystem(x, m, metric=h, degree_bound=14)
        assert kappa_report(sys).kappa <= kappa_sigma(x, m, h, degree_bound=14)
