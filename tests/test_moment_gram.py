"""Differential tests of the rank reads from integer moment Grams.

`ScanPlan.moments` is checked against the points the oracles' column walk
lists (`scan_points`), and the Gram ranks of `kappa1`, `kappa2`, `kappa3`
and the Iitaka analysis against the span_rank route over listed exponent
sets that they replaced (`kappa_routes_span_rank`, `iitaka_span_rank`), on
the corpus and on drawn systems, rank-deficient and metric-twisted ones
included.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.lattice import NEG_INF, ScanPlan
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import DegreeBoundError
from kodaira.toric import (
    CrossCheckError,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa1,
    kappa2,
    kappa3,
    kappa_report,
)
from kodaira.fibration import iitaka_analysis

from _corpus import corpus_section_systems
from _oracles import (
    gram_of_points,
    iitaka_span_rank,
    kappa_routes_span_rank,
    point_moments,
    rational_rank,
    scan_points,
    section_points,
)


# ---------------------------------------------------------------------------
# moments of a scan
# ---------------------------------------------------------------------------

@st.composite
def moment_inputs(draw):
    """(box, constraints) in dimension 0 to 4, with negative coordinates,
    zero entries and whole zero normals, and boxes that may be empty."""
    n = draw(st.integers(0, 4))
    width = (12, 9, 6, 4, 3)[n]
    box = []
    for _ in range(n):
        lo = draw(st.integers(-9, 6))
        box.append((lo, lo + draw(st.integers(-1, width))))
    normals = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=5))
    cons = [(v, draw(st.integers(-12, 3))) for v in normals]
    return box, cons


@settings(max_examples=400)
@given(moment_inputs())
@example(([], [((), 1)]))          # a zero normal that no point meets
@example(([], [((), 0)]))          # ... and one that the one point meets
@example(([(0, 3), (2, 1)], []))   # an empty box
@example(([(-5, -1)], [((-1,), 2)]))
def test_moments_match_collected_points(case):
    box, cons = case
    n = len(box)
    plan = ScanPlan(n, [v for v, _ in cons])
    bounds = [c for _, c in cons]
    points = scan_points(plan, box, bounds)
    assert plan.moments(box, bounds) == point_moments(points, n)
    assert plan.scan(box, bounds) == len(points)


# ---------------------------------------------------------------------------
# Gram ranks against the span_rank route
# ---------------------------------------------------------------------------

def outcome(call):
    try:
        return "ok", call()
    except (CrossCheckError, DegreeBoundError) as exc:
        return type(exc).__name__, str(exc)


def iitaka_degree(sys):
    """The default degree of iitaka_analysis, None when it has no room."""
    return max((d for d in sys.support() if 2 * d <= sys.degree_bound),
               default=None)


def assert_gram_route_matches(sys, points=None):
    """The library's Gram reads of sys against the span_rank route over
    points(k), `section_points` by default."""
    want1, want2, top_dim = kappa_routes_span_rank(sys, points)
    assert kappa1(sys) == want1
    assert kappa2(sys) == want2[0]
    # kappa3 reads the top degree's rank, then cross-checks the counts
    empirical = sys.growth() if sys.support() else None
    if top_dim == NEG_INF or (empirical is None and top_dim == 0):
        want3 = ("ok", top_dim)
    elif empirical is None:
        want3 = ("DegreeBoundError", "degree bound too small")
    elif empirical != top_dim:
        want3 = ("CrossCheckError", f"count growth mismatch: top rank "
                 f"{top_dim}, growth degree {empirical}")
    else:
        want3 = ("ok", top_dim)
    assert outcome(lambda: kappa3(sys)) == want3
    # the witness is the first degree of rank kappa2, when the three agree
    kind, report = outcome(lambda: kappa_report(sys))
    if kind == "ok":
        assert report.witness_degree == want2[1]
    k = iitaka_degree(sys)
    if k is not None:
        kind, got = outcome(
            lambda: iitaka_analysis(sys, lambda: kappa_report(sys).kappa))
        want_kind, want = outcome(lambda: iitaka_span_rank(sys, k, points))
        if want_kind != "ok":
            assert (kind, got) == (want_kind, want)
        elif kind == "ok":
            assert got == want
        else:  # the reads agreed; only the final growth cross-check failed
            assert "spreads across fibers" not in got
            assert got != "increase degree bound"


@pytest.mark.parametrize("name, sys", corpus_section_systems(degree_bound=12),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_gram_route_matches_span_rank_on_corpus(name, sys):
    assert_gram_route_matches(sys)


def test_kappa1_builds_gram_matrices_up_to_the_first_full_rank_degree():
    # kappa1 reads the support degrees in order and builds no Gram matrix
    # past the degree at which their rows reach full rank; the corpus stops
    # at the first degree, at a later one, and never
    stops = set()
    for name, sys in corpus_section_systems(degree_bound=12):
        n, support = sys.variety.lattice_rank, sys.support()
        rows, want = [], []
        for k in support:
            want.append(k)
            rows += sys.gram(k)
            if rational_rank(rows) == n:
                break
        built, gram = [], sys.gram
        sys.gram = lambda k: built.append(k) or gram(k)
        kappa1(sys)
        assert built == want, name
        stops.add(len(want) if len(want) < len(support) else None)
    assert {1, None} < stops


P1 = ToricVariety.projective_space(1)
P1xP1 = ToricVariety.product(P1, P1)
VARIETIES = [P1, ToricVariety.projective_space(2), P1xP1,
             ToricVariety.hirzebruch(1), ToricVariety.hirzebruch(2),
             ToricVariety.hirzebruch(3), ToricVariety.product(P1xP1, P1)]


@st.composite
def drawn_systems(draw):
    """A small section system: zero and negative coefficients give
    rank-deficient and empty ones, fractional ones k0 > 1, and up to two
    metric weights twist it."""
    var = draw(st.sampled_from(VARIETIES))
    n = var.lattice_rank
    coeffs = draw(st.tuples(*[st.sampled_from(
        [0, 0, 0, 1, 2, -1, Fraction(1, 2), Fraction(3, 2)])] * len(var.rays)))
    weights = draw(st.lists(st.tuples(st.integers(0, len(var.rays) - 1),
                                      st.fractions(0, 3, max_denominator=3)),
                            max_size=2, unique_by=lambda e: e[0]))
    return SectionSystem(var, ToricDivisorData(coeffs),
                         metric=SingularMetricData(weights),
                         degree_bound=draw(st.integers(2, 10 if n < 3 else 6)))


@settings(max_examples=250, deadline=None)
@given(drawn_systems(), st.data())
def test_gram_route_matches_span_rank_on_drawn_systems(sys, data):
    support = sys.support()
    points = None
    if support and data.draw(st.booleans()):
        # one degree gains a few points near its first one, on its fiber
        # or off it: the references read them as their points, the
        # library from the Gram matrix of the spread set
        degree = data.draw(st.sampled_from(support))
        n = sys.variety.lattice_rank
        listed = section_points(sys, degree)
        base = listed[0]
        offsets = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                                     min_size=1, max_size=3))
        pts = listed[:1] + tuple(
            tuple(b + u for b, u in zip(base, off)) for off in offsets
        ) + listed[1:]
        spread = gram_of_points(pts, n)
        gram = sys.gram
        sys.gram = lambda l: spread if l == degree else gram(l)
        points = lambda l: pts if l == degree else section_points(sys, l)
    assert_gram_route_matches(sys, points)


def test_kappa3_names_both_values_of_a_wrong_top_rank():
    # P^2 with D = H counts C(k + 2, 2): growth degree 2; a top rank planted
    # at 1 is a real disagreement, not a bound too small
    sys = SectionSystem(ToricVariety.projective_space(2),
                        ToricDivisorData((1, 0, 0)), degree_bound=6)
    top, rank = sys.support()[-1], sys.rank
    sys.rank = lambda k: 1 if k == top else rank(k)
    with pytest.raises(CrossCheckError, match="^count growth mismatch: top "
                       "rank 1, growth degree 2$"):
        kappa3(sys)


@settings(max_examples=250, deadline=None)
@given(drawn_systems())
def test_kappa3_never_disagrees_on_drawn_systems(sys):
    # on unplanted systems the top rank and a determined growth degree
    # agree: kappa3 answers, or the bound is too small to decide
    kind, got = outcome(lambda: kappa3(sys))
    assert kind == "ok" or (kind, got) == (
        "DegreeBoundError", "degree bound too small")


@settings(max_examples=150, deadline=None)
@given(drawn_systems(), st.data())
def test_gram_is_the_gram_of_the_collected_points(sys, data):
    k = data.draw(st.integers(1, sys.degree_bound))
    n = sys.variety.lattice_rank
    counted = data.draw(st.booleans())  # the shortcut for < 2 points
    if counted:
        sys.count(k)
    points = section_points(sys, k)
    assert sys.gram(k) == gram_of_points(points, n)
    assert sys.count(k) == len(points)
