"""The Okounkov body from one integer hull, against the per-level route.

`regularize` cuts each level A_k to the ends of its runs of consecutive
codes, which include the two ends of each column (a run of points with the
same leading coordinates), scales every level by den / k for den the lcm of
the levels, and hulls the union once on integers over den.
`_oracles.regularize_per_level` is the route it replaced: one `int_hull` per
level, its vertices divided by k as Fractions, one `rational_hull`, and the
slice volume from a second hull of the slice vertices' boundary coordinates.
Both must give the same body, lattice data and slice data, on drawn
semigroups and on the okounkov benchmark inputs of seeds 1-3 (read from
`perfbench/gen.py`, which does not import the package).
"""

import json
import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira import lattice
from kodaira.lattice import _dots, hull_polytope, int_hull
from kodaira.semigroup import (
    GradedSemigroup,
    _coder,
    _run_ends,
    growth_law_check,
    hilbert_reg,
    regularize,
)

from _corpus import workload_generator
from _oracles import (
    affine_dimension,
    column_ends,
    hilbert_reg_per_level,
    rational_pairs,
    regularize_per_level,
    slice_volume_two_hulls,
)


def assert_same_body(sg):
    reg, ref = regularize(sg), regularize_per_level(sg)
    body, ref_body = reg.okounkov_body, ref.okounkov_body
    assert body.vertices() == ref_body.vertices()
    assert rational_pairs(body) == rational_pairs(ref_body)
    assert affine_dimension(body.vertices()) == reg.okounkov_dim
    assert (reg.m, reg.boundary_lattice, reg.ind) == (ref.m, ref.boundary_lattice, ref.ind)
    plan, bounds, (den, box), volume = reg._slice
    ref_plan, ref_bounds, ref_box, ref_volume = ref._slice
    # each slice row is the reference row, which is over its own reduced
    # denominator, times a positive integer: all rows are over the hull's
    assert len(plan.normals) == len(bounds) == len(ref_bounds)
    for w, b, ref_w, ref_b in zip(plan.normals, bounds, ref_plan.normals, ref_bounds):
        row, ref_row = w + (b,), ref_w + (ref_b,)
        scale = next((Fraction(x, y) for x, y in zip(row, ref_row) if y), 1)
        assert scale > 0 and scale.denominator == 1
        assert row == tuple(scale * y for y in ref_row)
    assert tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in box) == ref_box
    # the slice volume read off the one hull, against the second hull of
    # the reference's slice vertex coordinates
    assert Fraction(*volume) == ref_volume
    return reg, ref


# ---------------------------------------------------------------------------
# the run-end cut
# ---------------------------------------------------------------------------

def run_ends(points):
    """The run ends of sorted distinct points, read off their codes."""
    n = len(points[0]) if points else 0
    radix, weights = _coder(n, max(map(abs, chain.from_iterable(points)), default=0),
                            n - 1)
    starts, tails = _run_ends(sorted(_dots(weights, points)), radix, weights)
    return starts + tails


def assert_run_ends(points, expected):
    ends = run_ends(points)
    assert len(ends) == len(set(ends))
    assert set(ends) == expected
    assert set(column_ends(points)) <= expected <= set(points)


def test_run_ends_rank_zero():
    assert_run_ends([()], {()})
    assert run_ends([]) == []


def test_run_ends_rank_one_split_at_gaps():
    assert_run_ends([(-3,), (0,), (1,), (7,)], {(-3,), (0,), (1,), (7,)})
    assert_run_ends([(4,)], {(4,)})
    assert_run_ends([(-2,), (-1,), (0,), (1,)], {(-2,), (1,)})


def test_run_ends_keep_one_point_columns():
    pts = [(0, 5), (1, -2), (2, 0), (2, 1), (2, 9), (3, 3)]
    assert_run_ends(pts, set(pts))


def test_run_ends_keep_both_ends_of_two_point_columns():
    pts = [(0, 0, 1), (0, 0, 4), (0, 1, -1), (0, 1, 2), (5, 1, 0), (5, 1, 8)]
    assert_run_ends(pts, set(pts))


def test_run_ends_drop_interior_points_only():
    pts = [(x, y, z) for x in range(3) for y in range(-1, 2) for z in range(4)]
    assert_run_ends(pts, {p for p in pts if p[2] in (0, 3)})


@pytest.mark.parametrize("pts", [
    # columns with gaps in a full-dimensional level
    [(0, 0), (0, 1), (0, 2), (0, 5), (0, 6), (1, 0), (1, 3), (2, -1), (2, 1)],
    # one column with gaps: a segment in the plane
    [(3, -4), (3, -3), (3, 0), (3, 2), (3, 3)],
    # columns with gaps on the plane y = 2x in Z^3, and in all of Z^3
    [(x, 2 * x, x + z) for x in range(3) for z in (0, 1, 4)],
    [(x, y, x + y + z) for x in range(3) for y in range(2) for z in (0, 1, 4)],
])
def test_run_ends_of_gapped_columns_give_the_same_hull(pts):
    """Same constraints, not only the same hull: the extra run ends differ
    from column ends by multiples of e_n, so they change only the last
    coordinate of `int_hull`'s difference lattice, which the affine-hull
    equalities, read off the other coordinates first, do not see."""
    ends = run_ends(pts)
    assert set(ends) > set(column_ends(pts))
    by_runs, by_columns = (hull_polytope(int_hull(sorted(set(p))), 1)
                           for p in (ends, column_ends(pts)))
    assert (by_runs.normals, by_runs.bounds) == (by_columns.normals, by_columns.bounds)
    assert by_runs.vertices() == by_columns.vertices()


# ---------------------------------------------------------------------------
# the body against the per-level reference
# ---------------------------------------------------------------------------

@st.composite
def drawn_semigroups(draw):
    """A level or generator semigroup of ambient rank 0-3: levels g t up to
    degree 40 (so m is a multiple of g), some of them empty; each point k s +
    sum a_i w_i for a drift s that may be far from the origin and at most n
    directions w_i, fewer for a lower-dimensional body."""
    n = draw(st.integers(0, 3))
    g = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    dirs = draw(st.lists(st.tuples(*[coord] * n), max_size=n))
    far = st.sampled_from([0, 1, -2, 10 ** 6, -(10 ** 9)])
    drift = draw(st.tuples(*[far] * n))
    keys = draw(st.lists(st.integers(1, 40 // g), min_size=1, max_size=6,
                         unique=True))

    def points(k, size):
        combos = draw(st.lists(st.tuples(*[st.integers(-k, k)] * len(dirs)),
                               min_size=size, max_size=size + 12))
        return {tuple(k * s + sum(a * w[j] for a, w in zip(c, dirs))
                      for j, s in enumerate(drift)) for c in combos}

    if draw(st.booleans()):
        gens = [u + (g * t,) for t in keys for u in points(g * t, 1)]
        return GradedSemigroup(n, generators=gens)
    levels = {g * t: points(g * t, 0 if i else 1) for i, t in enumerate(keys)}
    return GradedSemigroup(n, levels=levels, check_closure=False,
                           degree_bound=40)


def hilbert_reg_fraction_box(reg, k):
    """H_reg(k) on the reference's slice: the box ends as Fractions, each
    level's ceiling and floor by `math.ceil` and `math.floor`."""
    t, r = divmod(k, reg.m)
    if r:
        return 0
    plan, bounds, box, _ = reg._slice
    return plan.scan([(math.ceil(t * lo), math.floor(t * hi)) for lo, hi in box],
                     [t * b for b in bounds])


@settings(max_examples=150)
@given(drawn_semigroups())
def test_body_matches_per_level_reference(sg):
    reg, ref = assert_same_body(sg)
    for k in range(1, 4 * reg.m + 1):
        assert hilbert_reg(reg, k) == hilbert_reg_fraction_box(ref, k), k
    assert hilbert_reg(reg, reg.m) == hilbert_reg_per_level(reg, reg.m)


@pytest.mark.parametrize("n, bound", [(2, 40), (3, 14)])
def test_body_of_simplex_levels_with_large_denominators(n, bound):
    """All degrees up to the bound, so den is lcm(1..bound) (about 5e15 at
    40): A_k is k times the unit simplex, shifted off the origin."""
    levels = {k: {tuple(x + 1000 * k for x in p)
                  for p in _simplex_points(n, k)} for k in range(1, bound + 1)}
    assert_same_body(GradedSemigroup(n, levels=levels, check_closure=False))


def _simplex_points(n, k):
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(k + 1) for rest in _simplex_points(n - 1, k - a)]


# ---------------------------------------------------------------------------
# the growth-law volume off the one hull
# ---------------------------------------------------------------------------

@st.composite
def generated_semigroups(draw):
    """A generated semigroup of ambient rank 0-4: generators (k s + sum a_i
    w_i, k) at levels k that are multiples of g in 1-3, so m may exceed 1
    and the body's vertices u / k are rational; at most n directions w_i,
    fewer or dependent ones for a body of lower dimension than the ambient
    space, and a drift s that may put the body far from the origin."""
    n = draw(st.integers(0, 4))
    g = draw(st.integers(1, 3))
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=n))
    drift = draw(st.tuples(*[st.sampled_from([0, 1, -3, 10 ** 6, -(10 ** 9)])] * n))
    gens = set()
    for _ in range(draw(st.integers(1, 7))):
        k = g * draw(st.integers(1, 3))
        a = draw(st.tuples(*[st.integers(-2, 2)] * len(dirs)))
        gens.add(tuple(k * s + sum(x * w[j] for x, w in zip(a, dirs))
                       for j, s in enumerate(drift)) + (k,))
    return GradedSemigroup(n, generators=sorted(gens))


@settings(max_examples=300)
@given(generated_semigroups())
# a triangle at level 2 and a point at level 4 in the plane x4 = x1 + 1 of
# Z^4, 10^6 from the origin: q = 3 < n = 4, m = 2, rational vertices
@example(GradedSemigroup(4, generators=[
    (10 ** 6, 0, 0, 10 ** 6 + 2, 2), (10 ** 6 + 1, 0, 0, 10 ** 6 + 3, 2),
    (10 ** 6, 1, 0, 10 ** 6 + 2, 2), (2 * 10 ** 6 + 1, 1, 3, 2 * 10 ** 6 + 5, 4)]))
def test_growth_law_prediction_matches_two_hull_route(sg):
    reg = regularize(sg)
    assert (growth_law_check(reg, k_max=1).a_q_predicted
            == slice_volume_two_hulls(reg))


@pytest.mark.parametrize("sg", [
    GradedSemigroup(2, generators=[(0, 0, 1), (2, 0, 1), (0, 3, 2), (1, 1, 3)]),
    GradedSemigroup(3, levels={k: _simplex_points(3, k) for k in range(1, 5)},
                    check_closure=False),
], ids=["2d", "3d"])
def test_regularize_and_growth_law_hull_once(sg, monkeypatch):
    """The body, its dimension and the growth-law volume all come from one
    hull of the body: `_hull` runs once through `regularize` and
    `growth_law_check`."""
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return real(pts)

    real = lattice._hull
    monkeypatch.setattr(lattice, "_hull", counted)
    reg = regularize(sg)
    rep = growth_law_check(reg, k_max=4)
    assert reg.okounkov_dim == sg.ambient_rank
    assert rep.a_q_predicted > 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the okounkov benchmark inputs
# ---------------------------------------------------------------------------

def test_okounkov_workload_bodies_match_per_level_reference():
    gen = workload_generator()
    bodies = 0
    for seed in (1, 2, 3):
        for _, _, text in gen.instances("okounkov", seed):
            body = json.loads(text)["body"]
            n = body["ambient_rank"]
            if "generators" in body:
                sg = GradedSemigroup(
                    n, generators=[tuple(g) for g in body["generators"]])
            else:
                sg = GradedSemigroup(
                    n, levels={int(k): [tuple(u) for u in pts]
                               for k, pts in body["levels"].items()},
                    check_closure=False)
            assert_same_body(sg)
            bodies += 1
    assert bodies == 165
