"""Semigroup levels as sorted integer codes, against the tuple route.

`GradedSemigroup` keeps each level once, as the sorted distinct codes
c(p) = sum_j p_j w_j of its points (R = 4M + 1, weight 1 on the run axis
and R^(n-1), ..., R^1 on the other coordinates): M is the largest
|coordinate| of a stored level, or the reach times the largest |generator
coordinate| of a generated one, whose levels are sums of codes.
`regularize` reads only the runs of consecutive codes: the group from the
run starts plus e_axis, the hull from the run ends.  The references in
`_oracles` are the tuple route the codes replaced: levels as sets of tuples
(`tuple_levels`) or enumerated from the generators
(`semigroup_level_points`), the group from every point and the hull of the
column ends (`regularize_tuple_route`).
"""

import math
from itertools import chain, product
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira import semigroup
from kodaira.lattice import _dots, int_hull
from kodaira.semigroup import (
    DegreeBoundError,
    EmptySemigroupError,
    GradedSemigroup,
    _coder,
    _decode,
    _runs,
    growth_law_check,
    hilbert,
    hilbert_reg,
    regularize,
)

from _oracles import (
    closure_check_per_point,
    closure_outcome,
    hilbert_reg_per_level,
    level_points,
    rational_pairs,
    regularize_lattice_reference,
    regularize_tuple_route,
    semigroup_level_points,
    spanning_points,
    tuple_levels,
)


# ---------------------------------------------------------------------------
# the code
# ---------------------------------------------------------------------------

@st.composite
def point_lists(draw):
    """(rank 0-4, points with coordinates in [-M, M] for a drawn M, some of
    them negative, possibly all zero)."""
    n = draw(st.integers(0, 4))
    size = draw(st.sampled_from([0, 1, 2, 7, 10 ** 9]))
    coord = st.integers(-size, size)
    return n, draw(st.lists(st.tuples(*[coord] * n), max_size=30))


@settings(max_examples=200)
@given(point_lists())
@example((3, [(0, 0, 0)]))  # an all-zero level: R = 1
@example((0, [(), ()]))
@example((2, [(-5, 3), (-5, 4), (-5, 5), (-4, -5), (5, -5)]))
def test_codes_round_trip(case):
    n, points = case
    size = max(map(abs, chain.from_iterable(points)), default=0)
    for axis in range(max(n, 1)):
        radix, weights = _coder(n, size, axis)
        codes = _dots(weights, points)
        assert len(set(codes)) == len(set(points))  # injective
        # order kept: the other coordinates in their order, then the axis
        ordered = sorted(set(points),
                         key=lambda p: p[:axis] + p[axis + 1:] + p[axis:axis + 1])
        sorted_codes = sorted(set(codes))
        assert _decode(sorted_codes, radix, weights) == ordered
        # consecutive codes are exactly the steps of e_axis
        unit = tuple(int(j == axis) for j in range(n))
        step = [tuple(map(sub, b, a)) == unit for a, b in zip(ordered, ordered[1:])]
        assert [b == a + 1 for a, b in zip(sorted_codes, sorted_codes[1:])] == step


def test_all_zero_level_has_radix_one():
    sg = GradedSemigroup(3, levels={1: {(0, 0, 0)}, 2: [(0, 0, 0)]})
    assert sg.radix == 1 and sg.codes == {1: [0], 2: [0]}
    assert level_points(sg, 2) == {(0, 0, 0)}


# ---------------------------------------------------------------------------
# levels shaped by their columns
# ---------------------------------------------------------------------------

@st.composite
def column_levels(draw):
    """(rank 0-3, levels {k: points}, degree bound) shaped by the runs of
    their columns: columns with gaps, columns of single-point runs only
    (last coordinates two or more apart, as the doubled semigroup's), or
    full runs; one to four levels, sometimes one, some of them empty, a few
    points sometimes lists and far from the origin."""
    n = draw(st.integers(0, 3))
    shape = draw(st.sampled_from(["gaps", "single", "runs"]))
    far = draw(st.sampled_from([0, 3, -(10 ** 6)]))
    keys = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    levels = {}
    for k in keys:
        points = set()
        heads = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (n - 1)),
                              max_size=4, unique=True)) if n else []
        for head in heads:
            start = draw(st.integers(-3, 3)) + far
            if shape == "single":
                lasts = range(start, start + 2 * draw(st.integers(1, 4)),
                              draw(st.integers(2, 3)))
            elif shape == "runs":
                lasts = range(start, start + draw(st.integers(1, 5)))
            else:
                lasts = {start + x for x in draw(st.lists(
                    st.integers(0, 8), min_size=1, max_size=6))}
            points.update(head + (y,) for y in lasts)
        if n == 0 and draw(st.booleans()):
            points.add(())
        as_lists = draw(st.booleans())
        levels[k] = [list(p) for p in points] if as_lists else points
    bound = draw(st.sampled_from([None, max(keys), max(keys) - 1]))
    return n, levels, bound


def _stored(n, levels, bound):
    return GradedSemigroup(n, levels=levels, check_closure=False,
                           degree_bound=bound)


@settings(max_examples=200)
@given(column_levels())
def test_level_points_and_hilbert_match_tuple_levels(case):
    n, levels, bound = case
    sg = _stored(*case)
    ref = tuple_levels(levels)
    top = sg.degree_bound
    assert level_points(sg, 0) == {(0,) * n} and hilbert(sg, 0) == 1
    for k in range(1, top + 1):
        assert level_points(sg, k) == ref.get(k, set()), k
        assert hilbert(sg, k) == len(ref.get(k, set())), k
    for query in (lambda k: level_points(sg, k), lambda k: hilbert(sg, k)):
        with pytest.raises(DegreeBoundError):
            query(top + 1)
        with pytest.raises(ValueError, match="negative degree"):
            query(-1)


def _spanning_tuples(n, levels, bound):
    """The nonempty levels up to the bound, as sorted tuple lists."""
    ref = tuple_levels(levels)
    top = bound if bound is not None else max(ref)
    return {k: sorted(ref[k]) for k in sorted(ref) if ref[k] and k <= top}


@settings(max_examples=200)
@given(column_levels())
@example((1, {3: {(0,)}}, None))  # a single one-point level
@example((2, {2: {(0, 0), (0, 2), (1, 0), (1, 2)}}, None))  # single-point runs
@example((2, {1: {(0, 0), (0, 1), (0, 5)}, 2: {(0, 2), (0, 3)}}, None))  # gaps
@example((1, {2: {(0,), (2,), (4,)}, 4: {(0,), (2,), (4,), (6,), (8,)}}, None))
@example((3, {1: {(0, 0, 0), (0, 0, 1), (0, 0, 4), (1, 1, 2)}}, None))
def test_body_and_group_match_tuple_route(case):
    """The group from the run starts plus e_axis is the group of all points,
    and the hull of the run ends is the hull of the column ends."""
    spanning = _spanning_tuples(*case)
    sg = _stored(*case)
    if not spanning:
        return
    n = case[0]
    assert spanning_points(sg) == spanning
    basis, hull = regularize_tuple_route(spanning)
    reg = regularize(sg)
    assert list(reg.group_basis) == basis
    body = reg.okounkov_body
    assert rational_pairs(body)[:-2] == [(v + (0,), c) for v, c in rational_pairs(hull)]
    assert [v[:-1] for v in body.vertices()] == list(hull.vertices())
    assert reg.okounkov_dim == len(basis) - 1
    assert len(body.vertices()[0]) == n + 1


@st.composite
def generator_lists(draw):
    """(rank 0-4, generators (u, level) at levels 1-4, a degree bound):
    coordinates in [-4, 4] or all zero (radix 1), and a bound None or
    small, so that levels are asked past the reach and coded again."""
    n = draw(st.integers(0, 4))
    coord = draw(st.sampled_from([st.integers(-4, 4), st.just(0)]))
    gens = draw(st.lists(st.tuples(*[coord] * n, st.integers(1, 4)),
                         min_size=1, max_size=6))
    return n, gens, draw(st.sampled_from([None, 0, 1, 2, 5]))


@settings(max_examples=200)
@given(generator_lists())
@example((3, [(0, 0, 0, 1), (0, 0, 0, 2)], 1))  # all-zero generators: R = 1
@example((0, [(2,), (3,)], None))
@example((2, [(-4, 3, 1), (4, -4, 3)], 1))  # coded again at 4, then at 10
def test_generated_semigroups_match_tuple_route(case):
    """Each coded level, decoded in order, is the enumerated level, also
    past the reach, and the group and the body are the tuple route's."""
    n, gens, bound = case
    sg = GradedSemigroup(n, generators=gens, degree_bound=bound)
    for k in range(7 if n < 3 else 5):
        ref = sorted(semigroup_level_points(gens, k))
        codes = sg.level_codes(k)
        assert _decode(codes, sg.radix, sg.weights) == ref, k
        assert hilbert(sg, k) == len(ref), k
    spanning = spanning_points(sg)
    basis, hull = regularize_tuple_route(spanning)
    reg = regularize(sg)
    assert list(reg.group_basis) == basis
    assert rational_pairs(reg.okounkov_body)[:-2] == [
        (v + (0,), c) for v, c in rational_pairs(hull)]


# ---------------------------------------------------------------------------
# the run axis
# ---------------------------------------------------------------------------

@st.composite
def axis_levels(draw):
    """(rank 1-3, levels {k: points} for k = 1..B, B <= 6, B, a permutation
    sigma of the coordinates): k times a box, stretched along a drawn axis
    or with tied extents, its low corner sometimes negative, gapped (only
    even values of a drawn coordinate) or thinned at random, so that closure
    can fail; some levels empty."""
    n = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 6 if n < 3 else 4))
    shape = draw(st.sampled_from(["stretched", "tied", "gapped", "thinned"]))
    axis = draw(st.integers(0, n - 1))
    long = 1 if shape == "tied" else draw(st.integers(2, 4))
    lows = draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n))
    gap = draw(st.integers(0, n - 1)) if shape == "gapped" else None
    sides = [long if j == axis else 1 for j in range(n)]
    levels = {}
    for k in range(1, bound + 1):
        pts = [p for p in product(*[range(k * lo, k * (lo + side) + 1)
                                    for lo, side in zip(lows, sides)])
               if gap is None or p[gap] % 2 == 0]
        if shape == "thinned":
            pts = sorted(draw(st.sets(st.sampled_from(pts), max_size=12)))
        levels[k] = [] if draw(st.integers(0, 4)) == 0 else pts
    return n, levels, bound, draw(st.permutations(range(n)))


def _permuted(levels, sigma):
    return {k: [tuple(p[j] for j in sigma) for p in pts] for k, pts in levels.items()}


@settings(max_examples=150)
@given(axis_levels())
# runs along the first coordinate: a regularize that adds (e_n, 0) to the
# group generators instead of (e_axis, 0) gets the wrong group
@example((2, {k: [(x, y) for x in range(3 * k + 1) for y in range(k + 1)]
              for k in (1, 2)}, 2, [1, 0]))
def test_run_axis_changes_no_result(case):
    n, levels, bound, sigma = case
    ref = tuple_levels(levels)
    assert closure_outcome(lambda: GradedSemigroup(n, levels=levels)) == (
        closure_outcome(lambda: closure_check_per_point(ref, bound)))
    sg = GradedSemigroup(n, levels=levels, check_closure=False)
    assert [hilbert(sg, k) for k in range(1, bound + 1)] == [len(ref[k]) for k in ref]
    spanning = {k: sorted(pts) for k, pts in ref.items() if pts}
    if not spanning:
        with pytest.raises(EmptySemigroupError):
            regularize(sg)
        return
    reg = regularize(sg)
    basis, m, boundary, ind, _ = regularize_lattice_reference(
        [u + (k,) for k, pts in spanning.items() for u in pts])
    assert (reg.group_basis, reg.m, reg.boundary_lattice, reg.ind) == (
        tuple(basis), m, tuple(boundary), ind)
    _, hull = regularize_tuple_route(spanning)
    assert [v[:-1] for v in reg.okounkov_body.vertices()] == list(hull.vertices())
    assert rational_pairs(reg.okounkov_body)[:-2] == [
        (v + (0,), c) for v, c in rational_pairs(hull)]
    counts = [hilbert_reg(reg, k) for k in range(8)]
    assert counts == [hilbert_reg_per_level(reg, k) for k in range(8)]
    # the same levels with permuted coordinates, which may run along
    # another axis, have the same invariants and the permuted body
    sg2 = GradedSemigroup(n, levels=_permuted(levels, sigma), check_closure=False)
    reg2 = regularize(sg2)
    assert [hilbert(sg2, k) for k in range(bound + 1)] == [
        hilbert(sg, k) for k in range(bound + 1)]
    assert [hilbert_reg(reg2, k) for k in range(8)] == counts
    assert (len(reg2.group_basis), reg2.m, reg2.ind, reg2.okounkov_dim) == (
        len(reg.group_basis), reg.m, reg.ind, reg.okounkov_dim)
    law, law2 = growth_law_check(reg, k_max=20), growth_law_check(reg2, k_max=20)
    assert (law2.a_q_predicted, law2.a_q_empirical) == (
        law.a_q_predicted, law.a_q_empirical)
    assert sorted(reg2.okounkov_body.vertices()) == sorted(
        tuple(v[j] for j in sigma) + v[n:] for v in reg.okounkov_body.vertices())


def wide_triangle_levels(bound):
    """{k: lattice points of k P} for P the triangle (0, 0), (2, 0), (0, 1),
    twice as wide as it is tall, as the F_3 ample polygon."""
    return {k: [(x, y) for y in range(k + 1) for x in range(2 * (k - y) + 1)]
            for k in range(1, bound + 1)}


def test_elongated_levels_run_along_their_long_side(monkeypatch):
    levels = wide_triangle_levels(6)
    seen = []
    monkeypatch.setattr(semigroup, "int_hull",
                        lambda pts: seen.append(pts) or int_hull(pts))
    sg = GradedSemigroup(2, levels=levels)
    top = levels[6]
    assert sg.axis == 0
    # one run per row: 7 runs, against 13 columns along the last coordinate
    assert len(_runs(sg.codes[6])[0]) == len({y for _, y in top}) == 7
    assert len({x for x, _ in top}) == 13
    # the hull reads the two ends of each row of each level, scaled by den / k
    regularize(sg)
    den = math.lcm(*levels)
    assert seen == [sorted({(den // k * x, den // k * y) for k in levels
                            for y in range(k + 1) for x in (0, 2 * (k - y))})]


def test_gapped_levels_run_along_the_axis_without_gaps():
    # the last coordinate is four times as long, but its points are two
    # apart, so each would be a run of its own
    levels = {k: [(x, y) for x in range(k + 1) for y in range(0, 4 * k + 1, 2)]
              for k in range(1, 5)}
    sg = GradedSemigroup(2, levels=levels)
    assert sg.axis == 0
    assert len(_runs(sg.codes[4])[0]) == 9  # one run per even y


@pytest.mark.parametrize("n, levels", [
    (2, {k: list(product(range(k + 1), repeat=2)) for k in range(1, 5)}),
    (3, {k: [p for p in product(range(k + 1), repeat=3) if sum(p) <= k]
         for k in range(1, 5)}),
], ids=["square", "simplex"])
def test_tied_levels_keep_the_last_axis(n, levels):
    sg = GradedSemigroup(n, levels=levels)
    assert sg.axis == n - 1
    assert sg.weights == [sg.radix ** (n - 1 - j) for j in range(n)]
