"""Semigroup levels as sorted integer codes, against the tuple route.

`GradedSemigroup` keeps each level once, as the sorted distinct codes
c(p) = sum_j p_j R^(n-1-j) of its points (R = 4M + 1): M is the largest
|coordinate| of a stored level, or the reach times the largest |generator
coordinate| of a generated one, whose levels are sums of codes.
`regularize` reads only the runs of consecutive codes: the group from the
run starts plus e_n, the hull from the run ends.  The references in
`_oracles` are the tuple route the codes replaced: levels as sets of tuples
(`tuple_levels`) or enumerated from the generators
(`semigroup_level_points`), the group from every point and the hull of the
column ends (`regularize_tuple_route`).
"""

from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.lattice import _dots
from kodaira.semigroup import (
    DegreeBoundError,
    GradedSemigroup,
    _coder,
    _decode,
    hilbert,
    regularize,
)

from _oracles import (
    level_points,
    rational_pairs,
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
    radix, weights = _coder(n, max(map(abs, chain.from_iterable(points)), default=0))
    codes = _dots(weights, points)
    assert len(set(codes)) == len(set(points))  # injective
    ordered = sorted(set(points))
    assert _decode(sorted(set(codes)), radix, weights) == ordered  # order kept
    # consecutive codes are exactly the steps of e_n within one column
    step = [a[:-1] == b[:-1] and b[-1] == a[-1] + 1
            for a, b in zip(ordered, ordered[1:])] if n else []
    sorted_codes = sorted(set(codes))
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
    """The group from the run starts plus e_n is the group of all points,
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
