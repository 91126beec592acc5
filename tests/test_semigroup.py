import json
import re
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kodaira.semigroup import (
    DegreeBoundError,
    EmptySemigroupError,
    GradedSemigroup,
    growth_law_check,
    hilbert,
    hilbert_reg,
    regularize,
)

from _corpus import corpus_section_systems
from _oracles import (
    affine_dimension,
    basis_coords,
    closure_check_per_point,
    closure_outcome,
    from_generators,
    hilbert_reg_per_level,
    in_row_lattice,
    level_points,
    regularize_lattice_reference,
    rational_pairs,
    semigroup_level_points,
    solve_in_lattice,
    solve_linear_system,
    to_semigroup,
)


STAIRCASE = from_generators([(0, 1), (1, 1)])
DOUBLED = from_generators([(0, 2), (1, 2)])
SYMMETRIC = from_generators([(1, 1), (-1, 1)])


def unit_triangle_levels(bound):
    return {k: {(x, y) for x in range(k + 1) for y in range(k + 1 - x)}
            for k in range(1, bound + 1)}


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def test_regularize_staircase():
    reg = regularize(STAIRCASE)
    assert reg.m == 1
    assert len(reg.group_basis) == 2  # G = Z^2
    assert reg.okounkov_dim == 1
    verts = reg.okounkov_body.vertices()
    assert [v[:-1] for v in verts] == [(0,), (1,)]
    assert all(v[-1] == 1 for v in verts)


def test_regularize_doubled():
    reg = regularize(DOUBLED)
    assert reg.m == 2
    # cone of (0,2),(1,2) is {x >= 0, y >= 2x}; slice at level 1 is [0, 1/2]
    verts = reg.okounkov_body.vertices()
    assert verts == ((0, 1), (Fraction(1, 2), 1))
    assert reg.boundary_lattice == ((1, 0),)
    assert reg.ind == 1


def test_regularize_symmetric():
    reg = regularize(SYMMETRIC)
    assert reg.okounkov_dim == 1
    verts = reg.okounkov_body.vertices()
    assert verts == ((-1, 1), (1, 1))


def test_regularize_empty():
    sg = GradedSemigroup(1, levels={1: set(), 2: set()})
    with pytest.raises(EmptySemigroupError):
        regularize(sg)


def test_okounkov_dim_is_group_rank_minus_one():
    for sg in (STAIRCASE, DOUBLED, SYMMETRIC,
               from_generators([(0, 0, 1), (1, 0, 1), (0, 1, 1)]),
               from_generators([(2, 3)])):
        reg = regularize(sg)
        assert reg.okounkov_dim == len(reg.group_basis) - 1
        assert affine_dimension(reg.okounkov_body.vertices()) == reg.okounkov_dim


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def test_hilbert_staircase():
    # oracle: independent exhaustive combination enumeration
    assert hilbert(STAIRCASE, 5) == 6
    assert hilbert(STAIRCASE, 5) == len(semigroup_level_points(STAIRCASE.generators, 5))
    for k in range(8):
        assert hilbert(STAIRCASE, k) == k + 1 if k else 1


def test_hilbert_doubled():
    for t in range(1, 6):
        assert hilbert(DOUBLED, 2 * t) == t + 1
        assert hilbert(DOUBLED, 2 * t - 1) == 0
    assert hilbert(DOUBLED, 6) == len(semigroup_level_points(DOUBLED.generators, 6))


def test_hilbert_degree_zero():
    for sg in (STAIRCASE, DOUBLED, SYMMETRIC):
        assert hilbert(sg, 0) == 1


def test_hilbert_matches_oracle_various():
    gens_list = [
        [(0, 1), (2, 1)],
        [(1, 2), (0, 3)],
        [(0, 0, 1), (1, 0, 1), (0, 1, 2)],
    ]
    for gens in gens_list:
        sg = from_generators(gens)
        for k in range(9):
            assert hilbert(sg, k) == len(semigroup_level_points(gens, k))


def test_hilbert_reg_dominates_hilbert():
    for sg in (STAIRCASE, DOUBLED, SYMMETRIC,
               from_generators([(0, 1), (3, 1)])):
        reg = regularize(sg)
        for k in range(13):
            assert hilbert(sg, k) <= hilbert_reg(reg, k)


def test_hilbert_reg_gap_semigroup():
    # generators (0,1),(1,1),(3,1): the group is Z^2, so the regularization
    # fills in the point 2 at level 1 that the semigroup misses
    sg = from_generators([(0, 1), (1, 1), (3, 1)])
    reg = regularize(sg)
    assert hilbert(sg, 1) == 3
    assert hilbert_reg(reg, 1) == 4  # 0,1,2,3


def test_degreewise_bound_enforced():
    sg = GradedSemigroup(1, levels={1: {(0,), (1,)}, 2: {(0,), (1,), (2,)}})
    assert hilbert(sg, 2) == 3
    with pytest.raises(DegreeBoundError):
        hilbert(sg, 3)
    # regularized counts extend beyond the bound
    assert hilbert_reg(regularize(sg), 10) == 11


def test_negative_degree_bound_is_refused_for_both_kinds():
    for kind in ({"generators": [(0, 1), (1, 1)]}, {"levels": {1: [(0,)]}}):
        with pytest.raises(ValueError, match="degree_bound must be nonnegative, got -4"):
            GradedSemigroup(1, degree_bound=-4, **kind)


def test_negative_ambient_rank_is_refused_for_both_kinds():
    # a generator row of length n + 1 = 0 once raised IndexError, and an
    # empty level passed as an empty semigroup
    for kind in ({"generators": [[]]}, {"levels": {1: []}}):
        with pytest.raises(ValueError, match="ambient_rank must be nonnegative, got -1"):
            GradedSemigroup(-1, **kind)


def test_closure_check_rejects_bad_declaration():
    with pytest.raises(ValueError, match="closure"):
        GradedSemigroup(
            1, levels={1: {(0,), (1,)}, 2: {(0,)}}, check_closure=True)


def test_non_integral_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="generator entries must be integers"):
        GradedSemigroup(1, generators=[(Fraction(5, 2), 1), (0.9, 1.7)])
    with pytest.raises(ValueError, match="point entries must be integers"):
        GradedSemigroup(1, levels={1: {(2.7,)}})
    with pytest.raises(ValueError, match="point entries must be integers"):
        GradedSemigroup(2, levels={1: [[0, 0]], 2: [[0, "1"]]})
    # integral values of other integer types are taken as they are, also
    # bool and int entries mixed in one row
    sg = GradedSemigroup(1, levels={1: {(True,), (0,)}, 2: {(0,), (1,), (2,)}})
    assert level_points(sg, 1) == {(0,), (1,)}
    assert hilbert(sg, 1) == 2
    sg = GradedSemigroup(2, levels={1: [[True, 0], [0, False], [1, 1]],
                                    2: [[x, y] for x in range(3) for y in range(3)]})
    assert level_points(sg, 1) == {(1, 0), (0, 0), (1, 1)}
    assert hilbert(sg, 1) == 3


def test_point_dimension_mismatch_in_one_level():
    with pytest.raises(ValueError, match="point dimension mismatch"):
        GradedSemigroup(2, levels={1: [[0, 0]], 2: [[0, 0], [1]]})
    with pytest.raises(ValueError, match="point dimension mismatch"):
        GradedSemigroup(1, levels={1: {(0,)}, 2: {(0, 0)}}, check_closure=False)


def test_non_integral_level_keys_are_rejected_not_truncated():
    for key in (Fraction(3, 2), 2.9, 2.0, "2"):
        with pytest.raises(ValueError, match="level keys must be integers"):
            GradedSemigroup(1, levels={key: {(1,)}, 1: {(0,)}}, check_closure=False)
    sg = GradedSemigroup(1, levels={True: {(0,)}, 2: {(0,)}})
    assert [hilbert(sg, k) for k in range(3)] == [1, 1, 1]
    assert level_points(sg, 1) == level_points(sg, 2) == {(0,)}


@st.composite
def declared_levels(draw):
    """(rank, levels A_1..A_B, B) of a generated semigroup of ambient rank
    0-3, left closed or broken by dropping a point, adding one, or removing
    a whole level."""
    n = draw(st.integers(0, 3))
    bound = draw(st.integers(2, 8 - 2 * n if n else 6))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n, st.integers(1, 2)),
                         min_size=1, max_size=4, unique=True))
    sg = GradedSemigroup(n, generators=gens)
    levels = {k: set(level_points(sg, k)) for k in range(1, bound + 1)}
    k = draw(st.integers(1, bound))
    how = draw(st.sampled_from(["closed", "drop", "add", "remove level"]))
    if how == "drop" and levels[k]:
        levels[k].discard(draw(st.sampled_from(sorted(levels[k]))))
    elif how == "add":
        levels[k].add(draw(st.tuples(*[st.integers(-3, 3)] * n)))
    elif how == "remove level":
        del levels[k]
    return n, levels, bound


@settings(max_examples=200, deadline=None)
@given(declared_levels())
def test_closure_check_matches_per_point_reference(case):
    n, levels, bound = case
    expected = closure_outcome(lambda: closure_check_per_point(levels, bound))
    got = closure_outcome(
        lambda: GradedSemigroup(n, levels=levels, degree_bound=bound))
    assert got == expected, (levels, bound)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_closure_check_finds_one_missing_sum_in_large_levels(data):
    # A_t is the box t B for a lattice box B of 450-600 points, so every
    # pair of levels has over 200,000 point sums, where the check once
    # sampled every len // 14-th point and missed most single missing sums.
    # The check passes the closed levels; with one point of A_2 or A_3
    # dropped, it must find the pair that misses it
    n = data.draw(st.integers(1, 3))
    sides = data.draw(st.lists(st.integers(2, 12), min_size=n - 1, max_size=n - 1))
    inner = prod(sides)  # at most 150, so some last side fits
    sides.append(data.draw(st.integers(-(-450 // inner), 600 // inner)))
    levels = {t: set(product(*[range(-t * (s // 2), t * (s - 1 - s // 2) + 1)
                               for s in sides])) for t in (1, 2, 3)}
    GradedSemigroup(n, levels=levels, degree_bound=3)
    t = data.draw(st.sampled_from([2, 3]))
    levels[t].discard(data.draw(st.sampled_from(sorted(levels[t]))))
    with pytest.raises(ValueError, match=re.escape(
            f"declared closure fails: A_1+A_{t - 1} escapes A_{t}")):
        GradedSemigroup(n, levels=levels, degree_bound=3)


# ---------------------------------------------------------------------------
# growth law
# ---------------------------------------------------------------------------

def test_growth_staircase():
    rep = growth_law_check(regularize(STAIRCASE), k_max=200)
    assert rep.q == 1 and rep.m == 1
    assert rep.a_q_predicted == 1
    assert rep.a_q_empirical == Fraction(201, 200)
    assert rep.relative_gap <= Fraction(1, 10)


def test_growth_doubled():
    rep = growth_law_check(regularize(DOUBLED), k_max=200)
    assert rep.q == 1 and rep.m == 2
    # m^q * Vol_lat = 2 * 1/2 = 1; the literal unnormalized reading would be 1/2
    assert rep.a_q_predicted == 1
    assert rep.a_q_empirical == Fraction(201, 200)


def test_growth_unit_triangle_levels():
    sg = GradedSemigroup(2, levels=unit_triangle_levels(8))
    rep = growth_law_check(regularize(sg), k_max=200)
    assert rep.q == 2 and rep.m == 1
    assert rep.a_q_predicted == Fraction(1, 2)
    assert rep.a_q_empirical == Fraction(201 * 202, 2 * 200 ** 2)
    assert rep.relative_gap <= Fraction(1, 10)


def test_growth_gap_small_on_generated_corpus():
    corpus = [
        [(0, 1), (1, 1)],
        [(0, 2), (1, 2)],
        [(1, 1), (-1, 1)],
        [(0, 1), (2, 1)],
        [(0, 3), (1, 3)],
        [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
        [(0, 0, 1), (2, 0, 1), (0, 2, 1)],
    ]
    for gens in corpus:
        sg = from_generators(gens)
        rep = growth_law_check(regularize(sg), k_max=200)
        assert rep.relative_gap <= Fraction(1, 10), gens


def test_reg_to_plain_ratio_tends_to_one():
    # H_reg(mk)/H(mk) within [1, 1.2] at the probe degree
    cases = [
        ([(0, 1), (1, 1)], 200),
        ([(0, 2), (1, 2)], 200),
        ([(0, 1), (3, 1)], 200),
        ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], 40),
    ]
    for gens, k_max in cases:
        sg = from_generators(gens)
        reg = regularize(sg)
        k = reg.m * k_max
        a, b = hilbert(sg, k), hilbert_reg(reg, k)
        assert 1 <= Fraction(b, a) <= Fraction(12, 10), gens


def test_zero_dimensional_growth():
    sg = from_generators([(2, 3)])
    rep = growth_law_check(regularize(sg), k_max=50)
    assert rep.q == 0
    assert rep.a_q_predicted == 1
    assert rep.a_q_empirical == 1


@pytest.mark.parametrize("gens", [[(2, 3)], [(0, 1), (1, 1)]], ids=["q0", "q1"])
@pytest.mark.parametrize("k_max", [0, -2, 1.5, "20"])
def test_growth_law_refuses_a_k_max_below_one(gens, k_max):
    # no empirical coefficient without a positive integer degree: at 0 a
    # division by zero for q >= 1 and a vacuous report for q = 0, below 0
    # a "negative degree"; a non-integer is never truncated
    reg = regularize(from_generators(gens))
    with pytest.raises(ValueError, match="k_max"):
        growth_law_check(reg, k_max=k_max)
    assert growth_law_check(reg, k_max=1).k_max == 1


def test_ind_undefined_when_rank_deficient():
    # G = Z(0,1): the boundary lattice has rank 0 < ambient rank 1
    sg = from_generators([(0, 1)])
    reg = regularize(sg)
    assert reg.ind is None
    assert reg.okounkov_dim == 0


def test_m_from_group_not_observed_levels():
    # levels 2 and 3 observed: the level projection of G is all of Z even
    # though no degree-1 sections were stored
    sg = GradedSemigroup(1, levels={2: {(0,)}, 3: {(0,)}, 4: {(0,)},
                                    5: {(0,)}, 6: {(0,)}})
    reg = regularize(sg)
    assert reg.m == 1
    assert hilbert(sg, 5) == 1


def test_hilbert_reg_coset_structure():
    # G = Z(1,2) + Z(0,4): level projection has index 2, and the group points
    # at even levels sit on a shifted sublattice of Z x {level};
    # oracle: scan a wide strip and test group membership plus membership in
    # level * Delta, read off the constraints of the Okounkov body
    from kodaira.lattice import dot

    sg = from_generators([(1, 2), (0, 4)])
    reg = regularize(sg)
    assert reg.m == 2
    body = reg.okounkov_body
    for level in range(0, 13):
        expected = 0
        for u in range(-20, 40):
            point = (u, level)
            if solve_in_lattice(point, list(reg.group_basis)) is None:
                continue
            if all(dot(point, v) >= level * c for v, c in rational_pairs(body)):
                expected += 1
        assert hilbert_reg(reg, level) == expected, level


def test_hilbert_reg_rejects_negative_degree():
    with pytest.raises(ValueError, match="negative degree"):
        hilbert(STAIRCASE, -1)
    with pytest.raises(ValueError, match="negative degree"):
        hilbert_reg(regularize(STAIRCASE), -1)


# ---------------------------------------------------------------------------
# slice scaling against the per-level reference
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_file_semigroups():
    out = []
    for path in sorted(CORPUS.glob("semigroup_*.json")):
        doc = json.loads(path.read_text())
        body, options = doc["body"], doc.get("options", {})
        if "generators" in body:
            sg = GradedSemigroup(body["ambient_rank"], generators=body["generators"])
        else:
            sg = GradedSemigroup(
                body["ambient_rank"],
                levels={int(k): {tuple(p) for p in pts} for k, pts in body["levels"].items()})
        out.append(pytest.param(sg, options.get("growth_k_max", 200), id=path.stem))
    return out


def listed_semigroups():
    gens = [[(0, 1), (3, 1)], [(0, 1), (1, 1), (3, 1)], [(1, 2), (0, 4)],
            [(2, 3)], [(0, 1)], [(0, 1), (2, 1)], [(1, 2), (0, 3)],
            [(0, 0, 1), (1, 0, 1), (0, 1, 1)], [(0, 0, 1), (1, 0, 1), (0, 1, 2)],
            [(0, 0, 1), (2, 0, 1), (0, 2, 1)]]
    out = [(from_generators(g), str(g)) for g in gens]
    out += [(STAIRCASE, "staircase"), (DOUBLED, "doubled"), (SYMMETRIC, "symmetric"),
            (GradedSemigroup(2, levels=unit_triangle_levels(8)), "triangle_levels"),
            (GradedSemigroup(1, levels={1: {(0,), (1,)}, 2: {(0,), (1,), (2,)}}),
             "stored_levels"),
            (GradedSemigroup(1, levels={k: {(0,)} for k in range(2, 7)}),
             "levels_2_to_6")]
    return [pytest.param(sg, 200, id=name) for sg, name in out]


def assert_matches_per_level(sg, k_max, label):
    reg = regularize(sg)
    for k in list(range(31)) + [reg.m * k_max]:
        assert hilbert_reg(reg, k) == hilbert_reg_per_level(reg, k), (label, k)


@pytest.mark.parametrize("sg, k_max", corpus_file_semigroups() + listed_semigroups())
def test_hilbert_reg_matches_per_level_reference(sg, k_max):
    assert_matches_per_level(sg, k_max, sg.generators)


def test_hilbert_reg_matches_per_level_reference_on_corpus_systems():
    systems = [(name, s) for name, s in corpus_section_systems(degree_bound=8)
               if s.support()]
    assert len(systems) == 47
    for name, s in systems:
        assert_matches_per_level(to_semigroup(s), 200, name)


@st.composite
def generator_sets(draw):
    """Generator lists of ambient rank 1-3; a common level factor gives
    m > 1, and a single ray (multiples of one generator) a zero-dimensional
    body."""
    n = draw(st.integers(1, 3))
    scale = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * n, st.integers(1, 3))
    if draw(st.booleans()):
        gens = draw(st.lists(point, min_size=2, max_size=6, unique=True))
    else:
        g = draw(point)
        gens = [tuple(c * x for x in g) for c in draw(st.sets(st.integers(1, 3), min_size=1))]
    return [g[:-1] + (scale * g[-1],) for g in gens]


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_hilbert_reg_matches_per_level_reference_on_drawn_generators(gens):
    assert_matches_per_level(from_generators(gens), 40, gens)


@st.composite
def sheared_generator_sets(draw):
    """(n, g, d, generators (d w + l c, l)) of ambient rank n in 0-3: level
    l = g for the first generator and a multiple of g for the others, so
    m = g; directions w scaled by d in {2, 3}, so the boundary lattice lies
    in d Z^n (a level-0 combination of the generators is d times the same
    combination of the w) and has index divisible by d^n at full rank; and a
    shear c, so that G is not a product of its level and its boundary."""
    n, g, d = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    c = draw(coords)
    gens = []
    for i in range(draw(st.integers(1, 4))):
        level = g * (1 if i == 0 else draw(st.integers(1, 3)))
        gens.append(tuple(d * x + level * y for x, y in zip(draw(coords), c))
                    + (level,))
    return n, g, d, gens


@settings(max_examples=150, deadline=None)
@given(sheared_generator_sets())
def test_regularize_lattice_matches_reference_route(case):
    n, g, d, gens = case
    sg = GradedSemigroup(n, generators=gens)
    reg = regularize(sg)
    basis, m, boundary, ind, ref_g0 = regularize_lattice_reference(sg.generators)
    assert reg.group_basis == tuple(basis)
    assert reg.m == m == g
    assert reg.boundary_lattice == tuple(boundary)
    assert reg.ind == ind
    if ind is not None:
        assert ind % d ** n == 0
    # the slice rows are the body's rows <x, v> >= b / den on x = g0 + y ·
    # boundary, with bounds b m - den <g0, v>, so they fix g0: a point of G
    # at level m, which differs from the reference's by a point of the
    # boundary lattice; the box holds the least and largest coordinates of
    # m v - g0 over the vertices v of the body
    body = reg.okounkov_body
    _, bounds, (den, box), _ = reg._slice
    g0 = solve_linear_system(
        [v[:-1] for v in body.normals[:len(bounds)]],
        [Fraction(b * m - c, body.den) for b, c in zip(body.bounds, bounds)]) + (m,)
    assert all(x.denominator == 1 for x in g0)
    assert in_row_lattice(g0, reg.group_basis)
    assert in_row_lattice([a - b for a, b in zip(g0, ref_g0)], boundary)
    coords = basis_coords(boundary, [tuple(m * x - g for x, g in zip(v, g0))
                                     for v in body.vertices()])
    assert [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in box] == [
        (min(c), max(c)) for c in zip(*coords)]
    for k in range(3 * g + 4):
        assert hilbert_reg(reg, k) == hilbert_reg_per_level(reg, k), k


@st.composite
def shear_cases(draw):
    """(n, generators or None, levels or None, ops, w): a generated or
    stored semigroup of ambient rank 1-3 with levels 1-3 and coordinates in
    [-2, 2], and the shear (u, l) -> (U u + l w, l), U the product of the
    elementary integer row operations ops, applied in order: (i, j, c) adds
    c times row j to row i, (i, i, 0) swaps rows i and i + 1 mod n and (i,
    i, -1) negates row i."""
    n = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    row = st.integers(0, n - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(row, row, st.integers(-2, 2)).filter(lambda op: op[0] != op[1]),
        st.builds(lambda i, c: (i, i, c), row, st.sampled_from((0, -1)))),
        max_size=6))
    w = draw(coords)
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(coords, st.integers(1, 3)),
                             min_size=1, max_size=5))
        return n, [u + (l,) for u, l in gens], None, ops, w
    keys = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    levels = {l: draw(st.sets(coords, min_size=1, max_size=5)) for l in keys}
    return n, None, levels, ops, w


def _shear(u, l, ops, w):
    u = list(u)
    for i, j, c in ops:
        if i != j:
            u[i] += c * u[j]
        elif c == -1:
            u[i] = -u[i]
        else:
            k = (i + 1) % len(u)
            u[i], u[k] = u[k], u[i]
    return tuple(x + l * y for x, y in zip(u, w))


def _semigroup(n, gens, levels):
    if gens is not None:
        return GradedSemigroup(n, generators=gens)
    return GradedSemigroup(n, levels=levels, degree_bound=8, check_closure=False)


@settings(max_examples=80, deadline=None)
@given(shear_cases())
def test_semigroup_invariants_survive_a_unimodular_shear(case):
    # no oracle: a shear moves the pivot columns of a lower-dimensional
    # body, and every invariant but the body's position stays
    n, gens, levels, ops, w = case
    sheared = _semigroup(
        n, gens and [_shear(g[:-1], g[-1], ops, w) + g[-1:] for g in gens],
        levels and {l: {_shear(u, l, ops, w) for u in pts}
                    for l, pts in levels.items()})
    sg = _semigroup(n, gens, levels)
    assert [hilbert(sheared, k) for k in range(9)] == [hilbert(sg, k) for k in range(9)]
    reg, reg2 = regularize(sg), regularize(sheared)
    assert [hilbert_reg(reg2, k) for k in range(13)] == [
        hilbert_reg(reg, k) for k in range(13)]
    assert (reg2.m, reg2.ind, reg2.okounkov_dim) == (reg.m, reg.ind, reg.okounkov_dim)
    law, law2 = growth_law_check(reg, k_max=20), growth_law_check(reg2, k_max=20)
    assert (law2.a_q_predicted, law2.a_q_empirical) == (
        law.a_q_predicted, law.a_q_empirical)
    assert reg2.okounkov_body.vertices() == tuple(sorted(
        _shear(v[:-1], 1, ops, w) + v[-1:] for v in reg.okounkov_body.vertices()))
