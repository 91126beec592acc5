"""Differential tests of the integer convex hull and the Okounkov bodies of
rank 3 and 4.

`int_hull` hulls integer points in any dimension incrementally, and
`hull_polytope` reads the hull over one denominator off it; these tests
check it, on rational points scaled by `_oracles.rational_hull`, and the
volume `volume_sum` reads off the same hull (`_oracles.body_volume`) against
the independent facet scan, Caratheodory vertex test and pyramid volume of
`_oracles`, in dimensions 2 to 4, on small coordinates with duplicate,
collinear, coplanar and embedded inputs.  `int_hull`'s pivot columns,
vertices and `hull_polytope` rows are checked against the Hermite route
it replaced (`_oracles.hull_by_hermite`) on point sets in affine
sublattices of every dimension.  They also pin the rank-3 corpus bodies,
whose slices hold hundreds of points, and rank-4 semigroups.
"""

import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kodaira.cli import main
from kodaira.lattice import dot, hnf_basis, hull_polytope, int_hull
from kodaira.semigroup import growth_law_check, regularize
from kodaira.toric import kappa2

from _corpus import corpus_section_systems
from _oracles import (
    affine_dimension,
    body_volume,
    facet_scan,
    hnf_basis_euclid,
    hull_by_hermite,
    hull_vertex_set,
    pyramid_volume,
    rational_hull,
    rational_pairs,
    rational_polytope,
    to_semigroup,
)

# |x| <= 3 with denominators 1..3
coord = st.integers(1, 3).flatmap(
    lambda q: st.builds(Fraction, st.integers(-3 * q, 3 * q), st.just(q)))
small_int = st.integers(-2, 2)


def with_duplicates(points):
    return st.lists(st.sampled_from(points), max_size=2).map(
        lambda extra: points + extra)


def free_sets(n, min_size=1, max_size=7):
    return st.lists(st.tuples(*[coord] * n), min_size=min_size, max_size=max_size)


@st.composite
def embedded_sets(draw, n):
    """Points base + sum x_i u_i: collinear, coplanar or lower-dimensional
    sets when the small integer directions u_i are few or dependent."""
    q = draw(st.integers(1, n - 1))
    base = draw(st.tuples(*[coord] * n))
    dirs = draw(st.lists(st.tuples(*[small_int] * n), min_size=q, max_size=q))
    params = draw(free_sets(q))
    return [tuple(b + sum(x * u[i] for x, u in zip(xs, dirs))
                  for i, b in enumerate(base)) for xs in params]


point_sets = st.one_of(
    free_sets(2, 3, 9), free_sets(3, 4), free_sets(4, 5, 8),
    embedded_sets(2), embedded_sets(3), embedded_sets(4),
).flatmap(with_duplicates)


@settings(max_examples=120)
@given(point_sets)
# a triangulation corner inside a hull edge that lies on four facets: it is
# no vertex, since the facet normals there span only three dimensions
@example([(-2, 1, 0, 1), (-2, -2, 0, -1), (2, 2, -1, 1), (2, -1, 2, 1),
          (0, 0, 1, 1), (1, -1, -2, -2), (-2, 2, -2, 1)])
def test_convex_hull_matches_oracles(pts):
    n = len(pts[0])
    hull = rational_hull(pts)
    dim = affine_dimension(pts)
    assert affine_dimension(hull.vertices()) == dim
    assert set(hull.vertices()) == hull_vertex_set(pts)
    assert list(hull.vertices()) == sorted(hull.vertices())
    cons = rational_pairs(hull)
    assert all(dot(p, v) >= c for p in pts for v, c in cons)
    if dim == n:
        assert sorted(cons) == sorted(facet_scan(pts))
    else:
        # the equalities and embedded facets cut out exactly the hull
        assert rational_polytope(n, cons).vertices() == hull.vertices()


@st.composite
def sublattice_sets(draw):
    """Sorted distinct points of Z^n, n in 1-4, negative coordinates
    allowed, in an affine sublattice of a drawn dimension q in 0-n: base +
    sum x_i u_i over q small integer directions u_i (dependent ones give a
    lower dimension still)."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(0, n))
    base = draw(st.tuples(*[st.integers(-5, 5)] * n))
    dirs = draw(st.lists(st.tuples(*[small_int] * n), min_size=q, max_size=q))
    params = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * q),
                           min_size=q + 1, max_size=q + 6))
    return sorted({tuple(b + sum(x * u[i] for x, u in zip(xs, dirs))
                         for i, b in enumerate(base)) for xs in params})


@settings(max_examples=200)
@given(sublattice_sets())
# the differences reach pivot column 1 before column 0: the columns are
# read in increasing order, as the Hermite pivots are
@example([(0, 0, 0), (0, 1, 0), (1, 0, 0)])
@example([(-1, 2, 0, 1), (0, 0, 2, 1), (2, -4, 6, 1)])
def test_int_hull_matches_the_hermite_route(pts):
    cols, verts, normals, bounds = hull_by_hermite(pts)
    hull = int_hull(pts)
    assert hull[0] == cols
    assert hull[2] == verts
    poly = hull_polytope(hull, 1)
    assert (poly.normals, poly.bounds) == (tuple(normals), tuple(bounds))


@settings(max_examples=40)
@given(st.lists(st.tuples(*[small_int] * 3), min_size=8, max_size=13))
def test_convex_hull_of_crowded_integer_sets(pts):
    # crowded sets leave triangulation corners on hull edges and facets;
    # in a 3-polytope exactly the vertices lie on three or more facets
    assume(affine_dimension(pts) == 3)
    facets = facet_scan(pts)
    hull = hull_polytope(int_hull(sorted(set(pts))), 1)
    assert sorted(zip(hull.normals, hull.bounds)) == sorted(facets)
    assert set(hull.vertices()) == {
        p for p in set(pts) if sum(dot(p, w) == h for w, h in facets) >= 3}


def test_hull_equalities_depend_on_the_hull_only():
    # the same triangle in Z^4 from its corners, and with the midpoint of
    # two of them added: the equality normals are the HNF basis of the
    # integer orthogonal complement, whatever points were fed
    corners = [(0, 13, 7, -8), (6, 9, 1, -2), (8, 4, -4, 2)]
    first, second = (hull_polytope(int_hull(sorted(pts)), 1)
                     for pts in (corners, corners + [(3, 11, 4, -5)]))
    assert first.normals[:4] == ((1, 0, -2, -3), (-1, 0, 2, 3),
                                 (0, 3, -7, -5), (0, -3, 7, 5))
    assert (first.normals, first.bounds) == (second.normals, second.bounds)
    assert first.vertices() == second.vertices() == tuple(corners)


@settings(max_examples=60)
@given(st.one_of(free_sets(2, 3, 9), free_sets(3, 4), free_sets(4, 5, 8))
       .flatmap(with_duplicates))
def test_lattice_volume_matches_pyramid_oracle(pts):
    n = len(pts[0])
    assume(affine_dimension(pts) == n)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert body_volume(rational_hull(pts), basis) == pyramid_volume(pts)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(lambda q: st.tuples(
    free_sets(q, q + 1), st.tuples(*[small_int] * (q + 1)),
    st.lists(st.tuples(*[small_int] * (q + 1)), min_size=q, max_size=q))))
def test_lattice_volume_in_an_embedded_direction_lattice(case):
    # a q-dimensional body one dimension up: volume in the basis of its
    # direction lattice equals the oracle volume of its parameters
    params, base, basis = case
    q = len(basis)
    assume(affine_dimension(params) == q)
    assume(affine_dimension([(0,) * (q + 1)] + basis) == q)
    pts = [tuple(b + sum(x * u[i] for x, u in zip(xs, basis))
                 for i, b in enumerate(base)) for xs in params]
    assert body_volume(rational_hull(pts), basis) == pyramid_volume(params)


def test_convex_hull_of_the_four_simplex():
    simplex = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    hull = hull_polytope(int_hull(sorted(simplex)), 1)
    assert len(hull.normals) == 5
    assert hull.vertices() == tuple(sorted(simplex))
    # a 3-simplex inside R^4 keeps its affine dimension
    assert affine_dimension(
        hull_polytope(int_hull(sorted(simplex[:4])), 1).vertices()) == 3


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=8)))
def test_hnf_basis_equals_full_hnf(rows):
    # the early exit at Z^n must not change the canonical basis, the
    # nonzero rows of the full (Euclid chase) HNF
    assert hnf_basis(rows) == hnf_basis_euclid(rows)


def test_hnf_basis_stops_reading_at_the_identity():
    # the rows are read one at a time: once they generate Z^n, no further
    # row is drawn from the iterable
    def unreadable():
        raise AssertionError("row read after the rows generate Z^n")
        yield

    rows = chain([(2, 1, 0), (1, 0, 0), (0, 0, 1)], unreadable())
    assert hnf_basis(rows) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


RANK3_VOLUMES = {"p3_unit": Fraction(1, 6), "p1xp1xp1_diag": 1,
                 "p1xp2_mixed": Fraction(1, 2)}


def test_rank3_corpus_bodies_regularize():
    systems = [(name, s) for name, s in corpus_section_systems(degree_bound=8)
               if s.variety.lattice_rank == 3 and s.support()]
    assert len(systems) == 9
    for name, s in systems:
        reg = regularize(to_semigroup(s))
        assert reg.okounkov_dim == kappa2(s), name
        if name in RANK3_VOLUMES:
            body = reg.okounkov_body
            assert body_volume(body, list(reg.boundary_lattice)) == RANK3_VOLUMES[name]
        if reg.okounkov_dim == 3:
            gaps = [growth_law_check(reg, k_max=k).relative_gap
                    for k in (20, 80)]
            assert gaps[1] < gaps[0], name


def test_semigroup_cli_rank3_beyond_160_slice_points(tmp_path, capsys):
    bound = 8
    levels = {str(k): [[x, y, z] for x in range(k + 1) for y in range(k + 1)
                       for z in range(k + 1)] for k in range(1, bound + 1)}
    slice_pts = {tuple(Fraction(x, int(k)) for x in p)
                 for k, pts in levels.items() for p in pts}
    assert len(slice_pts) > 160
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({
        "schema_version": "1", "kind": "semigroup",
        "body": {"ambient_rank": 3, "levels": levels},
        "options": {"max_degree": bound}}))
    assert main(["semigroup", str(path), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["regularization"]["okounkov_dim"] == 3
    assert rep["regularization"]["okounkov_vertices"] == [
        [str(x), str(y), str(z), "1"] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert rep["growth_law"]["predicted"] == "1"


def _unit(i, n):
    return [int(i == j) for j in range(n)]


SIMPLEX_P4 = {"generators": [[0, 0, 0, 0, 1]] + [_unit(i, 4) + [1] for i in range(4)]}
CUBE_4 = {"levels": {str(k): [[x, y, z, t] for x in range(k + 1) for y in range(k + 1)
                              for z in range(k + 1) for t in range(k + 1)]
                     for k in range(1, 5)}}


@pytest.mark.parametrize("body, predicted", [(SIMPLEX_P4, "1/24"), (CUBE_4, "1")],
                         ids=["p4_simplex", "cube4"])
def test_rank4_semigroups_regularize(tmp_path, capsys, body, predicted):
    # body dimension 4, and the growth-law gap shrinks from k_max 20 to 80
    gaps = []
    for k_max in (20, 80):
        path = tmp_path / f"rank4_{k_max}.json"
        path.write_text(json.dumps({
            "schema_version": "1", "kind": "semigroup",
            "body": {"ambient_rank": 4, **body},
            "options": {"max_degree": 4, "growth_k_max": k_max}}))
        assert main(["semigroup", str(path), "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["regularization"]["okounkov_dim"] == 4
        assert rep["growth_law"]["predicted"] == predicted
        gaps.append(Fraction(rep["growth_law"]["relative_gap"]))
    assert gaps[1] < gaps[0]


@settings(max_examples=80)
@given(st.one_of(point_sets, free_sets(1)))
def test_int_hull_vertices_match_convex_hull(pts):
    # the per-level routine of `regularize`, on the same sets made integral
    pts = sorted({tuple(int(6 * x) for x in p) for p in pts})
    hull = int_hull(pts)
    verts = hull[2]
    assert len(verts) == len(set(verts))
    assert sorted(verts) == list(hull_polytope(hull, 1).vertices())
    assert set(verts) == hull_vertex_set(pts)
