import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    UnboundedPolytopeError,
    convex_hull,
    det_int,
    dot,
    hnf,
    hnf_basis,
    int_kernel,
    lattice_volume,
    saturate_rows,
    subgroup_rank_index,
    vsub,
)

from _oracles import (
    affine_dimension,
    coset_count,
    diff_lattice_per_point,
    dilate,
    grid_lattice_points,
    hnf_basis_euclid,
    hnf_euclid_chase,
    hull_vertex_set,
    in_row_lattice,
    int_kernel_euclid,
    int_points_rank,
    interpolate_polynomial,
    laplace_det,
    saturate_rows_euclid,
    span_rank,
)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def test_hnf_rowspace_preserved():
    mat = [(2, 4), (1, 3)]
    h, u = hnf(mat)
    assert abs(det_int(u)) == 1
    assert all(tuple(sum(u[i][k] * mat[k][j] for k in range(2)) for j in range(2)) == h[i]
               for i in range(2))
    # mutual membership: same integer row space
    hb = hnf_basis(h)
    for row in mat:
        assert in_row_lattice(row, hb)
    mb = hnf_basis(mat)
    for row in h:
        assert in_row_lattice(row, mb)


def test_hnf_identity():
    ident = [(1, 0), (0, 1)]
    h, u = hnf(ident)
    assert h == [(1, 0), (0, 1)]
    assert u == [(1, 0), (0, 1)]


def test_hnf_zero_row():
    h, u = hnf([(0, 0)])
    assert h == [(0, 0)]
    assert abs(det_int(u)) == 1
    assert len(hnf_basis([(0, 0)])) == 0


def test_hnf_idempotent():
    mats = [
        [(2, 4), (1, 3)],
        [(6, 0, 3), (0, 4, 2), (2, 2, 2)],
        [(5,)],
        [(0, 7), (3, 1), (9, 9)],
    ]
    for mat in mats:
        h1, _ = hnf(mat)
        h2, _ = hnf(h1)
        assert h1 == h2


def test_hnf_unimodular_transform():
    mat = [(6, 10, 15), (10, 15, 6), (15, 6, 10)]
    h, u = hnf(mat)
    assert abs(det_int(u)) == 1
    prod = [tuple(sum(u[i][k] * mat[k][j] for k in range(3)) for j in range(3))
            for i in range(3)]
    assert prod == h


@st.composite
def hnf_matrices(draw):
    """0-6 rows of 1-5 columns: drawn rows with entries up to +-50, mixed
    with zero rows, repeated rows and combinations of two earlier rows."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "drawn" or not rows:
            rows.append(draw(st.tuples(*[st.integers(-50, 50)] * n)))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return rows


@settings(max_examples=300, deadline=None)
@given(hnf_matrices())
@example([(2, 3), (4, -5)])
@example([(0, 0, 0), (1, 1, 1), (1, 1, 1)])
def test_hnf_matches_euclid_chase(rows):
    # gcd insertion and the Euclid chase give the same canonical H; their
    # transforms differ, but each is unimodular with U * rows = H, and the
    # kernel rows of both span one lattice
    h, u = hnf(rows)
    assert h == hnf_euclid_chase(rows)[0]
    assert [tuple(sum(x * r[j] for x, r in zip(ui, rows)) for j in range(len(hi)))
            for hi, ui in zip(h, u)] == h
    assert abs(laplace_det(u)) == 1
    assert hnf_basis(int_kernel(rows)) == hnf_basis(int_kernel_euclid(rows))
    assert hnf_basis(rows) == hnf_basis_euclid(rows)
    assert saturate_rows(rows) == saturate_rows_euclid(rows)


# ---------------------------------------------------------------------------
# subgroup rank and index
# ---------------------------------------------------------------------------

def test_subgroup_index_diagonal():
    rank, idx = subgroup_rank_index([(2, 0), (0, 3)])
    assert (rank, idx) == (2, 6)
    # brute-force coset oracle over a compatible box
    assert coset_count([(2, 0), (0, 3)], 6) == 6


def test_subgroup_rank_deficient():
    rank, idx = subgroup_rank_index([(1, 1)])
    assert (rank, idx) == (1, None)


def test_subgroup_empty_generators():
    rank, idx = subgroup_rank_index([], ambient=[(1, 0), (0, 1)])
    assert (rank, idx) == (0, None)


def test_subgroup_outside_ambient():
    with pytest.raises(GeometryError):
        subgroup_rank_index([(1, 1)], ambient=[(1, 0)])


def test_subgroup_against_coset_oracle():
    cases = [
        [(1, 2), (3, 0)],
        [(2, 2), (0, 4)],
        [(1, 0), (0, 1)],
        [(3, 1), (1, 3)],
        [(5, 0), (0, 19)],   # index 95
        [(10, 2), (0, 10)],  # index 100
        [(7, 3), (2, 12)],   # index 78
    ]
    for gens in cases:
        rank, idx = subgroup_rank_index(gens)
        assert rank == 2
        assert idx is not None and idx <= 100
        # a box of side idx contains a full fundamental domain
        assert coset_count(gens, idx) == idx


def test_subgroup_in_saturated_ambient():
    # ambient = saturated rank-2 lattice in Z^3
    ambient = [(1, 0, 1), (0, 1, 1)]
    rank, idx = subgroup_rank_index([(2, 0, 2), (0, 3, 3)], ambient=ambient)
    assert (rank, idx) == (2, 6)


# ---------------------------------------------------------------------------
# kernels and saturation
# ---------------------------------------------------------------------------

def test_int_kernel():
    ker = int_kernel([(1, 2), (2, 4)])  # rows, left kernel
    assert len(ker) == 1
    x = ker[0]
    assert x[0] * 1 + x[1] * 2 == 0 and x[0] * 2 + x[1] * 4 == 0


def test_saturation():
    sat = saturate_rows([(2, 0), (0, 2)])
    assert sat == [(1, 0), (0, 1)]
    sat = saturate_rows([(2, 4)])
    assert sat == [(1, 2)]


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def test_hull_interior_point_dropped():
    pts = [(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))]
    poly = convex_hull(pts)
    assert set(poly.vertices()) == {(0, 0), (1, 0), (0, 1)}
    assert poly.affine_dim() == 2
    assert set(poly.vertices()) == hull_vertex_set(pts)


def test_hull_single_point():
    poly = convex_hull([(5, 7)])
    assert poly.vertices() == ((5, 7),)
    assert poly.affine_dim() == 0
    assert poly.contains((5, 7)) and not poly.contains((5, 8))


def test_hull_collinear():
    poly = convex_hull([(0, 0), (1, 1), (2, 2)])
    assert set(poly.vertices()) == {(0, 0), (2, 2)}
    assert poly.affine_dim() == 1


def test_hull_empty():
    poly = convex_hull([], ambient_dim=2)
    assert poly.is_empty()
    assert poly.affine_dim() == NEG_INF
    assert poly.vertices() == ()


def test_hull_3d_simplex():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
           (Fraction(1, 8), Fraction(1, 8), Fraction(1, 8))]
    poly = convex_hull(pts)
    assert set(poly.vertices()) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert poly.affine_dim() == 3
    assert set(poly.vertices()) == hull_vertex_set(pts)


def test_hull_matches_oracle_random_sets():
    sets = [
        [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)],
        [(0, 0), (3, 1), (1, 3), (2, 2), (1, 1)],
        [(-1, -1), (1, -1), (-1, 1), (1, 1), (0, 0)],
    ]
    for pts in sets:
        poly = convex_hull(pts)
        assert set(poly.vertices()) == hull_vertex_set(pts)
        for p in pts:
            assert poly.contains(p)


def test_hull_lower_dim_in_higher_space():
    # a segment embedded in 3-space gets affine-hull equalities
    poly = convex_hull([(0, 1, 2), (2, 1, 2)])
    assert poly.affine_dim() == 1
    assert poly.contains((1, 1, 2))
    assert not poly.contains((1, 1, 3))
    assert not poly.contains((3, 1, 2))


# ---------------------------------------------------------------------------
# polytopes: emptiness, vertices, lattice points
# ---------------------------------------------------------------------------

def square_polytope(side):
    return Polytope(2, [((1, 0), 0), ((-1, 0), -side), ((0, 1), 0), ((0, -1), -side)])


def test_square_lattice_points():
    poly = square_polytope(2)
    pts = poly.lattice_points()
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert poly.count_lattice_points() == 9


def test_simplex_lattice_points_binomial():
    k = 3
    poly = Polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -k)])
    # oracle: binomial count (k+2 choose 2)
    assert len(poly.lattice_points()) == (k + 2) * (k + 1) // 2 == 10


def test_empty_polytope():
    poly = Polytope(2, [((1, 0), 1), ((-1, 0), 0)])  # x >= 1 and x <= 0
    assert poly.is_empty()
    assert poly.lattice_points() == []
    assert poly.affine_dim() == NEG_INF


def test_unbounded_rejected():
    poly = Polytope(2, [((1, 0), 0), ((0, 1), 0)])
    assert not poly.is_bounded()
    with pytest.raises(UnboundedPolytopeError):
        poly.lattice_points()


def test_lattice_points_match_grid_oracle():
    cons = [((1, 2), -3), ((-1, 1), -4), ((0, -1), -3), ((1, -1), -2)]
    poly = Polytope(2, cons)
    assert not poly.is_empty() and poly.is_bounded()
    box = poly._int_box()
    assert poly.lattice_points() == grid_lattice_points(cons, box)


def test_vertices_of_intersection():
    poly = square_polytope(1)
    assert poly.vertices() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert poly.affine_dim() == 2


def test_hull_of_lattice_points_recovers_vertices():
    # hull(lattice points of P) has the same vertex set as P, for lattice P
    polys = [
        square_polytope(2),
        Polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)]),
        Polytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                     ((-1, -1, -1), -2)]),
        Polytope(2, [((1, 1), 0), ((-1, 1), -2), ((0, -1), -2)]),
    ]
    for poly in polys:
        hull = convex_hull(poly.lattice_points())
        assert set(hull.vertices()) == set(poly.vertices())


def test_ehrhart_interpolation():
    # counts of dilates interpolate to the Ehrhart polynomial
    polys = [
        square_polytope(1),
        Polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]),
        Polytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                     ((-1, -1, -1), -1)]),
    ]
    for poly in polys:
        d = poly.affine_dim()
        samples = [(k, dilate(poly, k).count_lattice_points()) for k in range(d + 1)]
        ehr = interpolate_polynomial(samples)
        for k in range(d + 1, d + 4):
            assert ehr(k) == dilate(poly, k).count_lattice_points()


# ---------------------------------------------------------------------------
# lattice volume
# ---------------------------------------------------------------------------

def test_volume_unit_segment():
    poly = convex_hull([(0, 1), (1, 1)])
    assert lattice_volume(poly, [(1, 0)]) == 1


def test_volume_half_segment():
    poly = convex_hull([(0, 1), (Fraction(1, 2), 1)])
    assert lattice_volume(poly, [(1, 0)]) == Fraction(1, 2)


def test_volume_unit_square():
    poly = square_polytope(1)
    assert lattice_volume(poly, [(1, 0), (0, 1)]) == 1


def test_volume_point():
    poly = convex_hull([(3, 4)])
    assert lattice_volume(poly, []) == 1


def test_volume_scaling_identity():
    # vol(kP) = k^dim vol(P) as an exact rational identity
    polys = [
        (square_polytope(1), [(1, 0), (0, 1)]),
        (Polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]), [(1, 0), (0, 1)]),
        (Polytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                      ((-1, -1, -1), -1)]), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for poly, basis in polys:
        d = poly.affine_dim()
        v1 = lattice_volume(poly, basis)
        for k in (1, 2, 3):
            assert lattice_volume(dilate(poly, k), basis) == v1 * k ** d


def test_volume_basis_mismatch():
    poly = square_polytope(1)
    with pytest.raises(GeometryError):
        lattice_volume(poly, [(1, 0)])


def test_volume_unimodular_invariance():
    poly = square_polytope(2)
    v1 = lattice_volume(poly, [(1, 0), (0, 1)])
    v2 = lattice_volume(poly, [(1, 1), (0, 1)])  # unimodular change of basis
    assert v1 == v2 == 4


# ---------------------------------------------------------------------------
# the span_rank reference: spans of exponent sets from one Gram matrix
# ---------------------------------------------------------------------------

@st.composite
def sublattice_set(draw, n):
    """Points base + sum c_i u_i for r = 0..n small integer directions u_i
    (dependent ones give a lower rank; r = 0 gives repeats of one point),
    optionally ending in one arbitrary point, so that a long set can reach
    full rank only at its end."""
    r = draw(st.integers(0, n))
    base = draw(st.tuples(*[st.integers(-9, 9)] * n))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=r, max_size=r))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * r), max_size=40))
    pts = [base] + [tuple(b + sum(c * u[i] for c, u in zip(cs, dirs))
                          for i, b in enumerate(base)) for cs in coeffs]
    if draw(st.booleans()):
        pts.append(draw(st.tuples(*[st.integers(-9, 9)] * n)))
    return pts


span_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(sublattice_set(n), min_size=1, max_size=3)))


@settings(max_examples=400)
@given(span_cases)
# full rank only at the last of many points: read past several prefixes
@example((2, [[(0, 0)] + [(x, 2 * x) for x in range(1, 30)] + [(1, 0)]]))
@example((3, [[(1, 2, 3)]]))
def test_span_rank_matches_per_point_lattice(case):
    n, sets = case
    rank, gram = span_rank(sets, n)
    diffs = [vsub(p, pts[0]) for pts in sets for p in pts[1:]]
    origin = (0,) * n
    assert rank == diff_lattice_per_point(sets, n).rank
    assert rank == affine_dimension([origin] + diffs)
    if len(sets) == 1:
        assert int_points_rank(sets[0]) == rank == affine_dimension(sets[0])
    # the Gram rows lie in the differences' rational span and have its rank
    rows = [r for r in gram if any(r)]
    assert affine_dimension([origin] + rows) == rank
    assert affine_dimension([origin] + rows + diffs) == rank
    assert gram == [list(col) for col in zip(*gram)]
    if rank < n:  # no early exit: the Gram matrix of every difference
        assert gram == [[sum(d[i] * d[j] for d in diffs) for j in range(n)]
                        for i in range(n)]
    # its integer kernel is the differences' orthogonal complement
    perp = int_kernel(gram)
    assert len(perp) == n - rank
    assert all(dot(w, d) == 0 for w in perp for d in diffs)


def test_span_rank_of_no_points():
    assert int_points_rank([]) == NEG_INF
    assert span_rank([], 3) == (0, [[0] * 3 for _ in range(3)])


@settings(max_examples=100)
@given(st.lists(st.tuples(st.tuples(*[st.integers(-6, 6)] * 2),
                          st.one_of(st.integers(-9, 9),
                                    st.fractions(max_denominator=7),
                                    st.fractions(max_denominator=7).map(str))),
                min_size=1, max_size=5))
def test_polytope_bounds_are_normalized_once(cons):
    """Each bound is divided by the gcd of its normal, whatever form it was
    given in; a Fraction bound on a primitive normal is kept as it is."""
    poly = Polytope(2, cons)
    for (v, c), (w, b) in zip(cons, poly.constraints):
        g = math.gcd(*v)
        assert type(b) is Fraction
        assert (w, b) == ((tuple(a // g for a in v), Fraction(c) / g) if g > 1
                          else (v, Fraction(c)))
        if g <= 1 and isinstance(c, Fraction):
            assert b is c
